"""Batch kernels for finite-field coefficient matrices.

Elements are rows of an (N, n) int64 matrix of residues; the modulus
enters through a precomputed reduction table (row k = t^(n+k) mod f).

The exhaustive perfectness sweep does not use this module: fqtower
builds its image table by linearity. Everything here serves the
embedding root search: `decode_range` lists the small subfield searched
for a root, `batch_mulmod` runs the Horner evaluation of the source
modulus over it, and `encode_rows` turns the roots found back into
encodings. `batch_pow` is on no library path; it stays because the
benchmark's layer table (perfbench/layers.py) traces it. The kernels
are checked in the tests against scalar `FqElem` arithmetic, their
oracle, and the test oracle for the exhaustive sweep uses the encode
and decode helpers. fqtower imports this module, and numpy with it,
only when a root search runs.

Coefficient magnitudes: with p^n <= 2^20 the schoolbook products and
reduction accumulations stay far below 2^63, so plain int64 arithmetic
is exact on every supported field.
"""

from __future__ import annotations

import numpy as np

from . import zpoly

# There is one numpy implementation. HAVE_NUMBA and backend_name() stay
# only because the benchmark's environment record (perfbench/run.py
# `environment()`) reads them.
HAVE_NUMBA = False


def backend_name() -> str:
    return "numpy"


def reduction_table(modulus: tuple[int, ...], p: int) -> np.ndarray:
    """Rows k = 0..n-2: coefficients of t^(n+k) mod f, each of degree < n."""
    n = len(modulus) - 1
    red = np.zeros((max(n - 1, 0), n), dtype=np.int64)
    row = zpoly.rem([0] * n + [1], modulus, p)
    for k in range(n - 1):
        red[k, : len(row)] = row
        row = zpoly.rem([0] + row, modulus, p)
    return red


def batch_mulmod(
    A: np.ndarray, B: np.ndarray, red: np.ndarray, p: int
) -> np.ndarray:
    """Row-wise polynomial product mod the modulus behind `red`."""
    N, n = A.shape
    conv = np.zeros((N, 2 * n - 1), dtype=np.int64)
    for i in range(n):
        conv[:, i : i + n] += A[:, i : i + 1] * B
    conv %= p
    res = conv[:, :n] + conv[:, n:] @ red
    return res % p


def batch_pow(A: np.ndarray, e: int, red: np.ndarray, p: int) -> np.ndarray:
    """Row-wise e-th power mod the modulus, by square and multiply."""
    if e < 0:
        raise ValueError("batch_pow exponent must be non-negative")
    N, n = A.shape
    result = np.zeros((N, n), dtype=np.int64)
    result[:, 0] = 1 % p
    base = A % p
    while e:
        if e & 1:
            result = batch_mulmod(result, base, red, p)
        e >>= 1
        if e:
            base = batch_mulmod(base, base, red, p)
    return result


def encode_rows(A: np.ndarray, p: int) -> np.ndarray:
    """Row polynomials to integers: sum of c_i p^i (c_0 least significant)."""
    n = A.shape[1]
    weights = p ** np.arange(n, dtype=np.int64)
    return A @ weights


def decode_range(start: int, stop: int, n: int, p: int) -> np.ndarray:
    """Coefficient rows for the integer encodings start..stop-1."""
    ks = np.arange(start, stop, dtype=np.int64)
    out = np.empty((stop - start, n), dtype=np.int64)
    for i in range(n):
        out[:, i] = ks % p
        ks = ks // p
    return out
