"""Batch kernels for finite-field coefficient matrices.

Elements are rows of an (N, n) int64 matrix of residues; the modulus
enters through a precomputed reduction table (row k = t^(n+k) mod f).

No library code calls this module any more. The exhaustive perfectness
sweep builds its image table by linearity, the embedding root search
multiplies in the subfield's own coordinates on one tensor, and the
test oracles decode encodings with numpy themselves. It stays only
because the benchmark traces `batch_mulmod` and `batch_pow`
(perfbench/layers.py) and records `HAVE_NUMBA` and `backend_name()`
(perfbench/run.py `environment()`), until the benchmark drops those
(ROADMAP direction 1). tests/test_accel.py checks the kernels against
scalar `FqElem` arithmetic.

Coefficient magnitudes: with p^n <= 2^20 the schoolbook products and
reduction accumulations stay far below 2^63, so plain int64 arithmetic
is exact on every supported field.
"""
from __future__ import annotations

import numpy as np

from .fqtower import FqField

# There is one numpy implementation. HAVE_NUMBA and backend_name() stay
# only because the benchmark's environment record (perfbench/run.py
# `environment()`) reads them.
HAVE_NUMBA = False


def backend_name() -> str:
    return "numpy"


def reduction_table(modulus: tuple[int, ...], p: int) -> np.ndarray:
    """Rows k = 0..n-2: coefficients of t^(n+k) mod f, each of degree < n."""
    n = len(modulus) - 1
    field = FqField(p, n, modulus)
    rows = [field.elem([0] * (n + k) + [1]).coeffs for k in range(n - 1)]
    return np.array(rows, dtype=np.int64).reshape(max(n - 1, 0), n)


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


def decode_range(start: int, stop: int, n: int, p: int) -> np.ndarray:
    """Coefficient rows for the integer encodings start..stop-1."""
    ks = np.arange(start, stop, dtype=np.int64)
    out = np.empty((stop - start, n), dtype=np.int64)
    for i in range(n):
        out[:, i] = ks % p
        ks = ks // p
    return out
