"""Batch kernels for finite-field coefficient matrices.

Elements are rows of an (N, n) int64 matrix of residues; the modulus
enters through a precomputed reduction table (row k = t^(n+k) mod f).

The exhaustive perfectness sweep no longer needs these kernels: fqtower
applies the Frobenius as one F_p-linear map. `batch_mulmod` runs only
the Horner evaluation of a modulus over the small subfield searched for
an embedding root. `batch_pow` is on no library path; it stays because
the benchmark's layer table (perfbench/layers.py) traces it. Both are
checked in the tests against scalar `FqElem` arithmetic, their oracle.

Two interchangeable implementations of `batch_mulmod` are provided:
numba-jitted loops and a vectorized pure-numpy path. PERFFIELD_BACKEND
selects one ("numba", "numpy", or "auto" = numba when importable).

Coefficient magnitudes: with p^n <= 2^20 the schoolbook products and
reduction accumulations stay far below 2^63, so plain int64 arithmetic
is exact on every supported field.
"""

from __future__ import annotations

import os

import numpy as np

try:
    from numba import njit

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - numba present in the normal install
    HAVE_NUMBA = False

VALID_BACKENDS = ("auto", "numba", "numpy")


def backend_name() -> str:
    """Resolve PERFFIELD_BACKEND to the implementation in force."""
    env = os.environ.get("PERFFIELD_BACKEND", "auto").lower()
    if env not in VALID_BACKENDS:
        raise ValueError(
            f"PERFFIELD_BACKEND must be one of {VALID_BACKENDS}, got {env!r}"
        )
    if env == "numba" and not HAVE_NUMBA:
        raise RuntimeError("PERFFIELD_BACKEND=numba but numba is not importable")
    if env == "auto":
        return "numba" if HAVE_NUMBA else "numpy"
    return env


def reduction_table(modulus: tuple[int, ...], p: int) -> np.ndarray:
    """Rows k = 0..n-2: coefficients of t^(n+k) mod f, each of degree < n."""
    n = len(modulus) - 1
    red = np.zeros((max(n - 1, 0), n), dtype=np.int64)
    if n < 2:
        return red
    base = [(-modulus[i]) % p for i in range(n)]  # t^n mod f
    cur = list(base)
    red[0] = cur
    for k in range(1, n - 1):
        ov = cur[n - 1]
        cur = [0] + cur[: n - 1]
        if ov:
            for j in range(n):
                cur[j] = (cur[j] + ov * base[j]) % p
        red[k] = cur
    return red


# -- pure-numpy implementation ------------------------------------------------


def numpy_batch_mulmod(
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


# -- numba implementation -----------------------------------------------------

if HAVE_NUMBA:

    @njit(cache=True)
    def _numba_mulmod(A, B, red, p):  # pragma: no cover - exercised via dispatch
        N, n = A.shape
        out = np.zeros((N, n), dtype=np.int64)
        conv = np.zeros(2 * n - 1, dtype=np.int64)
        for r in range(N):
            for j in range(2 * n - 1):
                conv[j] = 0
            for i in range(n):
                ai = A[r, i]
                if ai:
                    for j in range(n):
                        conv[i + j] = (conv[i + j] + ai * B[r, j]) % p
            for j in range(n):
                out[r, j] = conv[j]
            for k in range(n - 1):
                c = conv[n + k]
                if c:
                    for j in range(n):
                        out[r, j] = (out[r, j] + c * red[k, j]) % p
        return out

    def numba_batch_mulmod(A, B, red, p):
        return _numba_mulmod(
            np.ascontiguousarray(A), np.ascontiguousarray(B), red, p
        )

else:  # pragma: no cover

    def numba_batch_mulmod(A, B, red, p):
        raise RuntimeError("numba backend requested but numba is not importable")


# -- dispatch ------------------------------------------------------------------


def batch_mulmod(A, B, red, p):
    if backend_name() == "numba":
        return numba_batch_mulmod(A, B, red, p)
    return numpy_batch_mulmod(A, B, red, p)


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
