"""Tests for the batch coefficient-matrix kernels; scalar FqElem
arithmetic is their oracle."""

import random

import numpy as np

from perffield import _accel
from perffield.fqtower import make_field


def random_rows(rng, count, n, p):
    return np.array(
        [[rng.randrange(p) for _ in range(n)] for _ in range(count)],
        dtype=np.int64,
    )


def test_reduction_table_f4():
    # t^2 mod (t^2 + t + 1) = t + 1
    red = _accel.reduction_table((1, 1, 1), 2)
    assert red.shape == (1, 2)
    assert red.tolist() == [[1, 1]]


def test_reduction_table_f16():
    # rows are t^4, t^5, t^6 mod (t^4 + t + 1)
    red = _accel.reduction_table((1, 1, 0, 0, 1), 2)
    assert red.tolist() == [[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1]]


def test_reduction_table_degree_one():
    red = _accel.reduction_table((0, 1), 5)
    assert red.shape == (0, 1)


def test_numpy_matches_scalar_multiplication():
    rng = random.Random(42)
    for p, n in [(2, 5), (3, 4), (13, 2), (5, 1), (2, 2)]:
        fq = make_field(p, n)
        red = _accel.reduction_table(fq.modulus, p)
        A = random_rows(rng, 64, n, p)
        B = random_rows(rng, 64, n, p)
        out = _accel.batch_mulmod(A, B, red, p)
        for i in range(64):
            a = fq.elem(tuple(int(c) for c in A[i]))
            b = fq.elem(tuple(int(c) for c in B[i]))
            expect = (a * b).coeffs + (0,) * (n - len((a * b).coeffs))
            assert tuple(int(c) for c in out[i]) == expect


def test_batch_pow_matches_scalar():
    rng = random.Random(44)
    fq = make_field(3, 4)
    red = _accel.reduction_table(fq.modulus, 3)
    A = random_rows(rng, 32, 4, 3)
    for e in (0, 1, 2, 3, 27, 80):
        out = _accel.batch_pow(A, e, red, 3)
        for i in range(32):
            a = fq.elem(tuple(int(c) for c in A[i]))
            expect = (a**e).coeffs
            expect = expect + (0,) * (4 - len(expect))
            assert tuple(int(c) for c in out[i]) == expect


def test_encode_decode_roundtrip():
    for p, n in [(2, 4), (3, 3), (7, 2)]:
        rows = _accel.decode_range(0, p**n, n, p)
        assert rows.shape == (p**n, n)
        enc = _accel.encode_rows(rows, p)
        assert enc.tolist() == list(range(p**n))
