"""Tests for finite extension fields, Frobenius bijectivity, embeddings."""

import hashlib
import random
import re
import tracemalloc

import pytest

from perffield import fqtower
from perffield.errors import BoundExceeded, DivisionByZero, NoEmbedding
from perffield.fqtower import (
    MAX_POINT_FIELD,
    FqField,
    PerfectReport,
    canonical_modulus,
    check_perfect,
    embed,
    find_embedding_root,
    make_field,
    point_field,
)
from perffield.primefield import PrimeField, is_prime

from helpers import (
    oracle_check_perfect,
    oracle_frobenius_images,
    oracle_fq_add,
    oracle_fq_inv,
    oracle_fq_mul,
    oracle_fq_neg,
    oracle_fq_pow,
    oracle_monic_polys,
    oracle_null_space,
    oracle_poly_mul,
    oracle_poly_powmod,
    oracle_poly_rem,
    oracle_small_factor,
)


def test_prime_field_modulus():
    F2 = make_field(2, 1)
    assert F2.modulus == (0, 1)
    assert F2.modulus_str() == "t"
    assert F2.order == 2


def test_f4_modulus():
    F4 = make_field(2, 2)
    assert F4.modulus == (1, 1, 1)
    assert F4.modulus_str() == "t^2 + t + 1"


def test_f9_modulus():
    F9 = make_field(3, 2)
    assert F9.modulus == (1, 0, 1)
    assert F9.modulus_str() == "t^2 + 1"


def test_f16_modulus():
    F16 = make_field(2, 4)
    assert F16.modulus == (1, 1, 0, 0, 1)
    assert F16.modulus_str() == "t^4 + t + 1"


def _small_prime_powers(bound):
    for p in range(2, bound + 1):
        if is_prime(p):
            n = 1
            while p**n <= bound:
                yield p, n
                n += 1


@pytest.mark.parametrize(
    "pairs",
    [
        pytest.param(list(_small_prime_powers(2**12)), id="p^n<=2^12"),
        # the moduli of point fields past MAX_POINT_FIELD
        pytest.param([(2, 15), (2, 17), (3, 10), (101, 3)], id="table-free"),
    ],
)
def test_canonical_modulus_is_the_first_irreducible(pairs):
    # Rabin's test, on each candidate's packed ring, reads gcd(h, f) = 1
    # from the ring's inverse; trial division finds the same first
    # irreducible polynomial in enumeration order
    for p, n in pairs:
        expect = next(f for f in oracle_monic_polys(p, n) if oracle_small_factor(f, p) is None)
        assert canonical_modulus(p, n) == tuple(expect), (p, n)


def test_modulus_deterministic():
    a = FqField(3, 3, make_field(3, 3).modulus)
    b = make_field(3, 3)
    assert a.modulus == b.modulus


def test_fields_with_different_moduli_do_not_mix():
    # same order, different modulus: residues of one are not residues of
    # the other, so mixing them must fail instead of reducing mod either
    G = FqField(2, 5, (1, 0, 0, 0, 1, 1))
    F = make_field(2, 5)
    assert G != F and F == FqField(2, 5, F.modulus)
    assert len({F, G, FqField(2, 5, F.modulus)}) == 2
    with pytest.raises(TypeError, match="different fields"):
        G.from_encoding(2) * F.from_encoding(16)
    assert F.from_encoding(2) * F.from_encoding(16) == F.elem([1, 0, 1])


def test_equal_fields_built_apart_hash_equal_and_share_embeddings():
    # the hash is taken once, at construction, from (p, n, modulus); a
    # target built apart from make_field's is an equal key of embed's cache
    for p, n, modulus in [(2, 5, (1, 0, 0, 0, 1, 1)), (3, 4, make_field(3, 4).modulus)]:
        a, b = FqField(p, n, modulus), FqField(p, n, tuple(list(modulus)))
        assert a is not b and a == b and hash(a) == hash(b) == hash((p, n, modulus))
    assert hash(make_field(2, 5)) != hash(FqField(2, 5, (1, 0, 0, 0, 1, 1)))
    src, dst = make_field(2, 2), make_field(2, 4)
    again = FqField(2, 4, dst.modulus)
    image = embed(src.gen(), dst)
    hits = fqtower._embedding_root_cached.cache_info().hits
    assert embed(src.gen(), again) == again.from_encoding(image.enc)
    assert fqtower._embedding_root_cached.cache_info().hits == hits + 1


def test_make_field_validation():
    with pytest.raises(ValueError):
        make_field(4, 2)
    with pytest.raises(BoundExceeded):
        make_field(2, 17)
    with pytest.raises(BoundExceeded):
        make_field(3, 14)  # 3^14 > 2^20


def test_from_encoding_refuses_a_non_int():
    F4 = make_field(2, 2)
    for k in (1.5, 2.0, "3", None):
        with pytest.raises(ValueError, match="an encoding must be an integer"):
            F4.from_encoding(k)
    assert F4.from_encoding(3) == F4.gen() + 1


def test_make_field_checks_bounds_before_primality(monkeypatch):
    # trial division of a 19-digit prime would run for a long time
    def no_primality_test(p):
        raise AssertionError(f"is_prime({p}) called before the size bound")

    monkeypatch.setattr(fqtower, "is_prime", no_primality_test)
    for p, n in ((1000000000000000003, 1), (2, 17), (1031, 2)):
        with pytest.raises(BoundExceeded):
            make_field(p, n)
    for p, n in ((2, 0), (1, 3), (-3, 2)):
        with pytest.raises(ValueError):
            make_field(p, n)


def test_f4_multiplication():
    F4 = make_field(2, 2)
    t = F4.gen()
    assert t * (t + 1) == F4.one()
    assert t + t == F4.zero()


def test_inverse():
    F9 = make_field(3, 2)
    assert F9.one().inv() == 1
    for enc in range(1, 9):
        a = F9.from_encoding(enc)
        assert a * a.inv() == 1
    with pytest.raises(DivisionByZero):
        F9.zero().inv()


def test_pow_and_encoding_roundtrip():
    F8 = make_field(2, 3)
    for enc in range(8):
        a = F8.from_encoding(enc)
        assert a.encode() == enc
        assert a ** F8.order == a * a ** (F8.order - 1) if enc else True


def test_frobenius_examples():
    F4 = make_field(2, 2)
    t = F4.gen()
    assert t.frobenius() == t + 1
    assert F4.zero().frobenius() == 0
    assert F4.one().frobenius() == 1
    F9 = make_field(3, 2)
    s = F9.gen()
    assert s.frobenius() == s + s  # t^3 = -t = 2t mod t^2+1


def test_inv_frobenius_examples():
    F4 = make_field(2, 2)
    t = F4.gen()
    assert (t + 1).inv_frobenius() == t
    assert F4.one().inv_frobenius() == 1
    F2 = make_field(2, 1)
    for enc in range(2):
        a = F2.from_encoding(enc)
        assert a.inv_frobenius() == a


def test_inv_frobenius_inverts_frobenius_exhaustive():
    for p, n in [(2, 1), (2, 4), (3, 3), (5, 2), (7, 1), (13, 2)]:
        fq = make_field(p, n)
        for a in fq.elements():
            assert a.frobenius().inv_frobenius() == a
            assert a.inv_frobenius().frobenius() == a


def test_frobenius_matrices_match_scalar_powering_exhaustive():
    # a ** e runs on the field's tables and never touches the packed rows
    # of Q or of its inverse, so it is the oracle for both linear maps
    for p, n in [(2, 2), (3, 3), (2, 8), (5, 3), (13, 2)]:
        fq = make_field(p, n)
        for a in fq.elements():
            assert a.frobenius() == a**p
            assert a.inv_frobenius() == a ** (p ** (n - 1))


def _check_against_tuple_oracle(field, pairs, is_field=True):
    """Every element of `field` through -, inv, ** (e in 0, 1, p, q - 2,
    -1), frobenius and inv_frobenius, and `pairs` through + - * /, each
    against the residue-tuple oracle; an element the oracle cannot invert
    must raise DivisionByZero. inv_frobenius is a -> a^(p^(n-1)); in a
    field that is the one element whose p-th power is a, a cheaper check."""
    p, q = field.p, field.order
    inverses = {}
    for a in field.elements():
        x = a.coeffs
        assert (-a).coeffs == oracle_fq_neg(field, x)
        for e in (0, 1, q - 2):
            assert (a**e).coeffs == oracle_fq_pow(field, x, e), (a, e)
        assert a.frobenius().coeffs == (a**p).coeffs == oracle_fq_pow(field, x, p)
        root = a.inv_frobenius().coeffs
        if is_field:
            assert oracle_fq_pow(field, root, p) == x
        else:
            assert root == oracle_fq_pow(field, x, p ** (field.n - 1))
        try:
            inverses[a.enc] = oracle_fq_inv(field, x)
        except ValueError:
            for op in (a.inv, lambda: a**-1, lambda: 1 / a):
                with pytest.raises(DivisionByZero):
                    op()
        else:
            assert a.inv().coeffs == (a**-1).coeffs == inverses[a.enc]
    for a, b in pairs:
        x, y = a.coeffs, b.coeffs
        assert (a + b).coeffs == oracle_fq_add(field, x, y)
        assert (a - b).coeffs == oracle_fq_add(field, x, oracle_fq_neg(field, y))
        assert (a * b).coeffs == oracle_fq_mul(field, x, y)
        if b.enc in inverses:
            assert (a / b).coeffs == oracle_fq_mul(field, x, inverses[b.enc])
        else:
            with pytest.raises(DivisionByZero):
                a / b
    return inverses


def _oracle_pairs(field, rng):
    """All pairs up to 64 elements, 2,000 seeded pairs past that."""
    if field.order <= 64:
        return [(a, b) for a in field.elements() for b in field.elements()]
    el = field.from_encoding
    return [(el(rng.randrange(field.order)), el(rng.randrange(field.order))) for _ in range(2000)]


def test_fqelem_matches_the_tuple_oracle_on_every_small_field():
    # every F_{p^n} with n >= 2, p <= 13 and p^n <= 2^12 runs on tables
    fields = [
        make_field(p, n) for p in (2, 3, 5, 7, 11, 13) for n in range(2, 13) if p**n <= 2**12
    ]
    assert len(fields) == 28
    rng = random.Random(21)
    for field in fields:
        assert len(_check_against_tuple_oracle(field, _oracle_pairs(field, rng))) == field.order - 1
        assert isinstance(field.arith(), fqtower._FqTables)


def test_fqelem_matches_the_tuple_oracle_on_other_moduli():
    rng = random.Random(22)
    # t^6 + t^5 + 1 is irreducible over Z_2 but not the canonical modulus
    # t^6 + t + 1, so the field builds tables of its own
    F = FqField(2, 6, (1, 0, 0, 0, 0, 1, 1))
    assert F.modulus != make_field(2, 6).modulus
    assert len(_check_against_tuple_oracle(F, _oracle_pairs(F, rng))) == 63
    assert isinstance(F.arith(), fqtower._FqTables)
    assert F.primitive_element().enc == F.arith().exp[1]
    # (t^2 + t + 1)^2 over Z_2: the 4 residues divisible by t^2 + t + 1,
    # zero among them, have no inverse, and the other 12 have one
    R = FqField(2, 4, (1, 0, 1, 0, 1))
    assert len(_check_against_tuple_oracle(R, _oracle_pairs(R, rng), is_field=False)) == 12
    assert isinstance(R.arith(), fqtower._FqPoly)


@pytest.mark.parametrize(
    "p, n", [(2, 15), (2, 16), (3, 10), (101, 3), (3, 12), (7, 7), (1021, 2), (65521, 1)]
)
def test_fqelem_past_the_table_bound_matches_the_tuple_oracle(p, n):
    # packed products, chunk-table linear maps and Itoh-Tsujii inverses;
    # F_{1021^2} has the widest slots make_field allows, and at n = 1 every
    # encoding is below p. The element whose digits are all p - 1 gives the
    # largest slot sums, of products and of the chunk tables alike, so it
    # is always in
    field = make_field(p, n)
    q = field.order
    assert q > MAX_POINT_FIELD and isinstance(field.arith(), fqtower._FqPoly)
    assert field.ring().irreducible
    rng = random.Random(23 + q)
    el = field.from_encoding
    top = el(q - 1)
    assert set(top.coeffs) == {p - 1}
    elems = [el(rng.randrange(q)) for _ in range(2000)]
    pairs = [(top, top), (top, el(p - 1)), (el(1), top), (top, field.zero())]
    pairs += zip(elems, elems[1:] + elems[:1])
    for a, b in pairs:
        x, y = a.coeffs, b.coeffs
        assert (a + b).coeffs == oracle_fq_add(field, x, y)
        assert (a - b).coeffs == oracle_fq_add(field, x, oracle_fq_neg(field, y))
        assert (a * b).coeffs == oracle_fq_mul(field, x, y)
        if b:
            assert (a / b).coeffs == oracle_fq_mul(field, x, oracle_fq_inv(field, y))
        else:
            with pytest.raises(DivisionByZero):
                a / b
    for a in [top, field.zero(), field.one(), el(p - 1)] + elems[:40]:
        x = a.coeffs
        if a:
            assert a.inv().coeffs == oracle_fq_inv(field, x)
        assert a.frobenius().coeffs == oracle_fq_pow(field, x, p), a
        assert a.inv_frobenius().coeffs == oracle_fq_pow(field, x, p ** (n - 1)), a
        for e in (0, 1, 2, p, q - 2, q - 1, q, 10**30):
            assert (a**e).coeffs == oracle_fq_pow(field, x, e), (a, e)


def test_an_associate_or_unreduced_modulus_gives_the_same_encodings():
    # 2f and f + p (p added to every coefficient) are f over Z_p: packed
    # products on F_{3^10}, on seeded pairs, and tables of their own on
    # F_{5^3}, on every pair
    rng = random.Random(24)
    big, small = make_field(3, 10), make_field(5, 3)
    encs = [rng.randrange(big.order) for _ in range(300)] + [big.order - 1] * 2
    cases = [
        (big, fqtower._FqPoly, list(zip(encs, reversed(encs)))),
        (small, fqtower._FqTables, [(a, b) for a in range(125) for b in range(125)]),
    ]
    for F, kind, pairs in cases:
        p, n, f = F.p, F.n, F.modulus
        for G in (FqField(p, n, tuple(2 * c for c in f)), FqField(p, n, tuple(c + p for c in f))):
            assert isinstance(G.arith(), kind)
            for a, b in pairs:
                x, y = G.from_encoding(a), G.from_encoding(b)
                u, v = F.from_encoding(a), F.from_encoding(b)
                assert [
                    (x + y).enc, (x - y).enc, (x * y).enc, (-x).enc, (x**b).enc,
                    x.frobenius().enc, x.inv_frobenius().enc,
                ] == [
                    (u + v).enc, (u - v).enc, (u * v).enc, (-u).enc, (u**b).enc,
                    u.frobenius().enc, u.inv_frobenius().enc,
                ]
                if b:
                    assert (x / y).enc == (u / v).enc


def test_construction_matches_the_oracle_dense_powers():
    # gen, a long elem, every power map t -> t^(p^j) and the embedding
    # rows run on each field's packed ring; the oracle's dense powers
    # check them on a non-monic modulus of degree 1, non-canonical and
    # reducible moduli, and the associates 2f and f + p of a modulus f
    def pad(cs, n):
        return tuple(cs) + (0,) * (n - len(cs))

    F5 = FqField(5, 1, (2, 3))
    assert F5.gen().enc == 1  # t = -2/3 = 1 in Z_5[t]/(3t + 2)
    f = make_field(3, 4).modulus
    fields = [
        F5,
        make_field(3, 4),
        FqField(3, 4, tuple(2 * c for c in f)),
        FqField(3, 4, tuple(c + 3 for c in f)),
        FqField(3, 4, _second_modulus(3, 4)),
        FqField(2, 6, (1, 0, 0, 0, 0, 1, 1)),
        FqField(2, 4, (1, 0, 1, 0, 1)),
    ]
    rng = random.Random(26)
    for F in fields:
        p, n, f = F.p, F.n, F.modulus
        assert F.gen().coeffs == pad(oracle_poly_rem([0, 1], f, p), n)
        for length in (n + 1, 2 * n + 3, 40):
            cs = [rng.randrange(-p, 2 * p) for _ in range(length)]
            assert F.elem(cs).coeffs == pad(oracle_poly_rem(cs, f, p), n), (F, cs)

        def rows(e):
            return tuple(pad(oracle_poly_powmod([0, 1], i * e, f, p), n) for i in range(n))

        for j in range(n):
            assert F.power_map(p**j) == rows(p**j), (F, j)
        assert F.frobenius_matrix() == rows(p)
        # the cached packed rows of Q and of its inverse, through the maps
        basis = [F.from_encoding(p**i) for i in range(n)]
        assert tuple(x.frobenius().coeffs for x in basis) == rows(p)
        assert tuple(x.inv_frobenius().coeffs for x in basis) == rows(p ** (n - 1))
    # the embedding rows r^i of F_9, F_4 and F_8 into targets whose moduli are
    # not canonical, or are associates of the canonical one
    pairs = [(make_field(3, 2), G) for G in fields[1:5]]
    pairs += [(make_field(2, k), fields[5]) for k in (2, 3)]
    for S, T in pairs:
        p, m, f = T.p, S.n, T.modulus
        r = find_embedding_root(S, T)
        powers = [pad(oracle_poly_powmod(r.coeffs, i, f, p), T.n) for i in range(m + 1)]
        # r is a root of the source modulus
        value = [sum(c * x[k] for c, x in zip(S.modulus, powers)) % p for k in range(T.n)]
        assert not any(value), (S, T)
        for i in range(m):
            assert embed(S.from_encoding(p**i), T).coeffs == powers[i], (S, T, i)
    # an associate is the same ideal, so it has the same first root
    assert len({find_embedding_root(S, T).enc for S, T in pairs[:3]}) == 1


@pytest.mark.parametrize(
    "p, n, modulus",
    [
        (2, 3, (1, 1, 1)),  # too few coefficients
        (2, 3, (1, 1, 0, 1, 1)),  # too many
        (2, 3, (1, 1, 0, 0)),  # leading coefficient zero
        (3, 2, (1, 0, 3)),  # leading coefficient zero mod p
    ],
)
def test_fqfield_refuses_a_modulus_of_the_wrong_shape(p, n, modulus):
    with pytest.raises(ValueError, match=re.escape(f"modulus {modulus}")):
        FqField(p, n, modulus)


def test_zero_divisor_of_a_reducible_modulus_raises_division_by_zero():
    # t is a zero divisor modulo t^2: the ring's Euclid finds gcd t, not 1
    ring = FqField(2, 2, (0, 0, 1))
    t = ring.gen()
    with pytest.raises(DivisionByZero, match="zero divisor"):
        t.inv()
    with pytest.raises(DivisionByZero, match="zero divisor"):
        ring.one() / t
    assert (t + 1).inv() == t + 1  # (1 + t)^2 = 1 + t^2 = 1


def _rabin_counter(monkeypatch):
    """Count the calls of Rabin's test from here on."""
    calls = []
    rabin = fqtower._is_irreducible

    def counted(R):
        calls.append(R.modulus)
        return rabin(R)

    monkeypatch.setattr(fqtower, "_is_irreducible", counted)
    return calls


@pytest.mark.parametrize("p, n", [(2, 6), (5, 6), (2, 16), (3, 10), (101, 3)])
def test_make_field_arith_reuses_the_rabin_verdict(monkeypatch, p, n):
    # make_field's ring comes flagged by the Rabin test that picked its
    # modulus, so arith() runs none; past the tables its inverses are
    # Itoh-Tsujii's, so the Euclid is never reached
    make_field.cache_clear()
    field = make_field(p, n)
    calls = _rabin_counter(monkeypatch)
    assert field.ring().irreducible
    A = field.arith()
    assert calls == []
    if field.order > MAX_POINT_FIELD:
        def refuse(*args):
            raise AssertionError("the Euclid ran on a ring flagged irreducible")

        monkeypatch.setattr(fqtower.zpoly, "invmod", refuse)
        rng = random.Random(30 + p)
        for a in [rng.randrange(1, field.order) for _ in range(50)] + [field.order - 1]:
            assert A.mul(a, A.inv(a)) == 1


def test_a_hand_built_modulus_of_degree_16_is_flagged_by_one_rabin_test(monkeypatch):
    # a non-canonical irreducible modulus past the tables: arith() runs
    # Rabin's test once, flags the ring, and its inverses, by Itoh-Tsujii,
    # match the oracle
    F = FqField(2, 16, _second_modulus(2, 16))
    assert F.modulus != make_field(2, 16).modulus
    calls = _rabin_counter(monkeypatch)
    assert not F.ring().irreducible
    assert isinstance(F.arith(), fqtower._FqPoly)
    F.arith()
    assert calls == [F.modulus] and F.ring().irreducible
    rng = random.Random(31)
    for a in [F.from_encoding(rng.randrange(1, F.order)) for _ in range(40)] + [F.from_encoding(F.order - 1)]:
        assert a.inv().coeffs == oracle_fq_inv(F, a.coeffs), a
        assert (a * a.inv()).enc == 1


def test_a_reducible_modulus_of_degree_16_inverts_units_by_the_euclid():
    # f = g^2 for the irreducible g = t^8 + t^4 + t^3 + t + 1 over Z_2:
    # Rabin's test refuses f, so the ring is not flagged and inverts by
    # the Euclid; 1 + g h is a unit (its square is 1 mod g^2), and so is
    # anything of degree below 8, while g h is a zero divisor
    g = (1, 1, 0, 1, 1, 0, 0, 0, 1)
    F = FqField(2, 16, (1, 0, 1, 0, 0, 0, 1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 1))
    assert F.modulus == tuple(oracle_poly_mul(g, g, 2))
    assert isinstance(F.arith(), fqtower._FqPoly) and not F.ring().irreducible
    one = F.one().coeffs
    G = F.elem(g)
    rng = random.Random(32)
    for _ in range(30):
        h = F.from_encoding(rng.randrange(1, 1 << 8))
        low = F.from_encoding(rng.randrange(1, 1 << 8))
        for unit in (1 + G * h, low, low * (1 + G * h)):
            assert oracle_fq_mul(F, unit.coeffs, unit.inv().coeffs) == one, unit
        for zero_divisor in (G * h, G * h * low):
            assert zero_divisor
            with pytest.raises(DivisionByZero, match="zero divisor"):
                zero_divisor.inv()
            with pytest.raises(DivisionByZero):
                F.one() / zero_divisor
    # the norm check guards the chain: flagged by hand, the ring meets a
    # zero divisor's norm, which is no unit of Z_2
    F.ring().irreducible = True
    with pytest.raises(RuntimeError, match="norm"):
        G.inv()


def test_a_new_modulus_drops_the_flag_and_the_frobenius_tables():
    R = fqtower._canonical_ring(2, 16)
    assert R.irreducible
    R.inv(12345)
    assert R.frob and R.maps
    R._set_modulus(FqField(2, 16, (1, 0, 1, 0, 0, 0, 1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 1)).modulus)
    assert not R.irreducible and R.frob == {} and R.maps == {}


def test_negative_powers_agree_on_every_point_field_object():
    # _FqTables, _FqPoly and _Zp all take a^e for e < 0 as the inverse
    # powered: on F_{2^6} tables, the F_{2^16} ring and Z_7
    rng = random.Random(33)
    cases = [
        (make_field(2, 6).arith(), 64),
        (make_field(2, 16).ring(), 2**16),
        (point_field(7, 1), 7),
    ]
    assert isinstance(cases[0][0], fqtower._FqTables) and isinstance(cases[2][0], fqtower._Zp)
    for A, q in cases:
        for a in [1, q - 1, 12345 % q or 1] + [rng.randrange(1, q) for _ in range(20)]:
            for e in range(-3, 4):
                base = A.inv(a) if e < 0 else a
                expect = 1
                for _ in range(abs(e)):
                    expect = A.mul(expect, base)
                assert A.pow(a, e) == expect, (A, a, e)
                assert A.mul(A.pow(a, e), A.pow(a, -e)) == 1


def _digit_row_image(R, a, rows):
    """The digit-times-rows sum: each base-p digit of a times its row."""
    return R._unpack(sum(d * row for d, row in zip(fqtower._digits(a, R.p, len(rows)), rows)))


@pytest.mark.parametrize("p, n", [(2, 16), (3, 10), (101, 3), (1021, 2), (5, 6), (2, 7)])
def test_chunk_table_image_matches_the_digit_row_sum(p, n):
    # every Frobenius power t -> t^(p^k) (Q at k = 1, its inverse at
    # k = n - 1) and the embedding rows r^i, through the chunk tables,
    # against each digit times its packed row; the element whose digits
    # are all p - 1 reaches the largest slot sums, widest at F_{1021^2}
    F = make_field(p, n)
    R = F.ring()
    c = R.width // R.w
    assert R.base == p**c
    rng = random.Random(34 + p)
    encs = [0, 1, p - 1, F.order - 1] + [rng.randrange(F.order) for _ in range(60)]
    for k in range(1, n + 1):
        rows = R.rows(k)
        tables = R.tables(rows)
        assert [len(t) for t in tables] == [p ** len(rows[j : j + c]) for j in range(0, n, c)]
        ring_tables = R.frobenius(k)
        # the ring's tables come from its one stored copy of the rows
        assert R.maps[k] is rows
        for a in encs:
            expect = _digit_row_image(R, a, rows)
            assert R.image(a, tables) == R.image(a, ring_tables) == expect, (k, a)
        if k == 1:
            assert all(F.from_encoding(a).frobenius().enc == R.image(a, tables) for a in encs)
        if k == n - 1:
            assert all(F.from_encoding(a).inv_frobenius().enc == R.image(a, tables) for a in encs)
    for m in range(2, n):
        if n % m:
            continue
        S = make_field(p, m)
        rows = fqtower._power_rows(R, find_embedding_root(S, F).enc, m)
        tables = fqtower._embedding_root_cached(S, F)
        for a in [0, 1, S.order - 1] + [rng.randrange(S.order) for _ in range(40)]:
            expect = _digit_row_image(R, a, rows)
            assert R.image(a, tables) == expect == embed(S.from_encoding(a), F).enc, (m, a)


def _counting_power_rows(monkeypatch):
    """The x of every _power_rows(R, x, k) call from here on, in order."""
    built, power_rows = [], fqtower._power_rows

    def counting(R, x, k):
        built.append(x)
        return power_rows(R, x, k)

    monkeypatch.setattr(fqtower, "_power_rows", counting)
    return built


def test_the_rows_of_q_are_built_once_per_field(monkeypatch):
    # the sweep, an Itoh-Tsujii inverse, a^p and power_map all read the
    # ring's one copy of the rows of t -> t^2 (whose t^2 is encoded 4)
    built = _counting_power_rows(monkeypatch)
    F = make_field.__wrapped__(2, 16)
    assert check_perfect(F) == PerfectReport(2, 16, 2**16, True, 16, None)
    a = F.from_encoding(12345)
    assert isinstance(F.arith(), fqtower._FqPoly) and a * a.inv() == 1
    assert a.frobenius() == a**2
    assert F.power_map(2) == F.frobenius_matrix()
    assert built.count(4) == 1, built


@pytest.mark.parametrize("p", [2, 5, 101])
def test_the_rows_on_f_p_are_one_from_an_encoding_in_the_field(monkeypatch, p):
    # on F_p the one row of every Frobenius power is 1, on the canonical
    # modulus t and on a modulus whose root is not 0; t is never powered
    # as the encoding p, which lies past the field
    built = _counting_power_rows(monkeypatch)
    for F in (make_field.__wrapped__(p, 1), FqField(p, 1, (1, 1))):
        assert check_perfect(F) == PerfectReport(p, 1, p, True, 1, None)
        assert F.power_map(p) == F.power_map(p**3) == F.power_map(1) == ((1,),)
        assert F.ring().rows(1) == (1,)
    assert built and all(0 <= x < p for x in built), built


def test_power_map_takes_only_powers_of_p():
    # a -> a^e is F_p-linear for e = p^k; any other e has no rows
    F = make_field(2, 4)
    for e in (6, 0, -2, 3, -1, 2.0):
        with pytest.raises(ValueError, match="power_map takes e = 2"):
            F.power_map(e)
    with pytest.raises(ValueError):
        make_field(3, 2).power_map(2)
    identity = tuple(tuple(int(i == j) for j in range(4)) for i in range(4))
    assert F.power_map(1) == F.power_map(16) == F.power_map(256) == identity
    assert F.power_map(32) == F.power_map(2) == F.frobenius_matrix()
    assert F.power_map(8) == tuple((F.from_encoding(2**i) ** 8).coeffs for i in range(4))


def test_fermat_for_extensions():
    for p, n in [(2, 5), (3, 4), (5, 3)]:
        fq = make_field(p, n)
        for a in fq.elements():
            assert a ** fq.order == a


def test_check_perfect_f2():
    rep = check_perfect(make_field(2, 1))
    assert rep.passed and rep.order == 1
    assert rep.counterexample is None
    assert rep.summary() == "pass: Frobenius bijective on 2 elements, order 1"


def test_check_perfect_f4():
    rep = check_perfect(make_field(2, 2))
    assert rep.passed and rep.order == 2


def test_check_perfect_f27():
    rep = check_perfect(make_field(3, 3))
    assert rep.passed and rep.order == 3
    assert rep.size == 27
    assert rep.summary() == "pass: Frobenius bijective on 27 elements, order 3"


def test_check_perfect_order_divides_degree():
    for p, n in [(2, 6), (3, 4), (5, 2), (7, 2)]:
        rep = check_perfect(make_field(p, n))
        assert rep.passed
        assert n % rep.order == 0


def test_check_perfect_reports_collision_on_reducible_modulus():
    # Z_p[t]/(f) with f reducible and not squarefree is no field, and x -> x^p
    # is not injective there; the reported pair collides under scalar powering
    for p, n, modulus in [(2, 2, (0, 0, 1)), (2, 4, (1, 0, 1, 0, 1)), (3, 2, (1, 2, 1))]:
        ring = FqField(p, n, modulus)
        rep = check_perfect(ring)
        assert not rep.passed and rep.order is None
        a, b = rep.counterexample
        assert a < b
        assert ring.from_encoding(a) ** p == ring.from_encoding(b) ** p
        assert rep.summary().startswith(f"fail: Frobenius not injective on {p**n}")


def test_check_perfect_bound():
    # every field make_field accepts is answered, F_{5^8} and F_{3^12}
    # (each over 2^16 elements) among them. Past make_field's
    # bounds F_{2^17} is refused by make_field, and a field built by hand
    # past its order bound by check_perfect, before any work
    with pytest.raises(BoundExceeded):
        check_perfect(make_field(2, 17))
    with pytest.raises(BoundExceeded):
        check_perfect(FqField(2, 21, (1,) + (0,) * 20 + (1,)))
    for p, n in [(5, 8), (3, 12)]:
        field = make_field(p, n)
        expect = PerfectReport(p, n, p**n, True, n, None)
        assert check_perfect(field) == oracle_check_perfect(field) == expect


def _report_or_error(check, field):
    try:
        return check(field)
    except RuntimeError as err:
        return type(err), str(err)


def test_check_perfect_matches_matmul_sweep_on_every_small_field():
    fields = [
        (p, n)
        for p in range(2, 2**12 + 1)
        if is_prime(p)
        for n in range(1, 17)
        if p**n <= 2**12
    ]
    assert len(fields) > 500
    # and fields at the top of the exhaustive bound, where the image table
    # is largest, and the largest p it admits; 127, 131 and 32771 are the
    # last p whose coordinates (up to 2p - 2) fit a byte, the first that
    # needs 16 bits and the first that needs 32
    fields += [(2, 16), (2, 15), (3, 10), (5, 6), (7, 5), (13, 4), (31, 3), (251, 2), (65521, 1)]
    fields += [(127, 2), (131, 2), (32771, 1)]
    for p, n in fields:
        field = make_field(p, n)
        assert check_perfect(field) == oracle_check_perfect(field), (p, n)


def _sweep_moduli():
    """Every monic modulus of a few small (p, n), then seeded random ones
    of larger degree, reducible ones among them."""
    moduli = [
        (p, n, tuple(k // p**i % p for i in range(n)) + (1,))
        for p, top in [(2, 6), (3, 4), (5, 3), (7, 2)]
        for n in range(1, top + 1)
        for k in range(p**n)
    ]
    rng = random.Random(8)
    for p, n in [(2, 12), (2, 16), (3, 7), (5, 5), (13, 3), (251, 2)]:
        for _ in range(6):
            moduli.append((p, n, tuple(rng.randrange(p) for _ in range(n)) + (1,)))
    return moduli


def test_check_perfect_matches_matmul_sweep_on_reducible_moduli():
    # every monic modulus of a few small (p, n), then random ones of larger
    # degree: squarefree reducible moduli pass with an order that may pass
    # n, moduli with a repeated factor report a collision pair. Among them
    # is (t^2 + t + 1)(t^3 + t + 1) over Z_2: Z_2[t]/(f) is F_4 x F_8, where
    # the Frobenius is a bijection of order lcm(2, 3) = 6 > 5, which raises
    outcomes = set()
    for p, n, modulus in _sweep_moduli():
        ring = FqField(p, n, modulus)
        got = _report_or_error(check_perfect, ring)
        assert got == _report_or_error(oracle_check_perfect, ring), modulus
        outcomes.add(got[0] if isinstance(got, tuple) else got.passed)
    assert outcomes == {True, False, RuntimeError}
    assert _report_or_error(check_perfect, FqField(2, 5, (1, 0, 0, 0, 1, 1))) == (
        RuntimeError,
        "Frobenius order exceeded the extension degree",
    )
    # (t + 1)(t^2 + t + 1) = t^3 + 1 over Z_2: Z_2[t]/(f) is F_2 x F_4, where
    # the Frobenius has order 2, at most n = 3 but not dividing it
    assert check_perfect(FqField(2, 3, (1, 0, 0, 1))) == PerfectReport(2, 3, 8, True, 2, None)


def _outcome(report_or_error, n):
    if isinstance(report_or_error, tuple):
        return "order > n"
    if not report_or_error.passed:
        return "collision"
    return "order | n" if n % report_or_error.order == 0 else "order <= n, not | n"


def _put_q(field, rows):
    """The digit rows in place of Q, packed as the field's ring holds it."""
    R, p = field.ring(), field.p
    R.maps[1] = tuple(R._pack(sum(c * p**j for j, c in enumerate(row))) for row in rows)
    assert field.frobenius_matrix() == tuple(map(tuple, rows))


def test_check_perfect_matches_matmul_sweep_on_random_linear_maps():
    # check_perfect reads the order off the orbits of the basis, which holds
    # for every F_p-linear map, not just for a Frobenius: seeded random
    # matrices in place of Q, every third one singular (its last row a
    # multiple of its first), give every outcome
    rng = random.Random(24)
    outcomes = set()
    for p, n in [(2, 1), (2, 3), (2, 4), (2, 6), (2, 12), (3, 2), (3, 5), (5, 3), (7, 4), (13, 3), (61, 2)]:
        field = FqField(p, n, make_field(p, n).modulus)
        for trial in range(12):
            rows = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
            if trial % 3 == 0:
                c = rng.randrange(p)
                rows[-1] = [c * a % p for a in rows[0]] if n > 1 else [0]
            _put_q(field, rows)
            got = _report_or_error(check_perfect, field)
            assert got == _report_or_error(oracle_check_perfect, field), (p, n, rows)
            outcomes.add(_outcome(got, n))
    assert outcomes == {"order | n", "order <= n, not | n", "order > n", "collision"}
    # the basis permuted by a 2-cycle and a 3-cycle: orbits of lengths 2 and
    # 3, so the order is their lcm 6, past n = 5 and dividing n = 6
    for n in (5, 6):
        field = FqField(2, n, make_field(2, n).modulus)
        cycle = [1, 0, 3, 4, 2] + list(range(5, n))
        _put_q(field, [[int(j == cycle[i]) for j in range(n)] for i in range(n)])
        got = _report_or_error(check_perfect, field)
        assert got == _report_or_error(oracle_check_perfect, field), n
    assert got == PerfectReport(2, 6, 64, True, 6, None)


def test_frobenius_images_at_p_2_match_the_matmul_images():
    # at p = 2 the images are built by XOR doubling, straight into the
    # intp array, with no coordinate table; they must equal every
    # element's digits times Q, on the largest fields, on every p = 2
    # modulus of the reducible sweep, and on random rows in place of Q,
    # singular ones (a repeated or zero last row) included
    fields = [make_field(2, 16), make_field(2, 15)]
    fields += [FqField(p, n, modulus) for p, n, modulus in _sweep_moduli() if p == 2]
    rng = random.Random(28)
    for n in (1, 2, 5, 9, 16):
        for trial in range(6):
            field = FqField(2, n, make_field(2, n).modulus)
            rows = [[rng.randrange(2) for _ in range(n)] for _ in range(n)]
            if trial % 2 == 0:
                rows[-1] = list(rows[0]) if trial else [0] * n
            _put_q(field, rows)
            fields.append(field)
    singular = 0
    for field in fields:
        got = fqtower._frobenius_images(field)
        expect = oracle_frobenius_images(field)
        assert got.dtype == expect.dtype and (got == expect).all(), field
        singular += len(set(got.tolist())) < field.order
    assert singular > 20


def test_check_perfect_memory():
    # at p = 2 the images are XORed straight into the intp array, with no
    # coordinate table, so F_{2^16} peaks at its three intp permutations of
    # 0.5 MiB during the gathers (1.6 MiB); at odd p one byte per
    # coordinate in a table freed before the gathers keeps F_{3^10} near
    # 1.9 MiB, where an int32 table of its coordinates alone takes 2.3 MiB
    for p, n in [(2, 16), (3, 10)]:
        field = make_field(p, n)
        tracemalloc.start()
        try:
            report = check_perfect(field)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.passed and report.order == n
        assert peak < 2.5 * 2**20


def _first_root_by_scan(source, target):
    """The oracle: every target element in encoding order, scalar Horner."""
    for x in target.elements():
        if not _eval_modulus(source.modulus, x, target):
            return x
    return None


def test_embedding_root_matches_exhaustive_scan():
    for p in [q for q in range(2, 65) if is_prime(q)]:
        for n in range(2, 13):
            if p**n > 2**12:
                break
            target = make_field(p, n)
            for m in range(1, n + 1):
                if n % m == 0:
                    source = make_field(p, m)
                    expect = _first_root_by_scan(source, target)
                    assert find_embedding_root(source, target) == expect, (p, m, n)


def _slots(R, x):
    """The slots of a packed int of the ring R, unreduced."""
    return [x >> j * R.w & R.mask for j in range(len(R.modulus) - 1)]


def _packed_rows(R, a):
    """The digit rows of a, each packed in the slots of the ring R."""
    return [sum(c << j * R.w for j, c in enumerate(row)) for row in a]


def _subfield_listing(source, target):
    """The target encodings of the subfield ker(Q^m - I) in the order the
    root search lists them: the k-th combination of _null_space's basis
    takes the base-p digits of k, least significant first."""
    p, n, R = target.p, target.n, target.ring()
    F = target.power_map(p**source.n)
    a = [[(F[j][i] - (i == j)) % p for j in range(n)] for i in range(n)]
    packed, free = fqtower._null_space(R, _packed_rows(R, a))
    basis = [_slots(R, b) for b in packed]
    assert len(basis) == source.n
    # so a subfield element's coordinates in the basis are its digits there
    assert [[row[c] for c in free] for row in basis] == [
        [int(i == j) for j in range(len(free))] for i in range(len(free))
    ]
    out = []
    for k in range(p ** len(basis)):
        x = [0] * n
        for i, row in enumerate(basis):
            digit = (k // p**i) % p
            x = [(xc + digit * rc) % p for xc, rc in zip(x, row)]
        out.append(target.elem(x).encode())
    return out


def test_null_space_on_packed_rows_matches_the_digit_list_oracle():
    # seeded square matrices of every rank: full rank, singular (rows that
    # are combinations of others, at random places) and zero, so every
    # pivot pattern and every free column shows; the packed basis must
    # agree slot for slot, each slot below p
    rng = random.Random(28)
    seen = {"zero": 0, "singular": 0, "full rank": 0}
    for p in (2, 3, 13, 101, 1021):
        for n in range(1, 17):
            R = fqtower._FqPoly(p, (1,) + (0,) * (n - 1) + (1,))
            for trial in range(6):
                a = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
                if trial == 0:
                    a = [[0] * n for _ in range(n)]
                elif trial % 2 == 0:
                    # rank at most rank - 1: a few rows become combinations of others
                    rank = rng.randrange(n)
                    for i in rng.sample(range(n), n - rank):
                        cs = [rng.randrange(p) for _ in range(n)]
                        a[i] = [
                            sum(c * a[k][j] for k, c in enumerate(cs) if k != i) % p
                            for j in range(n)
                        ]
                        if rng.randrange(2):
                            a[i] = [0] * n
                expect, free = oracle_null_space(a, p)
                basis, got_free = fqtower._null_space(R, _packed_rows(R, a))
                assert got_free == free, (p, n, a)
                assert [_slots(R, b) for b in basis] == expect, (p, n, a)
                kind = "zero" if not any(map(any, a)) else "singular" if free else "full rank"
                seen[kind] += 1
    assert min(seen.values()) >= 80, seen


def test_subfield_is_listed_in_increasing_encoding():
    # so the first root the search meets is the one of smallest encoding
    pairs = [
        (make_field(p, m), make_field(p, n))
        for p in (2, 3, 5, 7, 11, 13, 17, 31, 101, 251)
        for n in range(1, 13)
        if p**n <= 2**12
        for m in range(1, n + 1)
        if n % m == 0
    ]
    noncanonical = FqField(2, 4, (1, 0, 0, 1, 1))  # t^4 + t^3 + 1
    assert noncanonical.modulus != make_field(2, 4).modulus
    pairs += [(make_field(2, m), noncanonical) for m in (1, 2, 4)]
    for source, target in pairs:
        listing = _subfield_listing(source, target)
        assert all(a < b for a, b in zip(listing, listing[1:])), (source, target)
    for source in (make_field(2, 2), make_field(2, 4)):
        assert find_embedding_root(source, noncanonical) == _first_root_by_scan(source, noncanonical)


def test_embedding_root_into_a_reducible_modulus_is_no_embedding():
    # t^2 is no field modulus, and t^2 + t + 1 has no root in Z_2[t]/(t^2)
    F4, ring = make_field(2, 2), FqField(2, 2, (0, 0, 1))
    with pytest.raises(NoEmbedding, match="has no root in"):
        find_embedding_root(F4, ring)
    with pytest.raises(NoEmbedding, match="has no root in"):
        embed(F4.gen(), ring)


# the first root of make_field(p, m)'s modulus in make_field(p, n), for
# every proper m | n with 2 <= m and p^n <= 2^16, recorded when the search
# evaluated the modulus by Horner in the target's n coordinates
_PINNED_ROOTS = {
    (2, 2, 4): 6, (2, 2, 6): 58, (2, 3, 6): 14, (2, 2, 8): 188, (2, 4, 8): 92,
    (2, 3, 9): 252, (2, 2, 10): 236, (2, 5, 10): 314, (2, 2, 12): 72,
    (2, 3, 12): 1186, (2, 4, 12): 8, (2, 6, 12): 163, (2, 2, 14): 5106,
    (2, 7, 14): 3374, (2, 3, 15): 892, (2, 5, 15): 316, (2, 2, 16): 1842,
    (2, 4, 16): 34988, (2, 8, 16): 16845, (3, 2, 4): 42, (3, 2, 6): 129,
    (3, 3, 6): 144, (3, 2, 8): 828, (3, 4, 8): 9, (3, 3, 9): 1629,
    (3, 2, 10): 20199, (3, 5, 10): 9, (5, 2, 4): 25, (5, 2, 6): 8840,
    (5, 3, 6): 11365, (7, 2, 4): 1271, (11, 2, 4): 3681, (13, 2, 4): 169,
}


def test_embedding_roots_are_pinned():
    pairs = [
        (p, m, n)
        for p in range(2, 256)
        if is_prime(p)
        for n in range(2, 17)
        if p**n <= 2**16
        for m in range(1, n)
        if n % m == 0
    ]
    # 72 of them with p <= 13; past that every pair has m = 1
    assert len([p for p, _, _ in pairs if p <= 13]) == 72
    for p, m, n in pairs:
        root = find_embedding_root(make_field(p, m), make_field(p, n))
        # the modulus of F_p is t, whose root is 0
        assert root.encode() == _PINNED_ROOTS.get((p, m, n), 0), (p, m, n)
    assert {pair for pair in pairs if pair[1] > 1} == set(_PINNED_ROOTS)


def _second_modulus(p, n):
    """The first monic irreducible of degree n after the canonical one."""
    start = fqtower._encode(make_field(p, n).modulus, p) + 1
    return next(
        tuple(cs)
        for cs in (fqtower._decode(k, p) for k in range(start, 2 * p**n))
        if oracle_small_factor(cs, p) is None
    )


@pytest.mark.parametrize(
    "p, n, roots", [(2, 16, (5411, 582)), (3, 10, (1158, 4014))]
)
def test_embedding_root_of_a_whole_field_in_small_memory(p, n, roots):
    # m = n with a non-canonical modulus on one side searches all p^n
    # elements; the roots were recorded with the search in n coordinates,
    # which peaked at 25 to 31 MB on F_{2^16}
    canonical, other = make_field(p, n), FqField(p, n, _second_modulus(p, n))
    for (source, target), expect in zip(((canonical, other), (other, canonical)), roots):
        tracemalloc.start()
        try:
            root = find_embedding_root(source, target)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert root.encode() == expect
        assert peak < 16 * 2**20
        assert not _eval_modulus(source.modulus, root, target)


def test_embedding_root_needs_a_subfield():
    with pytest.raises(NoEmbedding, match="degree 3 does not divide 4; no embedding exists"):
        find_embedding_root(make_field(2, 3), make_field(2, 4))
    with pytest.raises(NoEmbedding):
        find_embedding_root(make_field(2, 1), make_field(3, 2))


def test_embed_prime_subfield():
    F2, F4 = make_field(2, 1), make_field(2, 2)
    assert embed(F2.one(), F4) == F4.one()
    assert embed(F2.zero(), F4) == F4.zero()


def test_embed_f4_in_f16():
    F4, F16 = make_field(2, 2), make_field(2, 4)
    img = embed(F4.gen(), F16)
    assert img.encode() == 6
    # image satisfies the source modulus t^2 + t + 1
    assert img * img + img + F16.one() == F16.zero()


def test_embed_degree_mismatch():
    F4, F8 = make_field(2, 2), make_field(2, 3)
    with pytest.raises(NoEmbedding):
        embed(F4.gen(), F8)
    with pytest.raises(NoEmbedding):
        embed(F4.gen(), make_field(3, 2))


def test_embed_refuses_what_is_not_an_fqelem():
    F4 = make_field(2, 2)
    for a, name in ((3, "int"), (PrimeField(2).elem(1), "PFElem"), (None, "NoneType")):
        with pytest.raises(TypeError, match=f"^embed takes an FqElem, not {name}$"):
            embed(a, F4)


def test_embed_same_field_identity():
    for F in (make_field(3, 2), FqField(3, 2, (2, 2, 1))):
        for a in F.elements():
            assert embed(a, F) == a


def test_embed_is_ring_homomorphism_exhaustive():
    pairs = [
        (make_field(p, m), make_field(p, n))
        for p, m, n in [(2, 2, 4), (2, 3, 6), (3, 2, 4), (5, 2, 4), (2, 4, 8)]
    ]
    # the map depends on both moduli, not only on (p, m, n)
    F8 = FqField(2, 3, (1, 0, 1, 1))  # t^3 + t^2 + 1
    pairs += [
        (F8, make_field(2, 6)),
        (F8, make_field(2, 3)),
        (make_field(2, 3), F8),
        (make_field(2, 2), FqField(2, 4, (1, 0, 0, 1, 1))),  # t^4 + t^3 + 1
        (make_field(3, 1), FqField(3, 2, (2, 2, 1))),  # t^2 + 2t + 2
    ]
    for src, dst in pairs:
        if src.order > 2**8:
            continue
        assert embed(src.one(), dst) == dst.one()
        els = list(src.elements())
        for a in els:
            for b in els:
                assert embed(a + b, dst) == embed(a, dst) + embed(b, dst)
                assert embed(a * b, dst) == embed(a, dst) * embed(b, dst)


@pytest.mark.parametrize("p, m, n", [(2, 8, 16), (2, 4, 16), (3, 5, 10), (3, 2, 10)])
def test_embed_into_a_field_past_the_tables_is_a_homomorphism(p, m, n):
    # targets on packed products: seeded pairs, and the element whose
    # digits are all p - 1, the largest slot sums of the packed rows r^i
    src, dst = make_field(p, m), make_field(p, n)
    assert isinstance(dst.arith(), fqtower._FqPoly)
    rng = random.Random(27 + src.order)
    els = [src.from_encoding(src.order - 1)]
    els += [src.from_encoding(rng.randrange(src.order)) for _ in range(300)]
    assert embed(src.one(), dst) == dst.one()
    for a, b in zip(els, els[1:] + els[:1]):
        assert embed(a + b, dst) == embed(a, dst) + embed(b, dst)
        assert embed(a * b, dst) == embed(a, dst) * embed(b, dst)


def test_embed_injective():
    for p, m, n in [(2, 2, 4), (3, 1, 3)]:
        src, dst = make_field(p, m), make_field(p, n)
        images = {embed(a, dst).encode() for a in src.elements()}
        assert len(images) == src.order


def _eval_modulus(coeffs, x, field):
    acc = field.zero()
    for c in reversed(coeffs):
        acc = acc * x + field.const(c)
    return acc


def test_embedding_composition():
    # composing canonical embeddings yields an embedding: the composite image
    # of the generator is a root of the source modulus in the top field.  It
    # often equals the direct image but may land on a conjugate root instead.
    agree = [(2, 1, 2, 4), (2, 2, 4, 8), (2, 2, 6, 12), (3, 1, 2, 4),
             (3, 2, 4, 8), (5, 2, 4, 8), (7, 1, 2, 4), (13, 1, 2, 4)]
    for p, a, b, c in agree:
        Fa, Fb, Fc = make_field(p, a), make_field(p, b), make_field(p, c)
        via = embed(embed(Fa.gen(), Fb), Fc)
        assert via == embed(Fa.gen(), Fc)
        assert not _eval_modulus(Fa.modulus, via, Fc)


def test_embedding_composition_conjugate_case():
    # a chain where the composite lands on the other root of the modulus
    Fa, Fb, Fc = make_field(2, 2), make_field(2, 8), make_field(2, 16)
    via = embed(embed(Fa.gen(), Fb), Fc)
    direct = embed(Fa.gen(), Fc)
    assert via != direct
    assert not _eval_modulus(Fa.modulus, via, Fc)
    assert via == direct + Fc.one()  # char-2 conjugate pair


def test_elements_enumeration_order():
    F4 = make_field(2, 2)
    assert [a.encode() for a in F4.elements()] == [0, 1, 2, 3]


def test_random_arithmetic_against_integers():
    # sanity: degree-1 fields behave like Z_p
    rng = random.Random(1212)
    for p in (5, 13):
        fq = make_field(p, 1)
        for _ in range(50):
            x, y = rng.randrange(p), rng.randrange(p)
            assert (fq.const(x) + fq.const(y)).encode() == (x + y) % p
            assert (fq.const(x) * fq.const(y)).encode() == (x * y) % p


@pytest.mark.parametrize("p, k", [(101, 1), (3, 4), (2, 15), (101, 3), (1021, 2), (2, 21)])
def test_point_field_matches_fqelem_arithmetic(p, k):
    # Z_101, a table field (F_81), three fields past MAX_POINT_FIELD but
    # inside make_field's bounds, and F_{2^21}, past MAX_ORDER, whose
    # modulus comes from canonical_modulus; against the residue-tuple
    # oracle, since FqElem shares the point field's arithmetic object
    assert 3**4 <= MAX_POINT_FIELD < 2**15
    F = point_field(p, k)
    fq = make_field(p, k) if p**k <= fqtower.MAX_ORDER else FqField(p, k, canonical_modulus(p, k))
    assert F.q == fq.order

    def el(a):
        return fq.from_encoding(a).coeffs

    def enc(x):
        return sum(c * p**i for i, c in enumerate(x))

    def mul(a, b):
        return enc(oracle_fq_mul(fq, el(a), el(b)))

    def sub(a, b):
        return enc(oracle_fq_add(fq, el(a), oracle_fq_neg(fq, el(b))))

    rng = random.Random(4000 + p**k)
    for _ in range(200):
        a, b = rng.randrange(fq.order), rng.randrange(fq.order)
        assert F.mul(a, b) == mul(a, b)
        assert F.add(a, b) == enc(oracle_fq_add(fq, el(a), el(b)))
        assert F.sub(a, b) == sub(a, b)
        assert F.neg(a) == enc(oracle_fq_neg(fq, el(a)))
        if a:
            assert F.inv(a) == enc(oracle_fq_inv(fq, el(a)))
    for _ in range(20):
        a, e = rng.randrange(fq.order), rng.randrange(40)
        assert F.pow(a, e) == enc(oracle_fq_pow(fq, el(a), e))
    for _ in range(20):
        c = rng.randrange(1, fq.order)
        u = [rng.randrange(fq.order) for _ in range(8)]
        v = [rng.randrange(fq.order) for _ in range(8)]
        assert F.scale(c, v) == [mul(c, y) for y in v]
        assert F.axpy(u, c, v) == [sub(x, mul(c, y)) for x, y in zip(u, v)]
        # a sparse row, as lifted elements give, and a dense one
        row = [rng.randrange(fq.order) if rng.random() < 0.3 else 0 for _ in range(40)]
        for r in (row, u + [1]):
            x = rng.randrange(fq.order)
            acc = 0
            for coeff in reversed(r):
                acc = enc(oracle_fq_add(fq, el(mul(acc, x)), el(coeff)))
            assert F.value(r, x) == acc
    # every coefficient q - 1 at a point whose digits are all p - 1: the
    # largest slot sums of a packed Horner run
    row, x = [fq.order - 1] * 40, fq.order - 1
    acc = 0
    for coeff in reversed(row):
        acc = enc(oracle_fq_add(fq, el(mul(acc, x)), el(coeff)))
    assert F.value(row, x) == acc
    assert F.scale(x, [x]) == [mul(x, x)]
    assert F.axpy([x, 0], x, [x, x]) == [sub(x, mul(x, x)), sub(0, mul(x, x))]
    # F_p is the encodings below p
    assert all(F.mul(a, b) == a * b % p for a in range(p) for b in range(p))
    assert all(F.sub(a, b) == (a - b) % p for a in range(p) for b in range(p))


@pytest.mark.parametrize("p, k", [(101, 3), (2, 16), (3, 10)])
def test_packed_value_matches_plain_horner(p, k):
    # _FqPoly.value powers each gap once per call; plain Horner over every
    # coefficient, on the ring's own products and sums, is the oracle.
    # Dense rows, lifted rows (one gap repeated), mixed gaps, one term,
    # at x = 0, at elements of F_p and at random points
    F = point_field(p, k)
    assert F.q > MAX_POINT_FIELD and F is make_field(p, k).arith()
    rng = random.Random(6100 + p**k)

    def horner(row, x):
        acc = 0
        for c in reversed(row):
            acc = F.add(F.mul(acc, x), c)
        return acc

    def lifted(step, terms):
        row = [0] * (step * (terms - 1) + 1)
        for e in range(0, len(row), step):
            row[e] = rng.randrange(1, F.q)
        return row

    mixed = [0] * 400
    for e in (0, 1, 3, 7, 8, 50, 51, 52, 150, 250, 399):
        mixed[e] = rng.randrange(1, F.q)
    rows = [
        [rng.randrange(F.q) for _ in range(60)],
        lifted(p, 30),
        lifted(p * p, 6),
        mixed,
        [rng.randrange(1, F.q)],
        [0] * 9 + [rng.randrange(1, F.q)],
        [],
    ]
    points = [0, 1, p - 1, F.q - 1] + [rng.randrange(F.q) for _ in range(4)]
    for row in rows:
        for x in points:
            assert F.value(row, x) == horner(row, x)


def test_point_field_tables_list_every_element_once_and_follow_make_field():
    F = point_field(3, 4)
    assert sorted(F.points) == list(range(81))
    assert point_field(3, 4) is F
    make_field.cache_clear()
    G = point_field(3, 4)
    assert G is not F
    assert G is make_field(3, 4).arith()
    assert (G.log, G.exp, G.zech, G.points) == (F.log, F.exp, F.zech, F.points)


@pytest.mark.parametrize("p, k", [(3, 4), (2, 15), (101, 3)])
def test_point_field_is_the_fields_own_arithmetic(p, k):
    # tables (F_81) and packed products (F_{2^15}, F_{101^3}): one object
    # per field, shared with FqElem, and no second build on a second call
    F = point_field(p, k)
    assert F is make_field(p, k).arith()
    assert point_field(p, k) is F


def test_one_table_layout_serves_fqelem_and_the_point_field():
    # F_{5^6}: one layout of about 15q entries, whose nlog and Zech lists
    # hold log's own ints, near 3.7 MiB; a second, point-field layout
    # beside the FqElem tables would bring the pair to 4.6 MiB
    make_field.cache_clear()
    tracemalloc.start()
    try:
        tables = make_field(5, 6).arith()
        F = point_field(5, 6)
        size = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert F is tables
    assert size < 4 * 2**20


def _digest(values):
    return hashlib.sha256(repr(list(values)).encode()).hexdigest()[:16]


@pytest.mark.parametrize(
    "p, k, generator, digests",
    [
        # digests of log, exp, zech, nlog and points
        (3, 4, 3, "0d8393f27d1a16d6 aa917bc7fef48348 9b0c92732a17a35e"
                  " 32404460a00f917c eeab1fd5546ad2a7"),
        (2, 6, 2, "721877d1b0cd8635 9bf5e63ffb74c426 7adac6b7d7ce2729"
                  " 721877d1b0cd8635 bd4f5f4959ea21c4"),
        (101, 2, 102, "0f78457a889768ca 6b38adc0090bb111 57f04fcfcf94d06e"
                      " 47f88fcadd34c238 435ebd6651f3527f"),
    ],
)
def test_point_field_tables_come_from_the_field_table_build(p, k, generator, digests):
    # the digests were recorded when the point field built a layout of its
    # own from FqElem products; the field's one table build now lays its
    # lists out the same way
    make_field.cache_clear()
    field = make_field(p, k)
    F = point_field(p, k)
    assert F is field.arith()
    assert F.exp[1] == generator == field.primitive_element().enc == F.points[0]
    assert " ".join(map(_digest, (F.log, F.exp, F.zech, F.nlog, F.points))) == digests
