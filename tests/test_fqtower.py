"""Tests for finite extension fields, Frobenius bijectivity, embeddings."""

import random

import pytest

from perffield import fqtower
from perffield.errors import BoundExceeded, DivisionByZero, NoEmbedding
from perffield.fqtower import (
    FqField,
    check_perfect,
    embed,
    find_embedding_root,
    make_field,
)
from perffield.primefield import is_prime

from helpers import oracle_check_perfect


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


def test_modulus_deterministic():
    a = FqField(3, 3, make_field(3, 3).modulus)
    b = make_field(3, 3)
    assert a.modulus == b.modulus


def test_make_field_validation():
    with pytest.raises(ValueError):
        make_field(4, 2)
    with pytest.raises(BoundExceeded):
        make_field(2, 17)
    with pytest.raises(BoundExceeded):
        make_field(3, 14)  # 3^14 > 2^20


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
    # a ** e runs square-and-multiply on residues and never touches the
    # matrices, so it is the oracle for both linear maps
    for p, n in [(2, 2), (3, 3), (2, 8), (5, 3), (13, 2)]:
        fq = make_field(p, n)
        for a in fq.elements():
            assert a.frobenius() == a**p
            assert a.inv_frobenius() == a ** (p ** (n - 1))


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
    with pytest.raises(BoundExceeded):
        check_perfect(make_field(2, 17))
    with pytest.raises(BoundExceeded):
        check_perfect(make_field(5, 8))  # 5^8 > 2^16 but constructible


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
    for p, n in fields:
        field = make_field(p, n)
        assert check_perfect(field) == oracle_check_perfect(field), (p, n)


def test_check_perfect_matches_matmul_sweep_on_reducible_moduli():
    # every monic modulus of a few small (p, n), then random ones of larger
    # degree: squarefree reducible moduli pass with an order that may pass
    # n, moduli with a repeated factor report a collision pair. Among them
    # is (t^2 + t + 1)(t^3 + t + 1) over Z_2: Z_2[t]/(f) is F_4 x F_8, where
    # the Frobenius is a bijection of order lcm(2, 3) = 6 > 5, which raises
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
    outcomes = set()
    for p, n, modulus in moduli:
        ring = FqField(p, n, modulus)
        got = _report_or_error(check_perfect, ring)
        assert got == _report_or_error(oracle_check_perfect, ring), modulus
        outcomes.add(got[0] if isinstance(got, tuple) else got.passed)
    assert outcomes == {True, False, RuntimeError}
    assert _report_or_error(check_perfect, FqField(2, 5, (1, 0, 0, 0, 1, 1))) == (
        RuntimeError,
        "Frobenius order exceeded the extension degree",
    )


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


def test_embedding_root_needs_a_subfield():
    with pytest.raises(RuntimeError):
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


def test_embed_same_field_identity():
    F9 = make_field(3, 2)
    for a in F9.elements():
        assert embed(a, F9) == a


def test_embed_is_ring_homomorphism_exhaustive():
    for p, m, n in [(2, 2, 4), (2, 3, 6), (3, 2, 4), (5, 2, 4), (2, 4, 8)]:
        src, dst = make_field(p, m), make_field(p, n)
        if src.order > 2**8:
            continue
        els = list(src.elements())
        for a in els:
            for b in els:
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
