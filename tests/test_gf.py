"""Field towers: construction, arithmetic axioms, coordinates, Frobenius."""

import random

import numpy as np
import pytest

from sumrank.gf import (Field, FieldElement, is_irreducible, make_field,
                        parse_field, poly_mod, smallest_irreducible)

PRIME_POWERS_64 = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29,
                   31, 32, 37, 41, 43, 47, 49, 53, 59, 61, 64]


def _field_of(q):
    p = next(d for d in range(2, q + 1) if q % d == 0)
    e = 0
    while q > 1:
        q //= p
        e += 1
    return make_field(p, [e] if e > 1 else [1])


def test_prime_field():
    f = make_field(2, [1])
    assert f.order == 2 and f.is_prime_field


def test_gf4_defining_polynomial_and_mult(f4):
    # x^2 + x + 1 is the first irreducible over GF(2); omega^2 = omega + 1
    assert f4.modulus == (1, 1)
    w = 2
    assert f4.mul(w, w) == 3
    assert is_irreducible(make_field(2, [1]), (1, 1))
    assert not is_irreducible(make_field(2, [1]), (1, 0))  # x^2 + 1 = (x+1)^2


def test_reducible_polynomial_rejected():
    with pytest.raises(ValueError, match="reducible"):
        make_field(2, [2], [(1, 0)])  # x^2 + 1 = (x+1)^2


def test_non_prime_characteristic_rejected():
    with pytest.raises(ValueError, match="not prime"):
        make_field(4, [1])


def test_tower_gf16(f16_tower, f4):
    assert f16_tower.order == 16
    assert f16_tower.subfield == f4
    # exhaustive irreducibility of the chosen quadratic over GF(4)
    assert is_irreducible(f4, f16_tower.modulus)


def test_auto_table_requires_small_order():
    with pytest.raises(ValueError, match="explicit irreducible"):
        make_field(2, [25])


def test_identity_and_inverses(f4, f8):
    for f in (f4, f8):
        for a in f.elements():
            assert f.mul(a, 1) == a
    for a in f8.nonzero_elements():
        assert f8.mul(a, f8.inv(a)) == 1
    with pytest.raises(ZeroDivisionError):
        f8.inv(0)


def test_mixed_field_elements_rejected(f4, f8):
    a = FieldElement(f4, 2)
    b = FieldElement(f8, 2)
    with pytest.raises(ValueError, match="different fields"):
        _ = a + b


def test_field_element_operators(f4):
    a = FieldElement(f4, 2)
    assert int(a * a) == 3
    assert int(a + a) == 0
    assert int(a / a) == 1
    assert int(-a) == 2
    assert int(a ** 3) == 1
    assert a.coords == (0, 1)


@pytest.mark.parametrize("q", PRIME_POWERS_64)
def test_axioms_exhaustive_order_le_64(q):
    """Commutativity, associativity, distributivity on every field <= 64."""
    f = _field_of(q)
    mul = f.np_table("mul")
    add = f.np_table("add")
    assert (mul == mul.T).all() and (add == add.T).all()
    a = np.arange(q).reshape(q, 1, 1)
    b = np.arange(q).reshape(1, q, 1)
    c = np.arange(q).reshape(1, 1, q)
    ab = mul[a, b]
    bc = mul[b, c]
    assert (mul[ab, c] == mul[a, bc]).all()
    a_bc = add[b, c]
    assert (mul[a, a_bc] == add[mul[a, b], mul[a, c]]).all()
    aa = add[a, b]
    assert (add[aa, c] == add[a, add[b, c]]).all()


@pytest.mark.parametrize("q", [3, 4, 8, 9])
def test_neg_and_sub(q):
    f = _field_of(q)
    for a in f.elements():
        assert f.add(a, f.neg(a)) == 0
        for b in f.elements():
            assert f.add(f.sub(a, b), b) == a


def test_coords_zero_and_golden(f4):
    assert f4.coords(0) == (0, 0)
    # basis {1, omega}: omega + 1 has coordinates (1, 1)
    assert f4.coords(3, (1, 2)) == (1, 1)


def test_coords_roundtrip_gf16(f16_tower):
    for a in f16_tower.elements():
        assert f16_tower.from_coords(f16_tower.coords(a)) == a


def test_coords_custom_basis_roundtrip(f4):
    basis = (2, 3)  # {omega, omega^2}, independent over GF(2)
    for a in f4.elements():
        assert f4.from_coords(f4.coords(a, basis), basis) == a


def test_coords_dependent_basis_rejected(f16_tower):
    with pytest.raises(ValueError, match="dependent"):
        f16_tower.coords(5, (1, 1))


def test_coords_linear_over_subfield(f16_tower, f4):
    """coords(a + lam*b) = coords(a) + lam*coords(b), exhaustive GF(16)/GF(4)."""
    for lam in f4.elements():
        lam_emb = f16_tower.embed(lam)
        for a in f16_tower.elements():
            for b in f16_tower.elements():
                left = f16_tower.coords(
                    f16_tower.add(a, f16_tower.mul(lam_emb, b)))
                ca, cb = f16_tower.coords(a), f16_tower.coords(b)
                right = tuple(f4.add(x, f4.mul(lam, y)) for x, y in zip(ca, cb))
                assert left == right


def test_frobenius(f4, f8, f16_tower):
    # subfield elements are fixed
    for a in (0, 1):
        assert f4.frobenius(a, 1) == a
    assert f4.frobenius(2, 1) == 3  # omega -> omega^2 = omega + 1
    for a in f8.elements():
        assert f8.frobenius(a, 3) == a
    # additivity, exhaustive on GF(16)
    for a in f16_tower.elements():
        for b in f16_tower.elements():
            assert (f16_tower.frobenius(f16_tower.add(a, b), 1)
                    == f16_tower.add(f16_tower.frobenius(a, 1),
                                     f16_tower.frobenius(b, 1)))


def test_frobenius_is_subfield_linear(f16_tower, f4):
    for lam in f4.elements():
        lam_e = f16_tower.embed(lam)
        for a in f16_tower.elements():
            lhs = f16_tower.frobenius(f16_tower.mul(lam_e, a), 1)
            rhs = f16_tower.mul(lam_e, f16_tower.frobenius(a, 1))
            assert lhs == rhs


def test_generator_is_primitive(f8, f9):
    for f in (f8, f9):
        g = f.generator
        seen = set()
        v = 1
        for _ in range(f.order - 1):
            seen.add(v)
            v = f.mul(v, g)
        assert len(seen) == f.order - 1


def _raw_order(f, g):
    v, k = g, 1
    while v != 1:
        v, k = f._mul_raw(v, g), k + 1
    return k


@pytest.mark.parametrize("p,degrees", [(3, [2, 3]), (2, [11])])
def test_generator_is_smallest_primitive(p, degrees):
    f = make_field(p, degrees)
    g = f.generator
    assert _raw_order(f, g) == f.order - 1
    assert all(_raw_order(f, a) < f.order - 1 for a in range(1, g))


@pytest.mark.parametrize("p,e", [(2, 11), (3, 7)])
def test_log_tables_above_1024(p, e):
    f = make_field(p, [e])  # GF(2048), GF(2187)
    for a in f.nonzero_elements():
        assert f.mul(a, f.inv(a)) == 1
    rng = random.Random(e)
    for _ in range(2000):
        a, b = rng.randrange(f.order), rng.randrange(f.order)
        assert f.mul(a, b) == f._mul_raw(a, b)


def test_embed_project(f16_tower, f4):
    for a in f4.elements():
        assert f16_tower.project(f16_tower.embed(a)) == a
    with pytest.raises(ValueError, match="subfield"):
        f16_tower.project(7)


def test_describe_parse_roundtrip(f16_tower, f9):
    for f in (f16_tower, f9):
        assert parse_field(f.describe()) == f


def test_smallest_irreducible_deterministic():
    f2 = make_field(2, [1])
    assert smallest_irreducible(f2, 2) == (1, 1)
    assert smallest_irreducible(f2, 4) == (1, 1, 0, 0)  # x^4 + x + 1
    f4 = make_field(2, [2])
    m = smallest_irreducible(f4, 2)
    assert is_irreducible(f4, m)
    # every earlier candidate is reducible
    packed = sum(c * 4 ** i for i, c in enumerate(m))
    for earlier in range(packed):
        cand = tuple((earlier // 4 ** i) % 4 for i in range(2))
        assert not is_irreducible(f4, cand)


def test_poly_mod(f4):
    # (x^2 + x + 1) mod (x + 2) over GF(4)
    q, r = [1, 1, 1], [2, 1]
    rem = poly_mod(f4, q, r)
    assert len(rem) == 1
    x0 = f4.neg(2)
    assert rem[0] == f4.add(f4.add(f4.mul(x0, x0), x0), 1)


def _recursive_add(f, a, b):
    """Addition by the definition: digit by digit over the immediate subfield."""
    if f.subfield is None:
        return (a + b) % f.p
    q = f.subfield.order
    return sum(_recursive_add(f.subfield, a // q ** i % q, b // q ** i % q) * q ** i
               for i in range(f.degree))


def _recursive_neg(f, a):
    if f.subfield is None:
        return (-a) % f.p
    q = f.subfield.order
    return sum(_recursive_neg(f.subfield, a // q ** i % q) * q ** i for i in range(f.degree))


@pytest.mark.parametrize("field", [make_field(3, [2]), make_field(3, [3]), make_field(5, [2]),
                                   make_field(3, [2, 2])], ids=repr)
def test_digitwise_add_neg_match_recursive_definition(field):
    for a in field.elements():
        assert field.neg(a) == _recursive_neg(field, a)
        for b in field.elements():
            assert field.add(a, b) == _recursive_add(field, a, b)
