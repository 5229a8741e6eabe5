"""Field towers: construction, arithmetic axioms, coordinates, Frobenius."""

import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from sumrank import gf
from sumrank.construct import field_of_order
from sumrank.gf import (Field, is_irreducible, linear_map, make_field, parse_field, poly_mod,
                        smallest_irreducible)

from oracles import scalar_op_table

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


def test_make_field_accepts_exactly_the_primes_below_500():
    sieve = [False, False] + [True] * 498
    for i in range(2, 23):
        if sieve[i]:
            sieve[i * i::i] = [False] * len(sieve[i * i::i])
    for p in range(-2, 500):
        try:
            accepted = make_field(p, [1]).order == p
        except ValueError:
            accepted = False
        assert accepted == (p >= 0 and sieve[p]), p


def test_prime_power_matches_trial_division_below_20000():
    for q in range(-1, 20000):
        primes = gf._prime_factors(q)
        expected = None
        if len(primes) == 1:
            expected = primes[0], next(e for e in range(1, q + 1) if primes[0] ** e == q)
        try:
            got = gf.prime_power(q)
        except gf.UsageError:
            got = None
        assert got == expected, q


@pytest.mark.parametrize("n", [
    1373653,  # the least strong pseudoprime to bases 2 and 3
    3215031751,  # strong pseudoprime to bases 2, 3, 5 and 7
    3825123056546413051,  # to every prime base up to 31
    318665857834031151167461,  # to every prime base up to 37: the first twelve primes
    (2 ** 61 - 1) * (2 ** 31 - 1),
])
def test_is_prime_refutes_strong_pseudoprimes(n):
    assert not gf.is_prime(n)


@pytest.mark.parametrize("q,expected", [
    (10 ** 18 + 3, (10 ** 18 + 3, 1)),
    ((10 ** 9 + 7) ** 2, (10 ** 9 + 7, 2)),
    ((2 ** 61 - 1) ** 3, (2 ** 61 - 1, 3)),
    (1031 ** 7, (1031, 7)),
    (3 ** 9000, (3, 9000)),
    ((10 ** 9 + 7) * (10 ** 9 + 9), None),
    (1031 ** 7 * 1033 ** 2, None),
    (2 ** 5000 * 3, None),
])
def test_prime_power_of_large_orders(q, expected):
    if expected is None:
        with pytest.raises(gf.UsageError, match="is not a prime power$"):
            gf.prime_power(q)
    else:
        assert gf.prime_power(q) == expected


def test_prime_power_refuses_a_prime_past_the_miller_rabin_limit():
    """2^89 - 1 is prime, but past 3.3e24 the witnesses no longer decide primality; the
    limit itself is the least composite that passes all thirteen."""
    for q, root in ((2 ** 89 - 1, 2 ** 89 - 1), ((2 ** 89 - 1) ** 2, 2 ** 89 - 1),
                    (gf._WITNESS_LIMIT, gf._WITNESS_LIMIT)):
        with pytest.raises(gf.UsageError, match=f"^whether {root} is prime is not decided"):
            gf.prime_power(q)
    assert gf.prime_power(2 ** 89) == (2, 89)


def test_root_is_the_floor_root():
    rng = random.Random(5)
    for _ in range(500):
        n, e = rng.randrange(1, 10 ** rng.randrange(1, 400)), rng.randrange(1, 80)
        r = gf._root(n, e)
        assert r ** e <= n < (r + 1) ** e, (n, e)


def _mobius(n):
    mu, k = 1, 2
    while n > 1:
        if n % k == 0:
            n //= k
            if n % k == 0:
                return 0
            mu = -mu
        k += 1
    return mu


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_irreducible_count_is_gauss_formula(q):
    """Monic irreducibles of degree d over GF(q) number (1/d) sum_{k | d} mu(k) q^(d/k)
    (Lidl and Niederreiter, Finite Fields, Thm 3.25), for every d with q^d < 4096."""
    f, d = _field_of(q), 1
    while q ** d < 4096:
        count = sum(is_irreducible(f, tuple(v // q ** i % q for i in range(d)))
                    for v in range(q ** d))
        assert count * d == sum(_mobius(k) * q ** (d // k) for k in range(1, d + 1) if d % k == 0)
        d += 1


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


@pytest.mark.parametrize("kind", ["add", "mul"])
@pytest.mark.parametrize("p,degrees", [(2, [1]), (7, [1]), (3, [2]), (2, [4]), (5, [2]),
                                       (2, [2, 2]), (2, [8])])
def test_np_table_matches_the_scalar_ops(p, degrees, kind):
    """The array-kernel tables equal one scalar add or mul per cell, towers included."""
    field = make_field(p, degrees)
    table = field.np_table(kind)
    assert table.dtype == np.int64 and table.shape == (field.order, field.order)
    assert (table == scalar_op_table(field, kind)).all()


@st.composite
def digit_strings(draw):
    """(base, count, value) with value < base^count: up to 256^20 = 2^160."""
    base, count = draw(st.integers(2, 256)), draw(st.integers(0, 20))
    return base, count, draw(st.integers(0, base ** count - 1))


@settings(max_examples=300, deadline=None)
@given(digit_strings())
@example((256, 20, 256 ** 20 - 1)).via("the largest value")
@example((16, 20, 2 ** 63 + 7)).via("past int64")
def test_digits_round_trip(case):
    base, count, value = case
    digs = gf.digits(value, base, count)
    assert len(digs) == count and all(0 <= d < base for d in digs)
    assert gf.undigits(digs, base) == value


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
    assert f4.coords(3) == (1, 1)


def test_coords_linear_over_subfield(f16_tower, f4):
    """coords(a + lam*b) = coords(a) + lam*coords(b), exhaustive GF(16)/GF(4).

    A subfield element keeps its int in the tower, so lam multiplies in both fields."""
    for lam in f4.elements():
        for a in f16_tower.elements():
            for b in f16_tower.elements():
                left = f16_tower.coords(
                    f16_tower.add(a, f16_tower.mul(lam, b)))
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
        for a in f16_tower.elements():
            lhs = f16_tower.frobenius(f16_tower.mul(lam, a), 1)
            rhs = f16_tower.mul(lam, f16_tower.frobenius(a, 1))
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


# (p, tower degrees, moduli) of every field with log tables that the tests
# build, GF(4) to GF(9^5), prime subfields and towers, both parities of p
LOG_TABLE_FIELDS = [
    (2, [2], [[1, 1]]), (2, [3], [[1, 1, 0]]), (3, [2], [[1, 0]]),
    (2, [2, 2], [[1, 1], [2, 1]]), (2, [4], [[1, 1, 0, 0]]), (5, [2], [[2, 0]]),
    (3, [3], [[1, 2, 0]]), (2, [5], [[1, 0, 1, 0, 0]]), (7, [2], [[1, 0]]),
    (2, [2, 3], [[1, 1], [2, 0, 0]]), (2, [6], [[1, 1, 0, 0, 0, 0]]),
    (3, [2, 2], [[1, 0], [4, 0]]), (3, [4], [[2, 1, 0, 0]]), (2, [7], [[1, 1, 0, 0, 0, 0, 0]]),
    (13, [2], [[2, 0]]), (3, [5], [[1, 2, 0, 0, 0]]), (2, [2, 2, 2], [[1, 1], [2, 1], [8, 1]]),
    (2, [8], [[1, 1, 0, 1, 1, 0, 0, 0]]), (2, [2, 4], [[1, 1], [1, 2, 1, 0]]),
    (3, [2, 3], [[1, 0], [3, 1, 0]]), (3, [6], [[2, 1, 0, 0, 0, 0]]),
    (2, [10], [[1, 0, 0, 1, 0, 0, 0, 0, 0, 0]]), (2, [2, 5], [[1, 1], [2, 1, 0, 0, 0]]),
    (2, [11], [[1, 0, 1] + [0] * 8]), (3, [7], [[2, 0, 1, 0, 0, 0, 0]]),
    (2, [12], [[1, 0, 0, 1] + [0] * 8]), (2, [2, 6], [[1, 1], [2, 1, 1, 0, 0, 0]]),
    (2, [3, 5], [[1, 1, 0], [1, 0, 1, 0, 0]]), (3, [2, 5], [[1, 0], [4, 1, 0, 0, 0]]),
]


@pytest.mark.parametrize("p,degrees,moduli", LOG_TABLE_FIELDS,
                         ids=[f"{p}^{'x'.join(map(str, d))}" for p, d, _ in LOG_TABLE_FIELDS])
def test_log_tables_equal_the_mul_raw_chain(p, degrees, moduli):
    f = parse_field({"characteristic": p, "degrees": degrees, "moduli": moduli})
    n, g = f.order - 1, f.generator
    chain = [1]
    for _ in range(n):
        chain.append(f._mul_raw(chain[-1], g))
    assert chain.pop() == 1
    log = [2 * n] * f.order
    for i, v in enumerate(chain):
        log[v] = i
    assert f._exp == chain * 2 + [0] * (2 * n + 1)
    assert f._log == log


def test_embed_project(f16_tower, f4):
    for a in f4.elements():
        assert f16_tower.project(a) == a
    with pytest.raises(ValueError, match="subfield"):
        f16_tower.project(7)


def test_describe_parse_roundtrip(f16_tower, f9):
    for f in (f16_tower, f9):
        assert parse_field(f.describe()) == f


def test_a_field_is_built_once():
    """Every path to a field returns the one object its construction caches hold, so a
    field's identity is its equality; distinct towers of one order stay distinct."""
    for p, degrees in ((2, [1]), (2, [2]), (3, [2]), (2, [2, 2]), (5, [3])):
        f = make_field(p, degrees)
        assert f.subfield is None or f.subfield.extension(f.degree, f.modulus) is f
        assert parse_field(f.describe()) is f and make_field(p, degrees) is f
    # the explicit moduli the automatic choice picks: x^2 + 1 over GF(3), x^2 + x + 1 over GF(2)
    assert field_of_order(9) is make_field(3, [2]) is make_field(3, [1]).extension(2, (1, 0))
    assert field_of_order(4) is make_field(2, [2]) is make_field(2, [1]).extension(2, (1, 1))
    assert make_field(2, [2, 2]) != make_field(2, [4])
    assert len({make_field(2, [2, 2]), make_field(2, [4]), make_field(2, [4, 1])}) == 2


def test_parse_field_refuses_moduli_that_miss_the_degrees():
    # x^4 + x^3 + 1 with a stray modulus, which must not fall back to x^4 + x + 1
    with pytest.raises(ValueError, match="lists 2 moduli for 1 extension degrees"):
        parse_field({"characteristic": 2, "degrees": [4], "moduli": [[1, 0, 0, 1], [1, 1]]})
    assert parse_field({"characteristic": 2, "degrees": [4],
                        "moduli": [[1, 0, 0, 1]]}).modulus == (1, 0, 0, 1)


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
                                   make_field(3, [2, 2]), make_field(2, [4])], ids=repr)
def test_digitwise_add_neg_match_recursive_definition(field):
    for a in field.elements():
        assert field.neg(a) == _recursive_neg(field, a)
        for b in field.elements():
            assert field.add(a, b) == _recursive_add(field, a, b)


def test_neg_matches_recursive_definition_past_the_log_tables():
    field = make_field(3, [11])
    assert field.order > gf._LOG_LIMIT and not field.has_log_tables  # products by _mul_raw
    for a in [0, 1, 2, field.order - 1] + random.Random(11).sample(range(field.order), 200):
        assert field.neg(a) == _recursive_neg(field, a)


def _linear_map_oracle(p, images, width, value):
    """The image of a packed value, digit by digit with GF(p)'s add and mul."""
    prime = make_field(p, [1])
    out = 0
    for j in range(width):
        digit = 0
        for i, image in enumerate(images):
            digit = prime.add(digit, prime.mul(value // p ** i % p, image // p ** j % p))
        out += digit * p ** j
    return out


@st.composite
def linear_maps(draw):
    """(p, images, width, values, chunk bytes): widths up to 70 digits pass p^63 for every p."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    k = draw(st.integers(0, 6))
    width = draw(st.one_of(st.integers(0, 8), st.integers(20, 70)))
    images = draw(st.lists(st.integers(0, p ** width - 1), min_size=k, max_size=k))
    if draw(st.booleans()):
        lo = draw(st.integers(0, p ** k))
        values = range(lo, draw(st.integers(lo, min(p ** k, lo + 40))))
    else:
        values = np.array(draw(st.lists(st.integers(0, p ** k - 1), max_size=40)),
                          dtype=np.int64)
    chunk = draw(st.sampled_from([gf._CHUNK_BYTES, 1, 8 * (2 + k + 2 * width) * 3]))
    return p, images, width, values, chunk


@settings(max_examples=150, deadline=None)
@given(linear_maps())
def test_linear_map_matches_digitwise_field_arithmetic(case):
    """Chunks of one value, of three and of all; ranges and arrays; int64 and object output."""
    p, images, width, values, chunk = case
    with mock.patch.object(gf, "_CHUNK_BYTES", chunk):
        out = linear_map(p, images, width, values)
    assert out.dtype == (np.int64 if p ** width <= 1 << 63 else object)
    assert out.tolist() == [_linear_map_oracle(p, images, width, v) for v in map(int, values)]
