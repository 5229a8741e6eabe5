"""Ingredient codes: cyclic machinery, families, distance, covering radius."""

from math import gcd

import pytest

from sumrank import hamming as hm
from sumrank.gf import Field, poly_mod


def test_cyclotomic_cosets_golden():
    assert hm.cyclotomic_coset(0, 4, 15) == (0,)
    assert hm.cyclotomic_coset(1, 4, 15) == (1, 4)
    assert hm.cyclotomic_coset(1, 2, 7) == (1, 2, 4)
    with pytest.raises(ValueError, match="gcd"):
        hm.cyclotomic_coset(1, 2, 6)


@pytest.mark.parametrize("Q,nmax", [(2, 63), (3, 40), (4, 63), (5, 24)])
def test_cosets_partition(Q, nmax):
    for n in range(1, nmax + 1):
        if n % Q == 0 and Q % n != 0:
            continue
        from math import gcd
        if gcd(n, Q) != 1:
            continue
        cosets = hm.all_cyclotomic_cosets(Q, n)
        union = set()
        total = 0
        for c in cosets:
            assert union.isdisjoint(c)
            union.update(c)
            total += len(c)
        assert union == set(range(n)) and total == n


def test_cyclic_code_golden(f4):
    c = hm.cyclic_code(15, f4, [0, 1, 2])
    assert c.defining_set == (0, 1, 2, 4, 8)
    assert (c.n, c.k) == (15, 10)
    c2 = hm.cyclic_code(15, f4, [0, 1, 5])
    assert c2.defining_set == (0, 1, 4, 5)
    assert c2.k == 11
    full = hm.cyclic_code(15, f4, [])
    assert full.k == 15 and full.defining_set == ()


def test_generator_polynomial_divides_xn_minus_1(f4):
    for gens in ([0, 1, 2], [0, 1, 5], [1]):
        c = hm.cyclic_code(15, f4, gens)
        g = c.notes["generator_polynomial"]
        xn_1 = [f4.neg(1)] + [0] * 14 + [1]
        assert all(x == 0 for x in poly_mod(f4, xn_1, g))
        assert len(g) - 1 == len(c.defining_set)


def test_cyclic_code_parity_and_shifts(f4):
    c = hm.cyclic_code(15, f4, [0, 1])
    for grow in c.generator:
        assert not any(c.syndrome(grow))
        shifted = (grow[-1],) + grow[:-1]
        assert c.contains(shifted)


def test_generator_parity_orthogonal(f4, f2):
    for code in (hm.hamming_code(f4, 2), hm.cyclic_code(15, f4, [0, 1, 2]),
                 hm.bch_binary(2, 4)):
        f = code.field
        for grow in code.generator:
            assert not any(code.syndrome(grow))
        red, _ = hm.rref(f, code.generator)
        assert len(red) == code.k


def test_hamming_family(f4):
    h = hm.hamming_code(f4, 2)
    assert (h.n, h.k, h.designed_distance) == (5, 3, 3)
    assert hm.min_distance(h, "enumerate").value == 3
    with pytest.raises(ValueError):
        hm.hamming_code(f4, 1)


def test_rs_family(f4):
    rs = hm.reed_solomon(f4, 4, 1)
    assert hm.min_distance(rs, "enumerate").value == 4
    ext = hm.reed_solomon(f4, 5, 3)
    assert hm.min_distance(ext, "enumerate").value == 3
    with pytest.raises(ValueError, match="exceeds"):
        hm.reed_solomon(f4, 6, 2)


def test_trivial_families(f4):
    par = hm.parity_check_code(f4, 5)
    assert (par.n, par.k) == (5, 4)
    assert par.defining_set == (0,)
    assert hm.min_distance(par, "enumerate").value == 2
    full = hm.full_code(f4, 5)
    assert full.k == 5 and hm.min_distance(full, "enumerate").value == 1
    rep = hm.repetition_code(f4, 3)
    assert hm.min_distance(rep, "enumerate").value == 3
    z = hm.zero_code(f4, 4)
    assert z.k == 0 and z.size == 1


def test_parity_check_code_matches_cyclic_oracle(f2, f3, f4, f9):
    # the single-parity code is the cyclic code with defining set {0};
    # cyclic_code reaches it through a splitting field, kept to 2^16 here
    checked = 0
    for f in (f2, f3, f4, f9):
        for t in range(2, 31):
            if gcd(t, f.order) != 1 or f.order ** hm._multiplicative_order(f.order, t) > 1 << 16:
                continue
            par = hm.parity_check_code(f, t)
            oracle = hm.cyclic_code(t, f, [0])
            oracle.family, oracle.designed_distance = "parity", 2
            assert par.generator == oracle.generator
            assert par.parity == oracle.parity
            assert par.describe() == oracle.describe()
            checked += 1
    assert checked > 40


def test_parity_check_code_builds_no_extension(f2, f3, f4, f9, monkeypatch):
    def no_extension(*args, **kwargs):
        raise AssertionError("parity_check_code built an extension field")
    monkeypatch.setattr(Field, "extension", no_extension)
    par = hm.parity_check_code(f2, 13)
    assert (par.n, par.k, par.defining_set) == (13, 12, (0,))
    assert par.parity == ((1,) * 13,)
    for f in (f2, f3, f4, f9):
        for t in range(2, 40):
            par = hm.parity_check_code(f, t)
            assert par.defining_set == ((0,) if gcd(t, f.order) == 1 else None)
            assert all(not any(par.syndrome(row)) for row in par.generator)


def test_bch_binary(f2):
    c = hm.bch_binary(1, 3)
    assert (c.n, c.k) == (7, 4)
    assert hm.min_distance(c, "enumerate").value == 3
    c2 = hm.bch_binary(2, 4)
    assert (c2.n, c2.k) == (15, 7)
    assert hm.min_distance(c2, "enumerate").value == 5


def test_field_extension_of_code(f2, f4):
    rep = hm.repetition_code(f2, 3)
    ext = hm.field_extension_of_code(rep, f4)
    assert ext.field == f4 and ext.generator == rep.generator
    assert hm.min_distance(ext, "enumerate").value == 3
    ham = hm.bch_binary(1, 3)
    ext2 = hm.field_extension_of_code(ham, f4)
    assert hm.min_distance(ext2, "enumerate").value == 3
    full = hm.full_code(f2, 4)
    assert hm.field_extension_of_code(full, f4).k == 4
    with pytest.raises(ValueError, match="extend"):
        hm.field_extension_of_code(hm.repetition_code(f4, 3), f2)


def test_min_distance_methods_agree(f4):
    for code in (hm.hamming_code(f4, 2), hm.cyclic_code(15, f4, [0, 1, 5]),
                 hm.parity_check_code(f4, 6), hm.reed_solomon(f4, 4, 2)):
        if code.size <= 1 << 14:
            enum = hm.min_distance(code, "enumerate")
            supp = hm.min_distance(code, "support")
            if supp.exact:
                assert enum.value == supp.value
            else:
                assert enum.value >= supp.lo


def test_min_distance_support_witness(f4):
    c = hm.cyclic_code(15, f4, [0, 1, 5])
    res = hm.min_distance(c, "support")
    assert res.value == 4
    assert hm.hamming_weight(res.witness) == 4
    assert c.contains(res.witness)


def test_min_distance_budget(f4):
    c = hm.cyclic_code(15, f4, [0])
    with pytest.raises(hm.BudgetExceeded):
        hm.min_distance(c, "enumerate", budget=100)


def test_covering_radius_golden(f4):
    h = hm.hamming_code(f4, 2)
    r, table = hm.covering_radius(h)
    assert r == 1
    assert table.complete(16) and table.covering_radius == 1
    par = hm.parity_check_code(f4, 5)
    assert hm.covering_radius(par)[0] == 1
    rep = hm.repetition_code(f4, 3)
    assert hm.covering_radius(rep)[0] == 2
    assert hm.covering_radius_sweep(rep) == 2
    full = hm.full_code(f4, 3)
    assert hm.covering_radius(full)[0] == 0


def test_covering_radius_vs_sweep(f2, f4):
    for code in (hm.repetition_code(f2, 5), hm.bch_binary(1, 3),
                 hm.hamming_code(f4, 2), hm.parity_check_code(f4, 4)):
        walk, _ = hm.covering_radius(code)
        assert walk == hm.covering_radius_sweep(code)
        assert walk <= code.n


def test_covering_radius_budget(f4):
    c = hm.zero_code(f4, 9)
    with pytest.raises(hm.BudgetExceeded):
        hm.covering_radius(c, syndrome_budget=1000)


def test_bch_bound():
    assert hm.bch_bound((0, 1, 2, 4, 8), 15) == 4
    assert hm.bch_bound((0, 2, 8), 15) == 2
    assert hm.bch_bound((), 15) == 1
    assert hm.bch_bound((14, 0, 1), 15) == 4  # wraparound run
    assert hm.bch_bound(tuple(range(15)), 15) == 16


def test_hartmann_tzeng():
    assert hm.hartmann_tzeng_bound((0, 1, 4, 5), 15, [0, 1], [0, 4], 4, 1) == 4
    with pytest.raises(ValueError, match="consecutive"):
        hm.hartmann_tzeng_bound((0, 1, 4, 5), 15, [0, 4], [0], 1, 0)
    with pytest.raises(ValueError, match="defining set"):
        hm.hartmann_tzeng_bound((0, 1, 4, 5), 15, [0, 1], [0, 2], 2, 1)
    with pytest.raises(ValueError, match="gcd"):
        hm.hartmann_tzeng_bound((0, 1, 3, 5, 6, 10), 15, [5, 6], [0, 5], 5, 1)
    with pytest.raises(ValueError, match="B ="):
        hm.hartmann_tzeng_bound((0, 1, 4, 5), 15, [0, 1], [0, 3], 4, 1)


def test_bch_covering_radius_interval():
    assert hm.bch_covering_radius_interval(2, 16) == (3, 4)
    assert hm.bch_covering_radius_interval(1, 1) == (1, 2)
    assert hm.bch_covering_radius_interval(2, 15) is None
    assert 2 ** 16 >= 3 ** 10  # the exact hypothesis behind (2, 16)


def test_low_weight_pool(f4):
    c = hm.cyclic_code(15, f4, [0, 1, 5])
    pool = hm.low_weight_pool(c, 4, cap=64)
    assert pool
    assert all(c.contains(v) for v in pool)
    assert all(0 < hm.hamming_weight(v) <= 4 for v in pool)
    weights = [hm.hamming_weight(v) for v in pool]
    assert weights == sorted(weights)


def test_search_634_ingredient(f4):
    code = hm.search_634_ingredient(f4)
    assert (code.n, code.k) == (6, 3)
    assert hm.min_distance(code, "enumerate").value == 4
    assert hm.covering_radius(code)[0] == 2
