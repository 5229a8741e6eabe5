"""Ingredient codes: cyclic machinery, families, distance, covering radius."""

import math
import random
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st
from oracles import hamming_weight
from test_syndrome import linear_codes

from sumrank import certify as ct
from sumrank import construct as cs
from sumrank import hamming as hm
from sumrank import syndrome as sd
from sumrank.gf import Field, make_field, poly_mod


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
        assert c.contains_packed(grow)
        shifted = (grow[-1],) + grow[:-1]
        assert c.contains_packed(shifted)


def test_generator_parity_orthogonal(f4, f2):
    for code in (hm.hamming_code(f4, 2), hm.cyclic_code(15, f4, [0, 1, 2]),
                 hm.bch_binary(2, 4)):
        f = code.field
        for grow in code.generator:
            assert code.contains_packed(grow)
        red, _ = hm.rref(f, code.generator)
        assert len(red) == code.k


def test_hamming_family(f4):
    h = hm.hamming_code(f4, 2)
    assert (h.n, h.k, h.designed_distance) == (5, 3, 3)
    assert ct.sr_min_distance(h).value == 3
    with pytest.raises(ValueError):
        hm.hamming_code(f4, 1)


def test_rs_family(f4):
    rs = hm.reed_solomon(f4, 4, 1)
    assert ct.sr_min_distance(rs).value == 4
    ext = hm.reed_solomon(f4, 5, 3)
    assert ct.sr_min_distance(ext).value == 3
    with pytest.raises(ValueError, match="exceeds"):
        hm.reed_solomon(f4, 6, 2)


def test_trivial_families(f4):
    par = hm.parity_check_code(f4, 5)
    assert (par.n, par.k) == (5, 4)
    assert par.defining_set == (0,)
    assert ct.sr_min_distance(par).value == 2
    full = hm.full_code(f4, 5)
    assert full.k == 5 and ct.sr_min_distance(full).value == 1
    rep = hm.repetition_code(f4, 3)
    assert ct.sr_min_distance(rep).value == 3
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
            assert all(par.contains_packed(row) for row in par.generator)


@pytest.mark.parametrize("build", [
    lambda: cs.cyclic_d4(2, 4),
    lambda: cs.cyclic_d4(2, 6),
    lambda: cs.cyclic_d4(4, 2),
    lambda: cs.cyclic_d4(3, 3, 2),
    lambda: cs.cyclic_d4_alt(3, 2),
    lambda: cs.cyclic_d4_alt(5, 2),
    lambda: cs.distance_optimal_2x2(2).ingredients[0],
    lambda: cs.distance_optimal_sxs(2, 2, 2).ingredients[0],
    lambda: cs.distance_optimal_rect(2, 2, 3, 1).ingredients[0],
    lambda: hm.bch_binary(2, 5),
])
def test_systematic_cyclic_code_matches_rref(build):
    # the banded shifts of g(x), reduced by from_generator, are the oracle
    code = build()
    g = code.notes["generator_polynomial"]
    banded = [(0,) * s + tuple(g) + (0,) * (code.n - len(g) - s) for s in range(code.k)]
    oracle = hm.from_generator(code.field, banded, family=code.family,
                               designed_distance=code.designed_distance,
                               defining_set=code.defining_set)
    assert code.generator == oracle.generator
    assert code.parity == oracle.parity
    assert code.describe() == oracle.describe()


def test_bch_binary(f2):
    c = hm.bch_binary(1, 3)
    assert (c.n, c.k) == (7, 4)
    assert ct.sr_min_distance(c).value == 3
    c2 = hm.bch_binary(2, 4)
    assert (c2.n, c2.k) == (15, 7)
    assert ct.sr_min_distance(c2).value == 5


def test_field_extension_of_code(f2, f4):
    rep = hm.repetition_code(f2, 3)
    ext = hm.field_extension_of_code(rep, f4)
    assert ext.field == f4 and ext.generator == rep.generator
    assert ct.sr_min_distance(ext).value == 3
    ham = hm.bch_binary(1, 3)
    ext2 = hm.field_extension_of_code(ham, f4)
    assert ct.sr_min_distance(ext2).value == 3
    full = hm.full_code(f2, 4)
    assert hm.field_extension_of_code(full, f4).k == 4
    with pytest.raises(ValueError, match="extend"):
        hm.field_extension_of_code(hm.repetition_code(f4, 3), f2)


def test_min_distance_methods_agree(f4):
    for code in (hm.hamming_code(f4, 2), hm.cyclic_code(15, f4, [0, 1, 5]),
                 hm.parity_check_code(f4, 6), hm.reed_solomon(f4, 4, 2)):
        if code.size <= 1 << 14:
            enum, _ = sd.least_weight_word(code.field, code.generator, code.weight_blocks)
            supp = hm.min_distance(code)
            if supp.exact:
                assert enum == supp.value
            else:
                assert enum >= supp.lo


def test_min_distance_support_witness(f4):
    c = hm.cyclic_code(15, f4, [0, 1, 5])
    res = hm.min_distance(c)
    assert res.value == 4
    assert hamming_weight(res.witness) == 4
    assert c.contains_packed(res.witness)


@st.composite
def small_codes(draw, max_size=4096):
    """Codes of length <= 8 over GF(2), GF(3), GF(4), GF(5), codim 0 to n, Q^k <= max_size."""
    field = cs.field_of_order(draw(st.sampled_from([2, 3, 4, 5])))
    n = draw(st.integers(1, 8))
    return draw(linear_codes(field, n, int(math.log(max_size, field.order) + 1e-9)))


@settings(max_examples=150, deadline=None)
@given(small_codes())
@example(hm.full_code(cs.field_of_order(3), 5))
def test_support_search_yields_every_low_weight_codeword(code):
    words = code.codeword_list()
    for w in range(1, min(4, code.n) + 1):
        found = list(hm.iter_low_weight(code, w))
        assert len(found) == len(set(found))
        assert set(found) == {v for v in words if hamming_weight(v) == w}
    if code.k == 0:
        return
    d = min(hamming_weight(v) for v in words if any(v))
    res = hm.min_distance(code)
    if d <= 4:
        assert (res.lo, res.hi) == (d, d)
        assert hamming_weight(res.witness) == d and code.contains_packed(res.witness)
    else:
        assert res.lo >= 5 and res.witness is None


def test_covering_radius_golden(f4):
    h = hm.hamming_code(f4, 2)
    r, table = hm.covering_radius(h)
    assert r == 1
    assert len(table.leaders) == 16 and table.radius == 1
    par = hm.parity_check_code(f4, 5)
    assert hm.covering_radius(par)[0] == 1
    rep = hm.repetition_code(f4, 3)
    assert hm.covering_radius(rep)[0] == 2
    assert ct.sr_covering_radius_sweep(rep)[0] == 2
    full = hm.full_code(f4, 3)
    assert hm.covering_radius(full)[0] == 0


def test_covering_radius_vs_sweep(f2, f4):
    for code in (hm.repetition_code(f2, 5), hm.bch_binary(1, 3),
                 hm.hamming_code(f4, 2), hm.parity_check_code(f4, 4)):
        walk, _ = hm.covering_radius(code)
        assert walk == ct.sr_covering_radius_sweep(code)[0]
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
    assert all(c.contains_packed(v) for v in pool)
    assert all(0 < hamming_weight(v) <= 4 for v in pool)
    weights = [hamming_weight(v) for v in pool]
    assert weights == sorted(weights)


def test_search_634_ingredient(f4):
    code = hm.search_634_ingredient(f4)
    assert (code.n, code.k) == (6, 3)
    assert ct.sr_min_distance(code).value == 4
    assert hm.covering_radius(code)[0] == 2


# ----------------------------------------------------------------------
# rref / nullspace against row-by-row Gauss-Jordan elimination
# ----------------------------------------------------------------------

def _rref_oracle(field, rows):
    """Gauss-Jordan elimination one entry at a time, with scalar field ops."""
    mat = [list(r) for r in rows]
    if not mat:
        return [], []
    ncols = len(mat[0])
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = field.inv(mat[r][c])
        mat[r] = [field.mul(inv, x) for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [field.sub(mat[i][j], field.mul(f, mat[r][j]))
                          for j in range(ncols)]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return [tuple(row) for row in mat[:r]], pivots


def _nullspace_oracle(field, rows, ncols):
    red, pivots = _rref_oracle(field, rows)
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        vec = [0] * ncols
        vec[f] = 1
        for row, p in zip(red, pivots):
            vec[p] = field.neg(row[f])
        basis.append(tuple(vec))
    return basis


# GF(181), GF(169) and GF(128) sit at the top of the int16 elimination
# (hm.INT16_ORDER): the largest prime products, odd-p log sums and digit sums
RREF_FIELDS = [make_field(2, [1]), make_field(3, [1]), make_field(5, [1]),
               make_field(2, [2]), make_field(2, [3]), make_field(3, [2]),
               make_field(5, [2]), make_field(2, [2, 2]),
               make_field(181, [1]), make_field(13, [2]), make_field(2, [7])]


@st.composite
def matrices(draw, fields=RREF_FIELDS):
    """Up to 12 rows by 1 to 16 columns: random, zero, repeated and combined rows."""
    field = draw(st.sampled_from(fields))
    ncols = draw(st.integers(1, 16))
    scalar = st.integers(0, field.order - 1)
    entry = st.one_of(st.just(0), scalar)
    rows = []
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(["random", "zero", "repeat", "combine"] if rows
                                    else ["random", "zero"]))
        if kind == "random":
            rows.append(tuple(draw(st.lists(entry, min_size=ncols, max_size=ncols))))
        elif kind == "zero":
            rows.append((0,) * ncols)
        elif kind == "repeat":
            rows.append(draw(st.sampled_from(rows)))
        else:
            a, b = draw(scalar), draw(scalar)
            x, y = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            rows.append(tuple(field.add(field.mul(a, u), field.mul(b, v))
                              for u, v in zip(x, y)))
    return field, rows, ncols


def _assert_matches_oracle(field, rows, ncols):
    red, pivots = hm.rref(field, rows)
    assert (red, pivots) == _rref_oracle(field, rows)
    assert all(type(x) is int for row in red for x in row)
    assert all(type(c) is int for c in pivots)
    basis = hm.nullspace(field, rows, ncols)
    assert basis == _nullspace_oracle(field, rows, ncols)
    assert all(type(x) is int for row in basis for x in row)
    assert hm.nullspace(field, red, ncols, reduced=True) == basis


@settings(max_examples=200, deadline=None)
@given(matrices())
def test_rref_and_nullspace_match_oracle(case):
    _assert_matches_oracle(*case)


@pytest.mark.parametrize("p,degree", [(2, 17), (3, 11)])
def test_rref_over_fields_without_log_tables(p, degree):
    # these fields multiply through field.mul, one entry at a time
    field = make_field(p, [degree])
    assert not field.has_log_tables
    rng = random.Random(degree)
    for nrows, ncols in ((3, 5), (5, 4), (4, 7)):
        rows = [tuple(rng.randrange(field.order) for _ in range(ncols))
                for _ in range(nrows)]
        c = rng.randrange(1, field.order)
        rows += [tuple(field.mul(c, x) for x in rows[0]), (0,) * ncols]
        _assert_matches_oracle(field, rows, ncols)
