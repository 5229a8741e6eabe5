"""Ingredient codes: cyclic machinery, families, distance, covering radius."""

import hashlib
import itertools
import math
import random
import time
from math import gcd

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from oracles import (code_size, contains_packed, generator_polynomial, hamming_weight,
                     hartmann_tzeng_bound, low_weight_words)
from test_syndrome import linear_codes

from sumrank import certify as ct
from sumrank import construct as cs
from sumrank import hamming as hm
from sumrank import syndrome as sd
from sumrank.gf import Field, make_field, poly_mod


def test_coset_of_one_has_the_multiplicative_order():
    """len(C_1) = ord_n(Q), the length of the splitting field GF(Q^l) of x^n - 1."""
    for Q in range(2, 17):
        for n in range(1, 257):
            if gcd(n, Q) == 1:
                order = next(e for e in range(1, n + 1) if pow(Q, e, n) == 1 % n)
                assert len(hm.cyclotomic_coset(1, Q, n)) == order, (Q, n)


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
        cosets = {hm.cyclotomic_coset(i, Q, n) for i in range(n)}
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
        g = generator_polynomial(c)
        xn_1 = [f4.neg(1)] + [0] * 14 + [1]
        assert all(x == 0 for x in poly_mod(f4, xn_1, g))
        assert len(g) - 1 == len(c.defining_set)
        # the parity is [R^T | I_r], column 0 the coefficients of x^r mod g = -(g_0..g_(r-1))
        assert [f4.neg(int(x)) for x in c.parity[:, 0]] + [1] == g


def test_cyclic_code_parity_and_shifts(f4):
    c = hm.cyclic_code(15, f4, [0, 1])
    for grow in c.generator:
        assert contains_packed(c, grow)
        shifted = (grow[-1],) + grow[:-1]
        assert contains_packed(c, shifted)


def test_generator_parity_orthogonal(f4, f2):
    for code in (hm.hamming_code(f4, 2), hm.cyclic_code(15, f4, [0, 1, 2]),
                 hm.bch_binary(2, 4)):
        f = code.field
        for grow in code.generator:
            assert contains_packed(code, grow)
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
    assert z.k == 0 and code_size(z) == 1


def test_parity_check_code_matches_cyclic_oracle(f2, f3, f4, f9):
    # the single-parity code is the cyclic code with defining set {0};
    # cyclic_code reaches it through a splitting field, kept to 2^16 here
    checked = 0
    for f in (f2, f3, f4, f9):
        for t in range(2, 31):
            if gcd(t, f.order) != 1 or f.order ** len(hm.cyclotomic_coset(1, f.order, t)) > 1 << 16:
                continue
            par = hm.parity_check_code(f, t)
            oracle = hm.cyclic_code(t, f, [0])
            oracle.family, oracle.designed_distance = "parity", 2
            assert par.generator == oracle.generator
            assert np.array_equal(par.parity, oracle.parity)
            assert par.describe() == oracle.describe()
            checked += 1
    assert checked > 40


def test_parity_check_code_builds_no_extension(f2, f3, f4, f9, monkeypatch):
    def no_extension(*args, **kwargs):
        raise AssertionError("parity_check_code built an extension field")
    monkeypatch.setattr(Field, "extension", no_extension)
    par = hm.parity_check_code(f2, 13)
    assert (par.n, par.k, par.defining_set) == (13, 12, (0,))
    assert par.parity.tolist() == [[1] * 13]
    for f in (f2, f3, f4, f9):
        for t in range(2, 40):
            par = hm.parity_check_code(f, t)
            assert par.defining_set == ((0,) if gcd(t, f.order) == 1 else None)
            assert all(contains_packed(par, row) for row in par.generator)


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
    g = generator_polynomial(code)
    banded = [(0,) * s + tuple(g) + (0,) * (code.n - len(g) - s) for s in range(code.k)]
    oracle = hm.from_generator(code.field, banded, family=code.family,
                               designed_distance=code.designed_distance)
    oracle.defining_set = code.defining_set  # from_generator takes no defining set
    assert code.generator == oracle.generator
    assert np.array_equal(code.parity, oracle.parity)
    assert code.describe() == oracle.describe()


# ----------------------------------------------------------------------
# the generator derived from the parity
# ----------------------------------------------------------------------

@st.composite
def independent_rows(draw):
    """Over GF(2), GF(3), GF(4) or GF(9): 1 to 6 independent rows of length 1 to 9."""
    field = draw(st.sampled_from([make_field(2, [1]), make_field(3, [1]),
                                  make_field(2, [2]), make_field(3, [2])]))
    n = draw(st.integers(1, 9))
    entry = st.one_of(st.just(0), st.integers(0, field.order - 1))
    rows = []
    for _ in range(draw(st.integers(1, min(n, 6)))):
        row = tuple(draw(st.lists(entry, min_size=n, max_size=n)))
        if len(hm.rref(field, rows + [row])[0]) > len(rows):
            rows.append(row)
    assume(rows)
    return field, rows


def _tuples(red):
    """The rows of an `rref` array as a tuple of int tuples, a generator's form."""
    return tuple(map(tuple, red.tolist()))


@settings(max_examples=200, deadline=None)
@given(independent_rows())
def test_from_generator_derives_the_rref(case):
    field, rows = case
    assert hm.from_generator(field, rows).generator == _tuples(hm.rref(field, rows)[0])


def test_builders_derive_the_generators_they_built_before(f2, f3, f4, f9):
    # each builder used to write its generator by its own formula: the RREF of
    # the code, and nullspace(RREF(parity)) for the Hamming codes
    for f in (f2, f3, f4, f9):
        minus_one = f.neg(1)
        for t in range(1, 8):
            unit = [tuple(int(j == i) for j in range(t)) for i in range(t)]
            assert hm.full_code(f, t).generator == tuple(unit)
            assert hm.zero_code(f, t).generator == ()
            assert hm.repetition_code(f, t).generator == ((1,) * t,)
            if t >= 2:
                assert hm.parity_check_code(f, t).generator == tuple(
                    u[:-1] + (minus_one,) for u in unit[:-1])
        for t in range(1, f.order + 2):
            pts = list(range(min(t, f.order)))
            for k in range(1, t + 1):
                rows = [[f.pow(x, j) for x in pts] + ([int(j == k - 1)] if t > f.order else [])
                        for j in range(k)]
                assert hm.reed_solomon(f, t, k).generator == _tuples(hm.rref(f, rows)[0])
        for u in (2, 3):
            code = hm.hamming_code(f, u)
            assert code.generator == tuple(hm.nullspace(f, code.parity, code.n))
        for n in range(2, 16):
            if gcd(n, f.order) != 1 or f.order ** len(hm.cyclotomic_coset(1, f.order, n)) > 1 << 12:
                continue
            for coset in {hm.cyclotomic_coset(i, f.order, n) for i in range(n)}:
                if len(coset) == n:
                    continue
                code = hm.cyclic_code(n, f, [coset[0]])
                g = generator_polynomial(code)
                banded = [(0,) * s + tuple(g) + (0,) * (n - len(g) - s) for s in range(code.k)]
                assert code.generator == _tuples(hm.rref(f, banded)[0])
    for e, n in ((1, 3), (2, 4), (1, 5), (3, 5)):
        code = hm.bch_binary(e, n)
        g = generator_polynomial(code)
        banded = [(0,) * s + tuple(g) + (0,) * (code.n - len(g) - s) for s in range(code.k)]
        assert code.generator == _tuples(hm.rref(f2, banded)[0])


def test_builders_write_read_only_int64_parity(f2, f3, f4, f9):
    codes = [hm.zero_code(f4, 3), hm.full_code(f3, 4), hm.hamming_code(f4, 2),
             hm.hamming_code(f3, 3), hm.cyclic_code(13, f3, [1]), hm.cyclic_code(1, f2, []),
             hm.reed_solomon(f9, 5, 2), hm.repetition_code(f4, 3), hm.parity_check_code(f2, 5),
             hm.bch_binary(2, 4), hm.search_634_ingredient(f4),
             hm.from_generator(f4, hm.hamming_code(f2, 3).generator),
             hm.from_generator(f3, [(1, 2, 0)])]
    for code in codes:
        parity = code.parity
        assert isinstance(parity, np.ndarray) and parity.dtype == np.int64, code
        assert parity.shape == (code.n - code.k, code.n) and not parity.flags.writeable, code
        assert code.flat_parity is parity


_PAST_INT64 = hm.from_generator(cs.field_of_order(2),
                                [(1,) + (0,) * 68 + (1,), (0, 1, 1) + (0,) * 67])


def test_support_search_keeps_syndromes_past_int64(f2):
    """At codim 68, q^codim > 2^63: the weight-1 syndromes are Python ints, none wraps."""
    code = _PAST_INT64
    assert code.n - code.k == 68
    assert sd.scaled_syndromes(f2, code.parity, f2.elements()).dtype == object
    for w in (2, 3, 4):
        assert set(hm.iter_low_weight(code, w)) == low_weight_words(code, w)
    assert hm.min_distance(code).value == 2


@st.composite
def unit_parities(draw):
    """[A | I] over GF(2), GF(3), GF(4) or GF(9), of length <= 10 and codim 1 to n."""
    field = cs.field_of_order(draw(st.sampled_from([2, 3, 4, 9])))
    n = draw(st.integers(1, 10))
    r = draw(st.integers(1, n))
    a = draw(st.lists(st.integers(0, field.order - 1), min_size=r * (n - r),
                      max_size=r * (n - r)))
    parity = np.hstack([np.array(a, dtype=np.int64).reshape(r, n - r), np.eye(r, dtype=np.int64)])
    return hm.LinearCode(field, n, parity)


@pytest.mark.seeded
@settings(max_examples=60, deadline=None)
@given(unit_parities())
def test_support_search_yields_the_brute_force_words(code):
    """The lookup yields each codeword of weight w whose first nonzero entry is 1 exactly
    once, as a brute-force pass over `codeword_list` finds them, for w = 1..5 (1..4 over
    GF(9), whose C(n, 3) * 8^2 weight-5 prefixes would dominate the run)."""
    assume(code_size(code) <= 1 << 10)
    for w in range(1, 5 if code.field.order == 9 else 6):
        found = list(hm.iter_low_weight(code, w))
        assert len(found) == len(set(found)) and set(found) == low_weight_words(code, w), w


@st.composite
def small_cyclic_codes(draw):
    """Cyclic codes over GF(2), GF(3) or GF(4) of length <= 21 prime to q, whose roots lie in
    a field of the built-in table, from a random set of coset leaders, with q^codim <= 2^12
    so that the DP is quick."""
    field = cs.field_of_order(draw(st.sampled_from([2, 3, 4])))
    q = field.order
    n = draw(st.sampled_from([n for n in range(2, 22) if gcd(n, q) == 1
                              and q ** len(hm.cyclotomic_coset(1, q, n)) <= 1 << 20]))
    leaders = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3))
    T = {r for g in leaders for r in hm.cyclotomic_coset(g, q, n)}
    assume(len(T) < n and q ** len(T) <= 1 << 12)
    return hm.cyclic_code(n, field, leaders)


@pytest.mark.seeded
@settings(max_examples=60, deadline=None)
@given(small_cyclic_codes() | unit_parities().filter(lambda c: c.field.order < 9))
def test_lookup_distance_is_the_dps(code):
    """On random small cyclic codes and [A | I] codes over GF(2), GF(3) and GF(4): the
    support search's d, where it is at most 4, and the word it finds at the structure's lower
    end are the DP's d; every word it yields is a codeword of its weight; and on a cyclic code,
    the search through c_0 = 1 finds a word of weight w exactly when the search through every
    first position does (the same parity without its defining set)."""
    assume(code.k > 0 and code.field.order ** (code.n - code.k) <= 1 << 12)
    d = code.syndrome_dp.distance
    res = hm.min_distance(code)
    assert res.lo <= d <= res.hi and (res.exact or res.lo == 5)
    if res.exact:
        assert res.value == d == code.word_weight(res.witness)
    bounds = list(code.distance_bounds(None))
    if len(bounds) == 2:
        assert bounds[1].hi == code.proven.d_lo == d == code.word_weight(bounds[1].witness)
    everywhere = hm.LinearCode(code.field, code.n, code.parity)
    for w in range(1, 5):
        words = list(itertools.islice(hm.iter_low_weight(code, w), 50))
        assert all(contains_packed(code, v) and hamming_weight(v) == w for v in words)
        assert bool(words) == any(True for _ in hm.iter_low_weight(everywhere, w)), w


def test_support_search_witness_is_pinned():
    """The certificate of cyclic-d4-alt q=3 m=5 holds the support search's first weight-4
    word through c_0 = 1 as its witness, after the weight-3 search through c_0 = 1 finds none
    (its BCH end is 3)."""
    table = ct.certify_code(cs.cyclic_d4_alt(3, 5), "distance-optimal").to_table()
    assert hashlib.sha256(table.encode()).hexdigest() == (
        "0feeef0a042db292e6455b71aa1ef59bb285b1096ebb808c79a60ea69850293a")


def test_a_search_cut_short_by_the_enum_budget_is_an_interval():
    """The binary BCH [31, 21, 5] code, held without its defining set, has no theorem, so
    with the DP and enumeration off the support search starts at weight 1.  With 400 lookups
    it ends its searches at weights 1 and 2 and finds no word, and at weight 3 the budget
    covers 12 of its 31 prefixes of 31 lookups each, which hold no word either: d is the
    interval [3, 6], 6 from sphere packing, whose stop names the count, not an error (the
    half-word search of earlier versions refused weight 3 at this budget too, with
    C(31, 2) = 465 > 400)."""
    code = hm.from_generator(cs.field_of_order(2), hm.bch_binary(2, 5).generator)
    res = ct.sr_min_distance(code, ct.Budgets(enum=400, syndrome=0))
    assert (res.lo, res.hi, res.method) == (3, 6, "support_test / sphere packing")
    assert res.stops[-1] == "enum budget 400 < 961 syndrome lookups of the weight-3 support search"
    assert 31 * 31 == 961 and 400 // 31 == 12


@pytest.mark.parametrize("parity", [
    ((1, 1, 0), (1, 1, 0)),  # two equal rows: no column is e_0 or e_1
    ((1, 1, 0), (1, 2, 1)),  # only row 1 has its unit column
    ((2, 0, 2),),            # a column 2 * e_0 is not e_0
], ids=["equal-rows", "no-unit-column", "scaled-unit"])
def test_parity_without_unit_columns_raises(f3, parity):
    with pytest.raises(ValueError, match="has no column equal to its unit vector"):
        hm.LinearCode(f3, 3, parity)


def test_size_gate_guards_the_generator_only(f2, monkeypatch):
    monkeypatch.setattr(hm, "DENSE_CELL_LIMIT", 7 * 8 - 1)
    code = hm.cyclic_code(15, f2, [1])  # [15, 11]: 165 cells
    assert code.k == 11 and hm.covering_radius(code)[0] == 1
    with pytest.raises(ValueError, match="k\\*n = 165 cells, above DENSE_CELL_LIMIT = 55"):
        code.generator


def test_bch_binary(f2):
    c = hm.bch_binary(1, 3)
    assert (c.n, c.k) == (7, 4)
    assert ct.sr_min_distance(c).value == 3
    c2 = hm.bch_binary(2, 4)
    assert (c2.n, c2.k) == (15, 7)
    assert ct.sr_min_distance(c2).value == 5


def test_min_distance_methods_agree(f4):
    for code in (hm.hamming_code(f4, 2), hm.cyclic_code(15, f4, [0, 1, 5]),
                 hm.parity_check_code(f4, 6), hm.reed_solomon(f4, 4, 2)):
        if code_size(code) <= 1 << 14:
            enum, _ = sd.least_weight_word(code.field, code.generator, code.profile.blocks)
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
    assert contains_packed(c, res.witness)


def test_support_search_starts_at_the_proven_weight(monkeypatch):
    """No word is lighter than the structure proves, so the search makes no lookups below
    it: the [15,10]_4 cyclic-d4 code (BCH end 4) is searched at weight 4 only, and the binary
    BCH code of designed distance 5 at no weight."""
    weights, search = [], hm.iter_low_weight
    monkeypatch.setattr(hm, "iter_low_weight",
                        lambda code, w, *args: weights.append(w) or search(code, w, *args))
    code = cs.cyclic_d4(4, 2)
    assert code.proven.d_lo == 4 and hm.min_distance(code).value == 4
    assert weights == [4]
    weights.clear()
    bch = hm.bch_binary(2, 4)
    assert bch.proven.d_lo == 5
    assert (hm.min_distance(bch).lo, weights) == (5, [])


def test_each_weight_is_searched_once_per_budget(monkeypatch):
    """cyclic-d4-alt q=3 m=5 has BCH end 3 and d = 4.  With the DP off, d's structure source
    searches weight 3 before the engines and finds no word; the support search after them
    reads that search's result (`LinearCode.first_word`) and searches weight 4 only."""
    weights, search = [], hm.iter_low_weight
    monkeypatch.setattr(hm, "iter_low_weight",
                        lambda code, w, *args: weights.append(w) or search(code, w, *args))
    code = cs.cyclic_d4_alt(3, 5)
    res = ct.sr_min_distance(code, ct.Budgets(syndrome=0))
    assert (code.proven.d_lo, res.lo, res.hi, res.method) == (3, 4, 4, "support_test")
    assert weights == [3, 4]


def test_a_singleton_point_forms_no_generator():
    """The [8193, 8192, 2]_4 parity code is cyclic with T = {0}.  With every engine off, the
    parity family's theorem states its Singleton end 2 before any engine or the BCH bound is
    read: a point witnessed by `first_row`, of weight 2, with no 8192 x 8193 generator formed
    (the size gate refuses it)."""
    code = hm.parity_check_code(cs.field_of_order(4), 8193)
    start = time.perf_counter()
    res = ct.sr_min_distance(code, ct.Budgets(enum=0, syndrome=0))
    assert time.perf_counter() - start < 1
    assert (res.lo, res.hi, res.method) == (2, 2, "parity")
    assert hamming_weight(res.witness) == 2 and contains_packed(code, res.witness)
    assert "generator" not in code.__dict__
    with pytest.raises(ValueError, match="size gate"):
        _ = code.generator


@st.composite
def small_codes(draw, max_size=4096):
    """Codes of length <= 8 over GF(2), GF(3), GF(4), GF(5), codim 0 to n, Q^k <= max_size."""
    field = cs.field_of_order(draw(st.sampled_from([2, 3, 4, 5])))
    n = draw(st.integers(1, 8))
    return draw(linear_codes(field, n, int(math.log(max_size, field.order) + 1e-9)))


@settings(max_examples=150, deadline=None)
@given(small_codes())
@example(hm.zero_code(cs.field_of_order(2), 3))
@example(hm.reed_solomon(cs.field_of_order(9), 10, 4))
def test_first_row_is_the_generators_first_row(code):
    """`first_row`, from one parity column, is `generator[0]` (None for the zero code): a
    codeword of weight at most n - k + 1, and exactly that in an MDS code."""
    row = code.first_row
    assert row == (code.generator[0] if code.k else None)
    if code.k:
        assert contains_packed(code, row) and hamming_weight(row) <= code.singleton
    if code.family == "reed-solomon":
        assert hamming_weight(row) == code.n - code.k + 1


@settings(max_examples=150, deadline=None)
@given(small_codes())
@example(hm.full_code(cs.field_of_order(3), 5))
def test_support_search_yields_every_low_weight_codeword(code):
    words = code.codeword_list()
    for w in range(1, min(4, code.n) + 1):
        found = list(hm.iter_low_weight(code, w))
        assert len(found) == len(set(found))
        assert set(found) == low_weight_words(code, w)
    if code.k == 0:
        return
    d = min(hamming_weight(v) for v in words if any(v))
    res = hm.min_distance(code)
    if d <= 4 or res.exact:  # past 4, a point is d = n - k + 1, shown by a generator row
        assert (res.lo, res.hi) == (d, d)
        assert hamming_weight(res.witness) == d and contains_packed(code, res.witness)
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
        hm.covering_radius(c, sd.Budgets(syndrome=1000))


def test_bch_bound():
    assert hm.bch_bound((0, 1, 2, 4, 8), 15) == (4, "bch")
    assert hm.bch_bound((0, 2, 8), 15) == (3, "hartmann-tzeng")  # run {0}, unit step 2
    assert hm.bch_bound((), 15) == (1, "bch")
    assert hm.bch_bound((14, 0, 1), 15) == (4, "bch")  # wraparound run
    assert hm.bch_bound(tuple(range(15)), 15) == (16, "bch")
    # distance-optimal-2x2's T = {0, 1, Q, Q+1} mod Q^2 - 1: run {0, 1}, step Q
    for q in (2, 3, 4, 5, 7, 8, 9, 11):
        Q = q * q
        assert hm.bch_bound((0, 1, Q, Q + 1), Q * Q - 1) == (4, "hartmann-tzeng")


def _splitting_lengths(q: int) -> list[int]:
    """Lengths 2..21 coprime to q whose splitting field GF(q^ord_n(q)) has <= 2^12 elements."""
    return [n for n in range(2, 22) if gcd(n, q) == 1
            and q ** len(hm.cyclotomic_coset(1, q, n)) <= 1 << 12]


@st.composite
def coset_unions(draw):
    """(q, n, generators, T): T the union of the q-cyclotomic cosets mod n of `generators`."""
    q = draw(st.sampled_from([2, 3, 4, 5]))
    n = draw(st.sampled_from(_splitting_lengths(q)))
    cosets = sorted({hm.cyclotomic_coset(i, q, n) for i in range(n)})
    chosen = draw(st.lists(st.sampled_from(cosets), unique=True))
    return q, n, [c[0] for c in chosen], tuple(sorted(set().union(*chosen)))


def _brute_hartmann_tzeng(T, n: int) -> tuple[int, int]:
    """(the largest bound, the largest with s = 0 and b = 1): every run A of T, every step b
    in 1..n-1 and every s that `hartmann_tzeng_bound` certifies."""
    if len(T) == n:
        return n + 1, n + 1
    best = run = 1
    for a in T:
        for L in range(1, n):
            A = [(a + i) % n for i in range(L)]
            if not set(A) <= set(T):
                break
            run = max(run, hartmann_tzeng_bound(T, n, A, [0], 1, 0))
            for b in range(1, n):
                for s in range(n):
                    try:
                        best = max(best, hartmann_tzeng_bound(
                            T, n, A, [j * b for j in range(s + 1)], b, s))
                    except ValueError:
                        break
    return best, run


@given(coset_unions())
@settings(max_examples=150, deadline=None)
@example((3, 2, [0], (0,)))  # a step of gcd L + 1 would repeat the run forever
@example((4, 15, [0, 1, 5], (0, 1, 4, 5)))  # distance-optimal-2x2 q=2
@example((4, 15, [0, 2], (0, 2, 8)))  # run {0}, step 2
def test_bch_bound_is_the_hartmann_tzeng_search(case):
    """The search equals the brute-force maximum over every (A, b, s) the oracle certifies,
    is at least the run bound, is labelled `bch` exactly when a run attains it, and is at
    most the exact d of the cyclic code, where it builds and its q^codim fits the DP; each
    search takes under 1 s."""
    q, n, generators, T = case
    start = time.perf_counter()
    bound, source = hm.bch_bound(T, n)
    assert time.perf_counter() - start < 1
    best, run = _brute_hartmann_tzeng(T, n)
    assert bound == best >= run
    assert source == ("bch" if run == bound else "hartmann-tzeng")
    if len(T) < n and q ** len(T) <= 1 << 16:
        code = hm.cyclic_code(n, cs.field_of_order(q), generators)
        assert code.defining_set == T
        assert bound <= code.syndrome_dp.distance


def test_bch_bound_is_one_pass_on_a_dense_defining_set():
    """240 of the 255 residues mod 255, all but the multiples of 17, in one pass per (start,
    step) under 1 s; the brute-force search above is too slow at this n.  The code's spectrum
    lies on the multiples of 17, so each codeword repeats a word of length 15 seventeen
    times and d = 17, which the runs of 16 attain: the bound is exactly BCH's 17."""
    T = tuple(x for x in range(255) if x % 17)
    start = time.perf_counter()
    assert hm.bch_bound(T, 255) == (17, "bch")
    assert time.perf_counter() - start < 1
    code = hm.cyclic_code(255, make_field(2, [1]), T)
    assert (code.defining_set, code.k) == (T, 15)
    assert ct.sr_min_distance(code).value == 17


def test_hartmann_tzeng():
    assert hartmann_tzeng_bound((0, 1, 4, 5), 15, [0, 1], [0, 4], 4, 1) == 4
    assert hartmann_tzeng_bound((14, 0, 1), 15, [14, 0, 1], [0], 1, 0) == 4  # wraparound run
    with pytest.raises(ValueError, match="consecutive"):
        hartmann_tzeng_bound((0, 1, 4, 5), 15, [0, 4], [0], 1, 0)
    with pytest.raises(ValueError, match="consecutive"):
        hartmann_tzeng_bound((0, 1, 14), 15, [0, 1, 14], [0], 1, 0)  # not in run order
    with pytest.raises(ValueError, match="defining set"):
        hartmann_tzeng_bound((0, 1, 4, 5), 15, [0, 1], [0, 2], 2, 1)
    with pytest.raises(ValueError, match="gcd"):
        hartmann_tzeng_bound((0, 1, 3, 5, 6, 10), 15, [5, 6], [0, 5], 5, 1)
    with pytest.raises(ValueError, match="B ="):
        hartmann_tzeng_bound((0, 1, 4, 5), 15, [0, 1], [0, 3], 4, 1)


def test_bch_covering_radius_interval():
    assert hm.bch_covering_radius_interval(2, 16) == (3, 4)
    assert hm.bch_covering_radius_interval(1, 1) == (1, 2)
    assert hm.bch_covering_radius_interval(2, 15) is None
    assert 2 ** 16 >= 3 ** 10  # the exact hypothesis behind (2, 16)


def test_bch_covering_radius_interval_is_the_exact_comparison():
    """The bit-length decision agrees with 2^n >= (2e-1)^(4e+2) for every e <= 40, n <= 400."""
    for e in range(1, 41):
        for n in range(1, 401):
            holds = 2 ** n >= (2 * e - 1) ** (4 * e + 2)
            assert hm.bch_covering_radius_interval(e, n) == ((2 * e - 1, 2 * e) if holds else None)


def test_low_weight_pool(f4):
    c = hm.cyclic_code(15, f4, [0, 1, 5])
    pool = hm.low_weight_pool(c, 4, cap=64)
    assert pool
    assert all(contains_packed(c, v) for v in pool)
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


# GF(181), GF(169) and GF(128) are the largest orders drawn: they give the int64
# elimination its largest prime products, odd-p log sums and digit sums
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
    assert (list(_tuples(red)), pivots) == _rref_oracle(field, rows)
    assert red.dtype == np.int64 and red.ndim == 2
    assert all(type(c) is int for c in pivots)
    basis = hm.nullspace(field, rows, ncols)
    assert basis == _nullspace_oracle(field, rows, ncols)
    assert all(type(x) is int for row in basis for x in row)
    assert hm.nullspace(field, red, ncols, pivots=pivots) == basis


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
