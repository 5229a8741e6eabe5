"""Exact invariants, bound evaluators, verdicts, and certificates."""

import hashlib
import importlib.util
import json
import math
import re
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from sumrank import certify as ct
from sumrank import construct as cs
from sumrank import hamming as hm
from sumrank import spaces as sp
from sumrank import cli
from sumrank.cli import build_parser, main, parse_params
from sumrank.syndrome import SrDistance, SumRankCode, budget_stop, least_weight_word

from oracles import (blf_relation_check, blf_witness, code_size, contains_packed, counting,
                     generator_parity, hamming_weight, singleton_full, singleton_walk,
                     size_bound_from_witness, sphere_packing_full)


@pytest.fixture(scope="module")
def qp_code():
    return cs.quasi_perfect_2xm(2, 2, 2)


@pytest.fixture(scope="module")
def am_code():
    return cs.almost_msrd_2x2(2, 4)


def test_sr_min_distance_exhaustive(qp_code, am_code):
    """The DP's own d and word; `sr_min_distance` reads the composition's [3, 4] first, and
    the DP closes it at 3."""
    dp = qp_code.budgeted_dp()
    assert dp.distance == 3
    assert sp.sum_rank_weight(qp_code.to_word(dp.witness)) == 3
    d = ct.sr_min_distance(qp_code)
    assert (d.value, d.method, d.witness) == (
        3, "composition(linearized: 3 hamming, 2 parity) / syndrome-dp", dp.witness)
    assert am_code.budgeted_dp().distance == ct.sr_min_distance(am_code).value == 4


def test_sr_min_distance_exhaustive_below_syndrome_budget(qp_code):
    """A syndrome budget below q^codim = 64 sends d to exhaustive enumeration, which closes
    the composition's [3, 4] at 3 with the first least-weight word."""
    weight, word = least_weight_word(qp_code.base, qp_code._generator_rows_packed(),
                                     qp_code.profile.blocks)
    assert weight == 3
    assert sp.sum_rank_weight(qp_code.to_word(word)) == 3
    assert contains_packed(qp_code, word)
    d = ct.sr_min_distance(qp_code, ct.Budgets(syndrome=63))
    assert (d.value, d.method, d.witness) == (
        3, "composition(linearized: 3 hamming, 2 parity) / exhaustive", word)


def test_sr_min_distance_interval_names_budgets(qp_code):
    d = ct.sr_min_distance(qp_code, ct.Budgets(enum=10, syndrome=2))
    # past both budgets, the ingredients' theorems give the lower end, and the upper end 4 is
    # the parity ingredient's weight-2 word alone in its row, 2 rows of rank 2 per position,
    # which sphere packing's V_sr(2) > 2^6 ties after it
    parity = qp_code.ingredients[1]
    assert (d.lo, d.hi) == (3, 2 * hamming_weight(parity.generator[0])) == (3, 4)
    assert not d.exact
    assert d.method == "composition(linearized: 3 hamming, 2 parity)"
    assert d.stops == ("syndrome budget 2 < 2^6 syndromes (q^codim)",
                       "enum budget 10 < 2^14 codewords (q^dim)")


def test_sr_min_distance_zero_code(f4):
    z = hm.zero_code(f4, 3)
    code = cs.sr_covering([z, z])
    res = ct.sr_min_distance(code)
    assert res == (math.inf, math.inf, "zero code", None, ()) and res.exact
    with pytest.raises(ValueError, match="the zero code has no minimum distance"):
        _ = res.value


@pytest.mark.parametrize("build", [
    lambda f4: cs.sr_covering([hm.zero_code(f4, 2)] * 2),
    lambda f4: hm.zero_code(f4, 3),
    lambda f4: cs.plotkin(*[cs.sr_covering([hm.zero_code(f4, 2)] * 2)] * 2),
], ids=["covering", "linear", "plotkin"])
def test_zero_code_is_infinite_at_every_budget(f4, build):
    """With both engines off the zero code is still the infinite point: no budget stop,
    no [1, N] interval, and every claim is inconclusive with the same note."""
    code = build(f4)
    budgets = (ct.Budgets(enum=0, syndrome=0), ct.Budgets())  # both engines off, defaults
    for each in budgets:
        dist = ct.sr_min_distance(code, each)
        assert dist == (math.inf, math.inf, "zero code", None, ())
    for claim in ct.CLAIMS:
        off, default = (ct.certify_code(code, claim, each) for each in budgets)
        assert off.verdict == default.verdict == "inconclusive"
        assert off.notes == default.notes == ["zero code: minimum distance undefined"]


@st.composite
def interval_sources(draw):
    """A true value, and a stream of stops and intervals around it ending in an interval."""
    true = draw(st.integers(0, 12))

    def interval(i):
        lo, hi = draw(st.integers(0, true)), draw(st.integers(true, 12))
        return SrDistance(lo, hi, f"source {i}", draw(st.none() | st.just((i,))),
                          stops=draw(st.just(()) | st.just((f"note {i}",))))
    items = [draw(st.sampled_from(["stop a", "stop b"])) if draw(st.booleans()) else interval(i)
             for i in range(draw(st.integers(0, 6)))]
    return true, items + [interval(len(items))]


@settings(max_examples=200, deadline=None)
@given(interval_sources())
def test_settle_intersects_interval_sources(problem):
    true, items = problem
    read = []

    def stream():
        for item in items:
            read.append(item)
            yield item
    res = ct.settle(stream())
    intervals = [item for item in items if not isinstance(item, str)]
    assert res.lo <= true <= res.hi
    assert res.hi - res.lo <= min(s.hi - s.lo for s in intervals)
    assert res.witness is None or res.lo == res.hi
    # the reading ends at the first item that makes a point, or at the end
    ends = [j + 1 for j in range(len(items)) if not isinstance(items[j], str)
            and max(s.lo for s in items[:j + 1] if not isinstance(s, str))
            == min(s.hi for s in items[:j + 1] if not isinstance(s, str))]
    assert read == items[:ends[0] if ends else len(items)]
    seen = [item for item in read if not isinstance(item, str)]
    assert (res.lo, res.hi) == (max(s.lo for s in seen), min(s.hi for s in seen))
    high = min(seen, key=lambda s: s.hi)  # the earliest of the least upper ends
    if res.lo == res.hi:  # a point keeps hi's witness and no stops
        assert (res.witness, res.stops) == (high.witness, ())
    else:
        low = max(seen, key=lambda s: s.lo)  # the earliest of the greatest lower ends
        assert res.method == (low.method if low is high else f"{low.method} / {high.method}")
        # the stream's stops, then every source's stops: each once, in order
        stops = [item for item in read if isinstance(item, str)]
        assert res.stops == tuple(dict.fromkeys((*stops, *(r for s in seen for r in s.stops))))


@settings(max_examples=200, deadline=None)
@given(interval_sources())
def test_settle_closes_d_only_on_a_word(problem):
    """For d, an upper end that meets lo with no word does not close the interval, and hi
    is the least other end (a last [0, 13] source stands in for [1, N]): every point
    carries its source's word, the true value stays inside, and the reading ends at the
    first point so closed."""
    true, items = problem
    items = items + [SrDistance(0, 13, "budget stop")]
    read = []

    def stream():
        for item in items:
            read.append(item)
            yield item
    # each source's word (i,) is its own, and weighs that source's upper end
    weights = {s.witness: s.hi for s in items if not isinstance(s, str) and s.witness}
    res = ct.settle(stream(), weights.__getitem__)
    seen = [item for item in read if not isinstance(item, str)]
    lo = max(s.lo for s in seen)
    closing = [s for s in seen if s.hi != lo or s.witness is not None]
    assert res.lo == lo <= true <= res.hi == min(s.hi for s in closing)
    assert (res.witness is not None) == res.exact
    if res.exact:
        assert res.witness == min(closing, key=lambda s: s.hi).witness
    else:
        assert read == items


def test_sr_distance_matches_raw_enumeration(am_code):
    """Independent recount: stream codewords, weigh blocks by elimination."""
    best = min(w for w in (sp.sum_rank_weight(am_code.to_word(p))
                           for p in am_code.enumerate_packed()) if w)
    assert best == ct.sr_min_distance(am_code).value == 4


def test_sr_min_distance_composed(f2, f4):
    """The DP's d and word, and the composition's point, read first, which agrees."""
    code = cs.distance_optimal_2x2(2)
    dp = code.budgeted_dp()
    assert dp.distance == 4
    assert sp.sum_rank_weight(code.to_word(dp.witness)) == 4
    assert contains_packed(code, dp.witness)
    res = ct.sr_min_distance(code)
    assert res.exact and res.value == 4
    assert res.method == "composition(linearized: 4 hartmann-tzeng, 2 parity)"
    assert sp.sum_rank_weight(code.to_word(res.witness)) == 4
    assert contains_packed(code, res.witness)


def test_sr_covering_radius_golden(qp_code):
    radius, table = ct.sr_covering_radius(qp_code)
    assert radius == 2
    assert len(table.leader_weight) == 2 ** qp_code.codim == 64
    assert table.radius == 2


def test_sr_covering_radius_full_space(f4):
    code = cs.sr_covering([hm.full_code(f4, 2), hm.full_code(f4, 2)])
    radius, table = ct.sr_covering_radius(code)
    assert radius == 0 and len(table.leader_weight) == 1


def test_dp_matches_sweep_binary(qp_code):
    dp_r, dp_table = ct.sr_covering_radius(qp_code)
    sweep_r, sweep_table = ct.sr_covering_radius_sweep(qp_code)
    assert dp_r == sweep_r
    assert dp_table.leader_weight == sweep_table


def test_dp_matches_sweep_odd_characteristic(f3):
    f9 = f3.extension(2)
    code = cs.sr_linearized([hm.repetition_code(f9, 2),
                             hm.parity_check_code(f9, 2)])
    dp_r, dp_table = ct.sr_covering_radius(code)
    sweep_r, sweep_table = ct.sr_covering_radius_sweep(code)
    assert dp_r == sweep_r
    assert dp_table.leader_weight == sweep_table


def test_extension_preserves_radius(f4):
    rep = hm.repetition_code(f4, 3)
    inner = cs.sr_covering([rep, rep])
    r_inner, _ = ct.sr_covering_radius(inner)
    extended = cs.extend_full_blocks(inner, 1)
    r_ext, _ = ct.sr_covering_radius(extended)
    assert r_inner == r_ext


def test_extension_witness_needs_no_rank_table():
    # 5 x 5 extra block: 2^25 matrices, past the rank-table enumeration cap
    code = cs.extend_full_blocks(cs.covering_repetition(2, 5, 2), 1)
    dist = ct.sr_min_distance(code)
    assert (dist.value, dist.method) == (1, "composition(extension)")
    assert code.to_word(dist.witness).matrices[-1][0] == (1, 0, 0, 0, 0)
    verdicts = {claim: ct.certify_code(code, claim).verdict
                for claim in ("singleton", "sphere-packing", "msrd")}
    assert verdicts == {"singleton": "certified", "sphere-packing": "certified",
                        "msrd": "refuted"}


def test_singleton_like_exponent(f2):
    prof = sp.MatrixProfile(f2, tuple([(2, 2)] * 4))
    assert ct.singleton_like_exponent(prof.shape_counts(), 4) == 10
    assert ct.singleton_like_exponent(prof.shape_counts(), 1) == prof.ambient_dim
    het = sp.MatrixProfile(f2, ((2, 3), (2, 2)))
    assert ct.singleton_like_exponent(het.shape_counts(), 3) == 4
    with pytest.raises(ValueError, match="out of range"):
        ct.singleton_like_exponent(prof.shape_counts(), 9)
    # block order does not change the bound
    het2 = sp.MatrixProfile(f2, ((2, 2), (2, 3)))
    for d in range(1, 5):
        assert (ct.singleton_like_exponent(het.shape_counts(), d)
                == ct.singleton_like_exponent(het2.shape_counts(), d))


SINGLETON_SHAPES = [(n, m) for m in range(1, 6) for n in range(1, m + 1)]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from(SINGLETON_SHAPES), min_size=1, max_size=12))
@example([(1, 3), (3, 3), (2, 3), (1, 1), (2, 2), (1, 3)])
def test_singleton_exponent_from_shape_counts_matches_the_walk(blocks):
    """One step per shape equals the per-block walk at every d in 1..N, on mixed profiles
    of n < m and n = m blocks, and refuses d = 0 and d = N + 1."""
    shapes = sp.MatrixProfile(cs.field_of_order(2), tuple(blocks)).shape_counts()
    N = sum(n for n, _ in blocks)
    for d in range(1, N + 1):
        assert ct.singleton_like_exponent(shapes, d) == singleton_walk(blocks, d)
    for d in (0, N + 1):
        with pytest.raises(ValueError, match=f"^distance {d} out of range 1..{N}$"):
            ct.singleton_like_exponent(shapes, d)


def test_singleton_exponent_at_a_trillion_blocks():
    """m(tm - d + 1) for t blocks m x m, from one shape count, and the bound's exponent."""
    t = 2 ** 40 - 1
    assert ct.singleton_like_exponent({(2, 2): t}, 33) == 2 * (2 * t - 33 + 1)
    assert ct.strong_singleton_bch(2, t, 2, 16, 33).singleton_exponent == 2 * (2 * t - 32)


def test_singleton_defect_and_msrd(f2, am_code):
    assert ct.singleton_defect(am_code.profile, am_code.dim, 4) == 2
    assert ct.msrd_verdict(am_code.profile, am_code.dim, 4)[0] == "almost-MSRD"
    do = cs.distance_optimal_2x2(2)
    assert ct.singleton_defect(do.profile, do.dim, 4) == 4
    name, defect = ct.msrd_verdict(do.profile, do.dim, 4)
    assert name == "defect 4" and defect == 4
    # full space: defect 0 at d = 1
    prof = sp.MatrixProfile(f2, ((2, 2),))
    assert ct.singleton_defect(prof, 4, 1) == 0
    assert ct.msrd_verdict(prof, 4, 1)[0] == "MSRD"
    het = sp.MatrixProfile(f2, ((2, 3), (2, 2)))
    with pytest.raises(ValueError, match="equal column sizes"):
        ct.singleton_defect(het, 4, 2)


def test_sphere_packing_and_perfection(f4):
    full = cs.sr_covering([hm.full_code(f4, 2), hm.full_code(f4, 2)])
    rec = ct.sphere_packing_check(*counting(full), 1)
    assert rec.holds and (rec.volume, rec.q, rec.codim) == (1, 2, 0) and str(rec) == "1 <= 2^0"
    assert ct.perfection_verdict(1, 0) == "perfect"
    assert ct.perfection_verdict(3, 2) == "quasi-perfect"
    assert ct.perfection_verdict(3, 1) == "perfect"
    assert ct.perfection_verdict(3, 4) == "neither"


def test_sphere_packing_sanity_on_known_codes(qp_code, am_code):
    for code, d in ((qp_code, 3), (am_code, 4)):
        assert ct.sphere_packing_check(*counting(code), d).holds
        assert code.dim <= ct.singleton_like_exponent(code.profile.shape_counts(), d)


def test_distance_optimal_check(f2):
    do = cs.distance_optimal_2x2(2)
    verdict, rec = ct.distance_optimal_check(*counting(do), 4)
    assert verdict == "certified"
    assert (rec.radius, rec.volume, str(rec)) == (2, 8731, "8731 > 2^10")
    # [distance 5 would need a larger volume]
    small = cs.distance_optimal_sxs(2, 3, 1, 1)
    verdict_s, rec_s = ct.distance_optimal_check(*counting(small), 4)
    assert verdict_s == "certified" and rec_s.volume == 52823


def test_distance_optimal_check_hamming(f4):
    """A Hamming ball is the sum-rank ball of 1 x 1 blocks."""
    v15, r15 = ct.distance_optimal_check(4, {(1, 1): 15}, 5, 4)
    assert v15 == "inconclusive" and str(r15) == "991 <= 4^5"
    v63, r63 = ct.distance_optimal_check(4, {(1, 1): 63}, 7, 4)
    assert v63 == "certified" and str(r63) == "17767 > 4^7"


def test_strong_singleton_bch():
    rec = ct.strong_singleton_bch(2, 65535, 2, 16, 33)
    assert rec.applicable and rec.case == 1
    assert rec.exponent == 4 * (65535 - 32)
    assert rec.improves and rec.exponent + 64 == rec.singleton_exponent
    rec2 = ct.strong_singleton_bch(2, 65535, 2, 16, 32)
    assert rec2.case == 2 and rec2.exponent == 4 * (65535 - 16)
    bad = ct.strong_singleton_bch(2, 65535, 2, 15, 33)
    assert not bad.applicable and bad.reason == "2^15 < (2e-1)^(4e+2) = 3^10"
    low_d = ct.strong_singleton_bch(2, 65535, 2, 16, 20)
    assert not low_d.applicable
    short = ct.strong_singleton_bch(2, 100, 2, 16, 33)
    assert not short.applicable
    # the Singleton-like exponent refuses a distance past the tm rows, as `bounds singleton` does
    with pytest.raises(ValueError, match="^distance 16 out of range 1..2$"):
        ct.strong_singleton_bch(2, 1, 1, 1, 16)


@pytest.mark.parametrize("m", [0, -1])
def test_strong_singleton_bch_refuses_matrix_size_below_one(m):
    # m = 0 gave the empty range of distances [-1, -1] and a row with d = -1
    with pytest.raises(ValueError, match=f"^matrix size m = {m} must be at least 1$"):
        ct.strong_singleton_bch(m, 5, 2, 16, -1)


def test_block_length_bound():
    rec = ct.block_length_bound(2, 2, 4, 2, 1.0)
    assert abs(rec.value - 16 * 2 * math.log(2)) < 1e-12
    assert any("non-rigorous" in a for a in rec.assumptions)
    with pytest.raises(ValueError, match="divisibility"):
        ct.block_length_bound(2, 2, 6, 2)
    with pytest.raises(ValueError, match="divisibility"):
        ct.block_length_bound(2, 2, 4, 3)


@pytest.mark.parametrize("R", [0, -2])
def test_block_length_bound_refuses_radius_below_one(R):
    # R = 0 divided by zero, and R = -2 passed the divisibility gate and gave codim -4
    with pytest.raises(ValueError, match=f"^covering radius R = {R} must be at least 1$"):
        ct.block_length_bound(2, 2, 4, R)
    with pytest.raises(ValueError, match=f"^covering radius R = {R} must be at least 1$"):
        ct.strong_singleton_blf(2, 2, 4, R, 64)


def test_blf_relation_and_witness(f4):
    rec = blf_relation_check(2, 2, 8, 2)
    assert rec.value is True
    with pytest.raises(ValueError, match="divisibility"):
        blf_relation_check(2, 2, 6, 2)
    cov = cs.covering_repetition(2, 2, 3)
    radius, _ = ct.sr_covering_radius(cov)
    assert radius <= 4  # at most m * R_H = 2 * 2
    wit = blf_witness(cov, radius)
    assert wit.value == 3 and f"{cov.codim},{radius}" in wit.name


def test_size_bound_from_witness(f4):
    ham = hm.hamming_code(f4, 2)
    radius, _ = hm.covering_radius(ham)
    assert radius == 1
    k_witness = code_size(ham)  # 4^3 = 64 codewords cover radius 1
    rec = size_bound_from_witness(2, 2, 5, 2, k_witness)
    assert rec.value == 4096
    with pytest.raises(ValueError, match="divisibility"):
        size_bound_from_witness(2, 2, 5, 3, 64)


def test_entropy():
    assert ct.entropy(4, 0.0) == 0.0
    assert abs(ct.entropy(4, 0.75) - 1.0) < 1e-12
    rho = 0.3
    expected = (rho * math.log(3, 4) - rho * math.log(rho, 4)
                - (1 - rho) * math.log(1 - rho, 4))
    assert abs(ct.entropy(4, rho) - expected) < 1e-12
    with pytest.raises(ValueError, match="outside"):
        ct.entropy(4, 0.8)
    with pytest.raises(ValueError, match="outside"):
        ct.entropy(4, -0.1)


def test_strong_singleton_blf():
    rec = ct.strong_singleton_blf(2, 2, 4, 2, 64, 1.0)
    assert rec.value == f"2^{4 * 63 - 8}"
    assert any("non-rigorous" in a for a in rec.assumptions)
    # c <= 0 would make the gate trivially true; it is refused instead
    for c in (0.0, -2.0):
        with pytest.raises(ValueError, match=f"universal constant c = {c} must be positive"):
            ct.strong_singleton_blf(2, 2, 4, 2, 3, c)
    with pytest.raises(ValueError, match="divisibility"):
        ct.strong_singleton_blf(2, 2, 4, 3, 64)
    with pytest.raises(ValueError, match="gate"):
        ct.strong_singleton_blf(2, 2, 4, 2, 10, 1.0)


def test_condition_checks_cyclic_d4():
    rec = ct.family_condition_checks("cyclic-d4", {"q": 4, "m": 2, "lam": 1})
    assert rec.rational_holds          # 8 < 9
    assert not rec.exact_holds         # 991 < 1024
    assert (rec.exact_lhs, rec.exact_rhs) == (991, 1024)
    rec3 = ct.family_condition_checks("cyclic-d4", {"q": 4, "m": 3, "lam": 1})
    assert rec3.exact_holds            # 17767 > 16384
    assert (rec3.exact_lhs, rec3.exact_rhs) == (17767, 16384)
    assert rec3.exact_criterion == "V_sr(q,2) over 63 blocks 1x1 > q^7"
    rec_bad = ct.family_condition_checks("cyclic-d4", {"q": 5, "m": 2, "lam": 4})
    assert not rec_bad.rational_holds  # 160 >= 16
    with pytest.raises(ValueError, match="divide"):
        ct.family_condition_checks("cyclic-d4", {"q": 4, "m": 2, "lam": 7})
    # binary: C_2 = C_1, so T = C_0 u C_1 and the code has codim m + 1, not 2m + 1
    rec_bin = ct.family_condition_checks("cyclic-d4", {"q": 2, "m": 4, "lam": 1})
    assert (rec_bin.exact_lhs, rec_bin.exact_rhs, rec_bin.exact_holds) == (121, 32, True)


def test_condition_checks_sxs_and_plotkin():
    rec = ct.family_condition_checks("distance-optimal-sxs",
                                      {"q": 2, "s": 3, "m": 1, "lam": 1})
    assert rec.rational_holds and rec.exact_holds
    assert (rec.exact_lhs, rec.exact_rhs) == (52823, 32768)
    # s = 2: one parity ingredient, so codim s(|T| + 1) = 2 (5 + 1) = 12
    rec22 = ct.family_condition_checks("distance-optimal-sxs",
                                        {"q": 2, "s": 2, "m": 2, "lam": 1})
    assert rec22.exact_holds
    assert (rec22.exact_lhs, rec22.exact_rhs) == (8731, 4096)
    assert rec22.exact_criterion == "V_sr(q,2) over 15 blocks 2x2 > q^12"
    pl2 = ct.family_condition_checks("plotkin-distance-optimal", {"s": 2, "m": 2})
    assert not pl2.rational_holds      # 2 * (3/4)^4 < 1
    assert pl2.exact_holds             # 35686 > 2^14: codim 12 + s, the built one
    assert (pl2.exact_lhs, pl2.exact_rhs) == (35686, 16384)
    pl3 = ct.family_condition_checks("plotkin-distance-optimal", {"s": 3, "m": 1})
    assert pl3.rational_holds
    assert not pl3.exact_holds         # 223294 < 262144 at m = 1
    assert (pl3.exact_lhs, pl3.exact_rhs) == (223294, 262144)


def test_condition_checks_rect_and_unknown_family():
    rec = ct.family_condition_checks("distance-optimal-rect",
                                      {"q": 2, "s1": 2, "s2": 3, "m": 1, "lam": 1})
    _, r1, r2 = sp.rank_distribution(2, 3, 2)  # 7 blocks 2 x 3: t = 2^3 - 1
    assert rec.exact_lhs == 1 + 7 * r1 + math.comb(7, 2) * r1 ** 2 + 7 * r2 == 9703
    assert rec.exact_rhs == 2 ** 12 and rec.exact_holds  # codim s2 (|{0, 1, 2}| + 1)
    assert not rec.rational_holds      # 16 < 9
    with pytest.raises(ValueError, match="no checks for family 'cyclic-d4-alt'; "
                                         "it checks cyclic-d4, quasi-perfect-2xm"):
        ct.family_condition_checks("cyclic-d4-alt", {"q": 2, "m": 3})


_LAMS = (1, 2, 3, 5)
# recipe points of every condition family, each at lam in _LAMS where it has one; the
# gates refuse some of them, most for a lam that does not divide q^e - 1
FAMILY_POINTS = [
    *(("cyclic-d4", dict(q=q, m=m, lam=lam)) for q, m in [
        (2, 3), (2, 4), (2, 5), (2, 6), (3, 2), (3, 3), (3, 4), (4, 2), (4, 3), (5, 2), (5, 3),
        (7, 2), (8, 2), (9, 2)] for lam in _LAMS),
    *(("quasi-perfect-2xm", dict(q=q, m=m, u=u)) for q, m, u in [
        (2, 2, 2), (2, 2, 3), (2, 2, 4), (2, 3, 2), (2, 3, 3), (3, 2, 2), (3, 2, 3), (3, 3, 2),
        (4, 2, 2), (4, 2, 3), (5, 2, 2), (7, 2, 2)]),
    *(("distance-optimal-sxs", dict(q=q, s=s, m=m, lam=lam)) for q, s, m in [
        (2, 2, 2), (2, 2, 3), (2, 2, 4), (2, 2, 5), (2, 3, 1), (2, 3, 2), (2, 3, 3), (2, 4, 1),
        (2, 4, 2), (3, 2, 1), (3, 2, 2), (3, 2, 3), (3, 3, 1), (3, 3, 2), (3, 4, 1), (4, 2, 1),
        (4, 2, 2), (4, 3, 1), (5, 2, 1), (5, 2, 2), (5, 3, 1), (7, 2, 1)] for lam in _LAMS),
    *(("distance-optimal-rect", dict(q=q, s1=s1, s2=s2, m=m, lam=lam)) for q, s1, s2, m in [
        (2, 2, 3, 1), (2, 2, 3, 2), (2, 2, 4, 1), (2, 2, 4, 2), (2, 3, 4, 1), (2, 3, 4, 2),
        (2, 2, 5, 1), (2, 3, 5, 1), (3, 2, 3, 1), (3, 2, 3, 2), (3, 2, 4, 1), (3, 3, 4, 1),
        (4, 2, 3, 1), (4, 3, 4, 1), (5, 2, 3, 1)] for lam in _LAMS),
    *(("plotkin-distance-optimal", dict(s=s, m=m)) for s, m in [
        (2, 2), (2, 3), (2, 4), (2, 5), (3, 1), (3, 2), (3, 3), (4, 1), (4, 2)]),
]


def _point_id(point):
    family, params = point
    return "-".join([family, *(f"{k}={v}" for k, v in params.items())])


def _built(family, params):
    """The recipe's code at `params`, or the message of its gate's refusal."""
    try:
        return cs.build_recipe(family, **params)
    except ValueError as exc:
        return str(exc)


def test_family_points_cover_the_grid():
    built = [(family, params) for family, params in FAMILY_POINTS
             if not isinstance(_built(family, params), str)]
    assert len(built) >= 100
    assert any(params.get("lam", 1) > 1 for _, params in built)
    assert {params["s"] for family, params in built if family == "plotkin-distance-optimal"
            } == {params["s"] for family, params in built if family == "distance-optimal-sxs"
                  } == {2, 3, 4}
    assert {params["s1"] for family, params in built if family == "distance-optimal-rect"
            } == {2, 3}
    assert {params["q"] % 2 for _, params in built if "q" in params} == {0, 1}


@pytest.mark.parametrize("family,params", FAMILY_POINTS, ids=map(_point_id, FAMILY_POINTS))
def test_family_table_describes_the_built_code(family, params):
    """The table's code-free shape is that of the code the recipe builds; a point the
    recipe refuses, the table refuses with the same message."""
    code = _built(family, params)
    if isinstance(code, str):
        with pytest.raises(ValueError) as exc:
            cs.FAMILIES[family](**params)
        assert str(exc.value) == code
        return
    fam = cs.FAMILIES[family](**params)
    assert (fam.base, {fam.shape: fam.t}, fam.codim) == (
        code.base, code.profile.shape_counts(), code.codim)


@pytest.mark.parametrize("family,params", FAMILY_POINTS, ids=map(_point_id, FAMILY_POINTS))
def test_family_criterion_is_the_distance_optimal_check(family, params):
    """The exact criterion compares the radius-2 ball with q^codim of the built code: at
    d = 4 it is the certificate's sphere-packing refutation.  A point the recipe refuses,
    the checks refuse with the same message."""
    code = _built(family, params)
    if isinstance(code, str):
        with pytest.raises(ValueError, match=f"^{re.escape(code)}$"):
            ct.family_condition_checks(family, params)
        return
    rec = ct.family_condition_checks(family, params)
    verdict, refutation = ct.distance_optimal_check(*counting(code), 4)
    assert (rec.exact_lhs, rec.exact_rhs) == (refutation.volume, code.base.order ** code.codim)
    assert rec.exact_holds == (verdict == "certified")


def test_certificate_json_deterministic(qp_code):
    c1 = ct.certify_code(qp_code, "quasi-perfect")
    c2 = ct.certify_code(qp_code, "quasi-perfect")
    assert c1.to_json() == c2.to_json()
    assert c1.verdict == "certified" and c1.exit_code == 0
    payload = json.loads(c1.to_json())
    assert payload["property"] == "quasi-perfect"
    assert {q["name"] for q in payload["quantities"]} >= {
        "min_sum_rank_distance", "covering_radius", "dimension"}
    assert all("method" in q for q in payload["quantities"])


def test_certificate_json_streams_the_bytes_of_json_dumps(qp_code):
    cert = ct.certify_code(qp_code, "quasi-perfect")
    pieces = []
    assert cert.to_json(pieces.append) is None
    payload = {"subject": cert.subject, "property": cert.claim,
               "quantities": cert.quantities, "bounds": cert.bounds,
               "verdict": cert.verdict, "notes": cert.notes, "seed": cert.seed,
               "toolchain-version": cert.toolchain_version}
    expected = json.dumps(payload, sort_keys=True, indent=2)
    assert len(pieces) > 1 and "".join(pieces) == expected == cert.to_json()


# JSON-like trees: int lists with bools among the ints (the writer's join
# path), tuples, empty and nested containers, dict keys of every kind json
# converts (one comparable kind per dict, as sort_keys needs), escapes and
# non-ASCII text, nan/inf and ints past the 4300-digit str cap
_BIG_INTS = st.builds(lambda e, s, r: s * (10 ** e + r), st.integers(4300, 4400),
                      st.sampled_from([1, -1]), st.integers(0, 10 ** 6))
_LEAVES = (st.none() | st.booleans() | st.integers() | _BIG_INTS | st.floats()
           | st.text())
_KEYS = (st.text(), st.integers() | st.floats() | st.booleans(), st.none())


def _json_trees():
    def containers(children):
        return (st.lists(children, max_size=4)
                | st.lists(children, max_size=4).map(tuple)
                | st.one_of(*(st.dictionaries(keys, children, max_size=4) for keys in _KEYS)))
    return st.recursive(_LEAVES | st.lists(st.integers() | st.booleans()), containers,
                        max_leaves=20)


@settings(max_examples=150, deadline=None)
@given(_json_trees())
@example([1, True, 2, False])
@example({"a": [], "b": {}, "c": ((),)})
@example({1.5: [0], 2: [-1], True: None})
@example(["\u00e9\n\"\\\x00", float("nan"), float("inf"), -float("inf")])
def test_write_json_matches_json_dumps(tree):
    sys.set_int_max_str_digits(0)  # json writes ints past the cap; the fixture restores it
    pieces = []
    ct.write_json(tree, pieces.append)
    assert "".join(pieces) == json.dumps(tree, sort_keys=True, indent=2)


def test_write_json_without_default_refuses_what_json_refuses():
    for bad in (Fraction(1, 3), {(1, 2): 0}):
        with pytest.raises(TypeError):
            json.dumps(bad, sort_keys=True, indent=2)
        with pytest.raises(TypeError):
            ct.write_json(bad, [].append)


def test_certificate_with_a_numpy_quantity_raises(am_code):
    """A quantity json cannot write is an error (exit 3 from the CLI), not a string."""
    cert = ct.certify_code(am_code, "almost-msrd")
    cert.add_quantity("rank", np.int64(3), "numpy")
    with pytest.raises(TypeError, match="int64 is not JSON serializable"):
        cert.to_json()
    with pytest.raises(TypeError, match="int64 is not JSON serializable"):
        cert.to_json([].append)


def test_certificate_verdicts(am_code):
    cert = ct.certify_code(am_code, "almost-msrd")
    assert cert.verdict == "certified" and cert.exit_code == 0
    cert2 = ct.certify_code(am_code, "msrd")
    assert cert2.verdict == "refuted" and cert2.exit_code == 1
    cert3 = ct.certify_code(am_code, "distance-optimal")
    assert cert3.verdict == "certified"
    cert4 = ct.certify_code(am_code, "sphere-packing")
    assert cert4.verdict == "certified"
    cert5 = ct.certify_code(am_code, "singleton")
    assert cert5.verdict == "certified"
    with pytest.raises(ValueError, match="unknown claim"):
        ct.certify_code(am_code, "bogus")


@pytest.mark.parametrize("build", [lambda: cs.almost_msrd_2x2(2, 4), lambda: cs.cyclic_d4(2, 4)])
def test_certificate_builds_the_descriptor_only_for_json(build, monkeypatch):
    code = build()
    describe, calls = type(code).describe, []
    monkeypatch.setattr(type(code), "describe",
                        lambda self: calls.append(self) or describe(self))
    cert = ct.certify_code(code, "distance-optimal")
    cert.to_table()
    assert calls == []
    assert json.loads(cert.to_json())["subject"] == json.loads(json.dumps(describe(code)))
    assert calls == [code]


def test_certificate_writes_an_extended_descriptor():
    inner = cs.covering_repetition(2, 2, 3)
    cert = ct.certify_code(cs.extend_full_blocks(inner, 1), "singleton")
    subject = json.loads(cert.to_json())["subject"]
    assert (subject["construction"], subject["extra_blocks"]) == ("extended", 1)
    assert subject["inner"] == json.loads(json.dumps(inner.describe()))


@pytest.mark.parametrize("q,m,n,k", [(2, 2, 2, 1), (2, 3, 3, 2), (3, 2, 2, 1), (2, 3, 2, 1)])
def test_gabidulin_codes_are_msrd(q, m, n, k):
    """One n x m block: k full and n - k zero ingredients of length 1 give a Gabidulin code.

    Its codewords are the linearized polynomials of q-degree below k, so
    d = n - k + 1 and the Singleton defect is 0.
    """
    ext = cs.field_of_order(q).extension(m)
    code = cs.sr_linearized([hm.full_code(ext, 1)] * k + [hm.zero_code(ext, 1)] * (n - k))
    assert code.profile.blocks == ((n, m),) and code.dim == m * k
    cert = ct.certify_code(code, "msrd")
    values = {q["name"]: q["value"] for q in cert.quantities}
    assert cert.verdict == "certified"
    assert values["min_sum_rank_distance"] == n - k + 1 and values["singleton_defect"] == 0


@pytest.mark.parametrize("q,m,t,k", [(2, 2, 4, 2), (3, 2, 9, 4), (2, 3, 8, 5), (4, 2, 16, 13),
                                     (5, 2, 6, 2)])
def test_reed_solomon_over_the_extension_is_msrd_on_t_blocks(q, m, t, k):
    """One Reed-Solomon [t, k] ingredient over GF(q^m) gives t blocks of 1 x m.

    A 1 x m block has rank 1 exactly when its symbol is nonzero, so the
    sum-rank weight is the Hamming weight: d = t - k + 1 and the Singleton
    defect is 0.
    """
    ext = cs.field_of_order(q).extension(m)
    code = cs.sr_linearized([hm.reed_solomon(ext, t, k)])
    assert code.profile.blocks == ((1, m),) * t and code.dim == m * k
    cert = ct.certify_code(code, "msrd")
    values = {q["name"]: q["value"] for q in cert.quantities}
    assert cert.verdict == "certified"
    assert values["min_sum_rank_distance"] == t - k + 1 and values["singleton_defect"] == 0


def test_mds_codes_are_msrd_as_1x1_blocks(f4):
    """A Hamming-metric code is t blocks of 1 x 1, where MDS means MSRD."""
    cert = ct.certify_code(hm.reed_solomon(f4, 5, 3), "msrd")
    values = {q["name"]: q["value"] for q in cert.quantities}
    assert cert.verdict == "certified"
    assert values["min_sum_rank_distance"] == 3 and values["singleton_defect"] == 0
    assert ct.certify_code(hm.parity_check_code(f4, 5), "almost-msrd").verdict == "certified"


SMALL_RECIPE_PARAMS = {
    "quasi-perfect-2xm": {"q": 2, "m": 2, "u": 2},
    "quasi-perfect-2x2": {"t": 6},
    "cyclic-d4": {"q": 2, "m": 3},
    "cyclic-d4-alt": {"q": 3, "m": 2},
    "distance-optimal-sxs": {"q": 3, "s": 2, "m": 1},
    "distance-optimal-rect": {"q": 2, "s1": 2, "s2": 3, "m": 1},
    "distance-optimal-2x2": {"q": 2},
    "almost-msrd-2x2": {"q": 2, "t": 4},
    "plotkin-distance-optimal": {"s": 3, "m": 1},
    "covering-repetition": {"q": 2, "m": 2, "t": 3},
}


@pytest.mark.parametrize("name", sorted(cs.RECIPES))
def test_flat_parity_is_a_read_only_int64_array(name):
    code = cs.build_recipe(name, **SMALL_RECIPE_PARAMS[name])
    parity = code.flat_parity
    assert isinstance(parity, np.ndarray) and parity.dtype == np.int64
    assert parity.shape == (code.codim, code.ambient_dim) and not parity.flags.writeable


@pytest.mark.parametrize("name", sorted(cs.RECIPES))
def test_every_recipe_goes_through_certify_code(name):
    code = cs.build_recipe(name, **SMALL_RECIPE_PARAMS[name])
    cert = ct.certify_code(code, "sphere-packing")
    assert cert.verdict in ct.VERDICT_EXIT
    assert cert.subject == code.describe()
    # the code names its recipe and parameters, defaults applied, and they rebuild it
    assert code.recipe == name and list(code.params) == [
        a.name for a in cs.signature_params(cs.RECIPES[name])]
    assert cs.build_recipe(name, **code.params).describe() == code.describe()


@st.composite
def covering_ingredients(draw):
    """Two random codes of length 2 to 4 over GF(4) or GF(9), each of dimension >= 1."""
    ext = cs.field_of_order(draw(st.sampled_from([2, 3]))).extension(2)
    t = draw(st.integers(2, 4))
    codes = []
    for _ in range(2):
        rows = draw(st.lists(st.lists(st.integers(0, ext.order - 1), min_size=t, max_size=t),
                             min_size=1, max_size=t))
        red, _ = hm.rref(ext, rows)
        assume(len(red))
        codes.append(hm.from_generator(ext, red))
    return codes


@settings(max_examples=50, deadline=None)
@given(covering_ingredients())
def test_covering_construction_bounds_from_ingredients(ingredients):
    """R_sr <= sum_i R_H(C_i) and d_sr >= min_i d_H(C_i) for the covering construction."""
    code = cs.sr_covering(ingredients)
    assume(code.base.order ** code.codim <= 1 << 16)
    radius, _ = ct.sr_covering_radius(code)
    assert radius <= sum(hm.covering_radius(c)[0] for c in ingredients)
    d_sr = ct.sr_min_distance(code).value
    assert d_sr >= min(ct.sr_min_distance(c).value for c in ingredients)


@st.composite
def theorem_ingredient_codes(draw):
    """A covering or linearized code from ingredients of one length t over GF(q^m), for p = 2
    and odd p, n < m and n = m rows, at q^codim <= 2^12.  Families that fix d and R_H
    (Hamming, parity, full, Reed-Solomon, repetition) mix with general ones: a random
    `hm.from_generator` code of redundancy <= 2 and, where gcd(t, Q) = 1, a random
    `hm.cyclic_code`, which for t | Q - 1 includes T = {0, 1, 2}, MDS by its BCH run.  A
    Hamming code of redundancy 2 has length Q + 1, Q = q^m, the longest Reed-Solomon length."""
    q, m = draw(st.sampled_from([(2, 2), (2, 3), (3, 2)]))
    ext = cs.field_of_order(q).extension(m)
    Q = ext.order
    construction = draw(st.sampled_from(["covering", "linearized"]))
    rows = m if construction == "covering" else draw(st.integers(1, m))
    t = draw(st.sampled_from([Q + 1, *(n for n in range(4, Q) if (Q - 1) % n == 0),
                              draw(st.integers(2, Q + 1))]))

    def explicit():
        rho = draw(st.integers(0, min(2, t - 1)))
        cols = draw(st.permutations(range(t)))
        gen = [[int(j == i) for j in range(t - rho)]
               + draw(st.lists(st.integers(0, Q - 1), min_size=rho, max_size=rho))
               for i in range(t - rho)]
        return hm.from_generator(ext, [[row[c] for c in cols] for row in gen])

    def cyclic():
        T = {0, 1, 2} if (Q - 1) % t == 0 and draw(st.booleans()) else set(draw(st.lists(
            st.integers(0, t - 1), min_size=1, max_size=2)))
        assume(len({r for g in T for r in hm.cyclotomic_coset(g, Q, t)}) < t)
        return hm.cyclic_code(t, ext, sorted(T))

    builders = {"parity": lambda: hm.parity_check_code(ext, t),
                "full": lambda: hm.full_code(ext, t),
                "reed-solomon": lambda: hm.reed_solomon(ext, t, t - draw(st.integers(
                    0, min(3, t - 1)))),
                "repetition": lambda: hm.repetition_code(ext, t),
                "explicit": explicit}
    if t == Q + 1:
        builders["hamming"] = lambda: hm.hamming_code(ext, 2)
    if math.gcd(t, Q) == 1:
        builders["cyclic"] = cyclic
    families = draw(st.lists(st.sampled_from(sorted(builders)), min_size=rows, max_size=rows))
    assume(families.count("repetition") * (t - 1) <= 12)  # rho = t - 1 each
    code = cs.IngredientSumRankCode(construction, [builders[f]() for f in families])
    assume(q ** code.codim <= 1 << 12)
    return code


@pytest.mark.seeded
@settings(max_examples=80, deadline=None)
@given(theorem_ingredient_codes())
@example(cs.quasi_perfect_2xm(2, 2, 2))
@example(cs.almost_msrd_2x2(2, 4))
def test_exact_d_and_r_lie_in_the_intervals_the_rules_give(code):
    """With the DP and enumeration at budget 0, d comes from the composition and sphere
    packing and R from the ingredient rule, sphere covering and codim; the DP's exact d and
    R lie inside those intervals, and the rule's end is at least the DP's R.  Each
    ingredient's proven ends hold at its own DP: d >= d_lo, d = n - k + 1 when it is called
    MDS, and R_H <= radius_hi."""
    dp = code.syndrome_dp
    off = ct.Budgets(enum=0, syndrome=0)
    d = ct.sr_min_distance(code, off)
    radius = ct.sr_radius(code, off)
    assert d.lo <= dp.distance <= d.hi, (d, dp.distance)
    assert radius.lo <= dp.radius <= radius.hi, (radius, dp.radius)
    (rule,) = code.radius_bounds()
    assert dp.radius <= rule.hi, (rule, dp.radius)
    for c in code.ingredients:
        proven, own = c.proven, c.syndrome_dp
        assert proven.d_lo <= own.distance and own.radius <= proven.radius_hi, (c, proven)
        assert not proven.mds or own.distance == c.n - c.k + 1, (c, proven)


def test_certify_perfect_full_space(f4):
    full = cs.sr_covering([hm.full_code(f4, 2), hm.full_code(f4, 2)])
    cert = ct.certify_code(full, "perfect")
    assert cert.verdict == "certified"
    rec = ct.sphere_packing_check(*counting(full), 1)
    assert rec.volume == full.base.order ** full.codim  # perfect <=> equality in sphere packing


@pytest.fixture(scope="module")
def hexacode_code():
    """quasi-perfect-2x2: nothing proves its hexacode ingredient's R_H below n - k = 3, so
    past the DP the ingredient rule bounds R by 2 max(3, 1) = 6, above sphere covering's 2."""
    return cs.quasi_perfect_2x2(6)


def test_certify_budget_degrades_to_inconclusive(hexacode_code):
    cert = ct.certify_code(hexacode_code, "quasi-perfect", ct.Budgets(syndrome=2))
    assert cert.verdict == "inconclusive" and cert.exit_code == 2


def test_budget_stop_note_names_budget(hexacode_code):
    cert = ct.certify_code(hexacode_code, "quasi-perfect", ct.Budgets(syndrome=2))
    assert "syndrome budget 2 < 2^8 syndromes (q^codim)" in cert.notes
    work = ct.certify_code(hexacode_code, "quasi-perfect", ct.Budgets(sweep=100))
    assert work.verdict == "inconclusive"
    # 6 blocks of 2 x 2 over GF(2): 1 round x 3 rank-1 lines x 2 generators
    # x 1 gather-min each, plus the column min, times q^codim = 256, plus 2^4
    # block values
    assert work.notes == [f"sweep budget 100 < {6 * (7 * 256 + 16)} DP work units "
                          "(shift passes x q^codim + block values)"]


def test_certificates_share_no_list(qp_code):
    first, second = ct.Certificate(qp_code, "perfect"), ct.Certificate(qp_code, "perfect")
    first.add_quantity("dimension", 14, "construction")
    first.add_bound("singleton_like", 1, ())
    first.notes.append("note")
    assert second.quantities == second.bounds == second.notes == []
    assert (second.verdict, second.seed, second.toolchain_version) == \
        ("inconclusive", None, ct.TOOLCHAIN_VERSION)


def _possible(code, d) -> bool:
    """Whether a code of this size may have minimum distance d: the Singleton-like
    bound and sphere packing both allow it, in their full-size forms."""
    size = code_size(code)
    return singleton_full(code.profile, size, d) and sphere_packing_full(code.profile, size, d)


def _exact_verdict(code, claim: str, d: int, radius: int) -> str:
    """The verdict the exact comparisons give at an exact d and R, the counting bounds in
    their full-size forms: |C| V_sr(r) against q^N and |C| against q^e."""
    if claim in ("perfect", "quasi-perfect"):
        holds = ct.perfection_verdict(d, radius) == claim
    elif claim == "distance-optimal":  # no code of this size has d + 1
        holds = not sphere_packing_full(code.profile, code_size(code), d + 1)
        return "certified" if holds else "inconclusive"
    elif claim in ("msrd", "almost-msrd"):
        name = ct.msrd_verdict(code.profile, code.dim, d)[0]
        holds = name == "MSRD" or (claim == "almost-msrd" and name == "almost-MSRD")
    elif claim == "sphere-packing":
        holds = sphere_packing_full(code.profile, code_size(code), d)
    else:
        holds = singleton_full(code.profile, code_size(code), d)
    return "certified" if holds else "refuted"


def _stand_in(q: int, blocks, dim: int):
    """What the rules read of a code: its profile, dimension, base field, codimension and
    recipe."""
    profile = sp.MatrixProfile(cs.field_of_order(q), blocks)
    return SimpleNamespace(profile=profile, dim=dim, base=profile.field,
                           codim=profile.ambient_dim - dim, recipe=None)


@st.composite
def interval_problems(draw):
    """A stand-in code (a profile of equal column sizes and a dimension), a d it may
    have, an R, and intervals of d and of R around them."""
    q, m = draw(st.sampled_from([2, 3])), draw(st.integers(1, 3))
    blocks = draw(st.lists(st.integers(1, m).map(lambda n: (n, m)), min_size=1, max_size=4))
    profile = sp.MatrixProfile(cs.field_of_order(q), tuple(blocks))
    d = draw(st.integers(1, profile.N))
    # near the Singleton-like limit half the time, where msrd and almost-msrd turn
    dim = draw(st.integers(1, profile.ambient_dim)
               | st.integers(0, 3).map(lambda defect: m * (profile.N - d + 1) - defect))
    assume(dim >= 1)
    code = _stand_in(q, profile.blocks, dim)
    assume(_possible(code, d))
    # R near e = floor((d - 1)/2) half the time, where perfect and quasi-perfect turn
    radius = draw(st.integers(0, profile.N) | st.integers(0, 1).map(lambda k: (d - 1) // 2 + k))
    r_lo, r_hi = draw(st.just((radius, radius)) | st.tuples(st.integers(0, radius),
                                                             st.integers(radius, profile.N)))
    dist = SrDistance(draw(st.integers(1, d)), draw(st.integers(d, profile.N)), "interval")
    return code, radius, dist, SrDistance(r_lo, r_hi, "interval")


@settings(max_examples=300, deadline=None)
@given(interval_problems(), st.sampled_from(ct.CLAIMS))
# d = 5 and R = 2 make a perfect code, but "neither" holds at both ends of [1, 12]
@example((_stand_in(2, ((3, 3),) * 4, 1), 2, SrDistance(1, 12, ""), SrDistance(2, 2, "")),
         "perfect")
# an MSRD code at d = 2, where the defect at the upper end 6 is -8
@example((_stand_in(2, ((2, 2),) * 3, 10), 0, SrDistance(1, 6, ""), SrDistance(0, 0, "")),
         "msrd")
def test_rules_decide_only_what_every_possible_d_agrees_on(problem, claim):
    """A verdict decided on the intervals is the exact verdict at every d of the
    interval that a code of that size may have; at a point, it is the exact verdict."""
    code, radius, dist, r_interval = problem
    cert = ct.Certificate(code, claim)
    ct.RULES[claim](cert, dist, r_interval)
    if cert.verdict != "inconclusive":
        possible = [d for d in range(dist.lo, dist.hi + 1) if _possible(code, d)]
        assert {_exact_verdict(code, claim, d, radius) for d in possible} == {cert.verdict}
    if dist.exact and r_interval.exact:
        assert cert.verdict == _exact_verdict(code, claim, dist.lo, radius)


COUNTING_SHAPES = [(n, m) for m in range(1, 4) for n in range(1, m + 1)]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2, 3, 4]), st.lists(st.sampled_from(COUNTING_SHAPES), min_size=1,
                                             max_size=3), st.integers(0, 2))
@example(2, [(1, 1), (2, 3), (2, 2)], 1)
def test_counting_checks_match_their_full_size_forms(q, blocks, excess):
    """At every dim from 0 to the ambient dimension and every d in 1..N, the exponent-form
    checks and the counting rules at a point of d give the full-size comparisons' answers,
    |C| V_sr(floor((d - 1)/2)) <= q^N and |C| <= q^e, on mixed block shapes; a refuted
    sphere-packing states the least radius whose ball outgrows q^codim.  Where a code may
    have that d, every other rule (R = e + `excess`) gives their verdict too; where sphere
    packing fails, the perfection rules' sanity check raises."""
    profile = sp.MatrixProfile(cs.field_of_order(q), tuple(blocks))
    equal_m = len({m for _, m in blocks}) == 1  # the defect is defined for these only
    counting_rules = ("sphere-packing", "singleton", "distance-optimal")
    for dim in range(profile.ambient_dim + 1):
        code = _stand_in(q, profile.blocks, dim)
        for d in range(1, profile.N + 1):
            packs = sphere_packing_full(profile, q ** dim, d)
            assert ct.sphere_packing_check(*counting(code), d).holds == packs
            assert ct.distance_optimal_check(*counting(code), d)[0] == _exact_verdict(
                code, "distance-optimal", d, 0)
            point, radius = SrDistance(d, d, "point"), (d - 1) // 2 + excess
            r_point = SrDistance(radius, radius, "point")
            for claim in ct.CLAIMS:
                cert = ct.Certificate(code, claim)
                if claim in ("perfect", "quasi-perfect") and not packs:
                    with pytest.raises(RuntimeError, match="sphere packing violated"):
                        ct.RULES[claim](cert, point, r_point)
                elif claim in counting_rules or _possible(code, d) and (
                        equal_m or claim not in ("msrd", "almost-msrd")):
                    ct.RULES[claim](cert, point, r_point)
                    assert cert.verdict == _exact_verdict(code, claim, d, radius), (claim, dim, d)
                    if claim == "sphere-packing" and cert.verdict == "refuted":  # the least r
                        r = int(cert.bounds[0]["assumptions"][0].split()[-1])
                        assert not sphere_packing_full(profile, q ** dim, 2 * r + 1)
                        assert r == 0 or sphere_packing_full(profile, q ** dim, 2 * r - 1)


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 9), st.integers(0, 40), st.data())
@example(2, 16, None)  # q^e = budget
@example(3, 0, None)
def test_budget_stop_is_the_exact_exponent_test(q, e, data):
    """A stop exactly when q^e > budget: budgets drawn around q^e (equal, one off), 0, and
    at random; e = 0 gives the one word, which only budget 0 refuses."""
    budgets = [0, 1, q ** e - 1, q ** e, q ** e + 1]
    if data is not None:
        budgets.append(data.draw(st.integers(0, 1 << 80)))
    for budget in budgets:
        stop = budget_stop("enum budget", budget, q, e, "codewords (q^dim)")
        assert (stop is not None) == (q ** e > budget), (q, e, budget)
        assert stop in (None, f"enum budget {budget} < {q}^{e} codewords (q^dim)")


class _Order(int):
    """A field order whose powers are refused past q^17, the bit length of 2^16."""

    def __pow__(self, e):
        assert e <= 17, f"q^{e} formed"
        return int(self) ** e


def test_budget_stop_forms_no_power_past_the_budget():
    """q^(10^12) could not be held; the test stops at the budget's bit length."""
    assert budget_stop("syndrome budget", 1 << 16, _Order(2), 10 ** 12, "syndromes") == (
        f"syndrome budget {1 << 16} < 2^{10 ** 12} syndromes")
    assert budget_stop("enum budget", 0, 3, 0, "codewords") == "enum budget 0 < 3^0 codewords"
    assert budget_stop("enum budget", 1, 3, 0, "codewords") is None


def test_certify_through_the_api_stays_under_the_str_digit_cap(int_str_digits, monkeypatch):
    """sxs q=2 s=3 m=4 has |C| = 2^36822 and q^N = 2^12285: at CPython's default cap of
    4300 digits, set by the fixture, certify_code, the table and the JSON state every
    bound in q^e form, which the full-size forms could not print.  The descriptor is a stub:
    its 4084 x 4095 generator takes seconds to write and holds only small ints."""
    assert sys.get_int_max_str_digits() == int_str_digits == 4300
    code = cs.build_recipe("distance-optimal-sxs", q=2, s=3, m=4)
    monkeypatch.setattr(code, "describe", lambda: {"recipe": code.recipe})
    cert = ct.certify_code(code, "distance-optimal")
    table = cert.to_table()
    assert cert.verdict == "certified" and len(table) < 2048
    doc = json.loads(cert.to_json())
    assert doc["bounds"][0] == {"name": "sphere_packing_refutation",
                                "value": "20127703051 > 2^33",
                                "assumptions": ["ball volume at radius 2"]}
    # d >= 4 from the composition; sphere packing's V_sr(2) > 2^33 gives d <= 4 with no word,
    # so the upper end is the lightest one-ingredient word, a parity word of weight 2 in one of
    # 3 rows: 3 * 2
    assert doc["quantities"][2] == {
        "name": "min_sum_rank_distance", "value": [4, 3 * 2],
        "method": "composition(linearized: 4 bch, 2 parity, 2 parity) (interval)"}
    assert doc["notes"] == [f"syndrome budget {ct.Budgets().syndrome} < 2^33 syndromes (q^codim); "
                            f"enum budget {ct.Budgets().enum} < 2^36822 codewords (q^dim)",
                            "certified for every d in [4, 4]"]


def test_sphere_packing_text_states_a_volume_past_the_str_digit_cap(int_str_digits):
    """V_sr(75) of one 150 x 150 block over GF(2) has 5081 digits, past the default cap of
    4300 that the fixture sets: the record states it in full and leaves the cap as it was."""
    assert str(ct.SpherePackingRecord(2, 10 ** 5000, 2, 16610, True)) == \
        "1" + "0" * 5000 + " <= 2^16610"
    rec = ct.sphere_packing_check(2, {(150, 150): 1}, 16900, 151)
    text = str(rec)
    assert sys.get_int_max_str_digits() == int_str_digits == 4300
    sys.set_int_max_str_digits(0)  # the oracle's own str(); the fixture restores the cap
    assert (rec.radius, rec.holds, text) == (75, True, f"{rec.volume} <= 2^16900")


def test_sphere_packing_repr_states_a_volume_past_the_str_digit_cap(int_str_digits):
    """repr prints the fields as a NamedTuple does, the volume through the same Decimal path
    as str, so a volume past the default cap of 4300 digits is stated in full."""
    assert repr(ct.SpherePackingRecord(1, 5, 2, 3, False)) == (
        "SpherePackingRecord(radius=1, volume=5, q=2, codim=3, holds=False)")
    rec = ct.SpherePackingRecord(2, 10 ** 5000, 2, 16610, True)
    assert repr(rec) == ("SpherePackingRecord(radius=2, volume=1" + "0" * 5000
                         + ", q=2, codim=16610, holds=True)")
    assert sys.get_int_max_str_digits() == int_str_digits == 4300


@pytest.mark.parametrize("claim, proved_hi", [
    ("sphere-packing", 4), ("distance-optimal", 4), ("singleton", 6)])
def test_a_deciding_note_names_the_range_its_rule_proved(claim, proved_hi):
    """sxs q=2 s=3 m=3 past the DP states d in [4, 6].  V_sr(2) > 2^27 proves d <= 4, so the
    sphere-packing and distance-optimal notes name [4, 4]: the sphere-packing check fails at
    d = 5 and 6.  The Singleton rule proves no upper end of d, and its check holds at
    d_hi = 6, so its note keeps [4, 6]."""
    code = cs.build_recipe("distance-optimal-sxs", q=2, s=3, m=3)
    cert = ct.certify_code(code, claim)
    d = next(q for q in cert.quantities if q["name"] == "min_sum_rank_distance")
    assert (cert.verdict, d["value"]) == ("certified", [4, 6])
    assert cert.notes[-1] == f"certified for every d in [4, {proved_hi}]"
    checks = {d: ct.sphere_packing_check(*counting(code), d).holds for d in (4, 5, 6)}
    assert checks == {4: True, 5: False, 6: False}


def test_a_parts_budget_stops_are_named_by_the_part():
    """quasi-perfect-2x2's hexacode ingredient has no theorem, so past every budget it runs
    its own engines: their stops carry its index and family, so the two syndrome budget
    stops are told apart.  distance-optimal-2x2 q=5's cyclic ingredient ends at its
    Hartmann-Tzeng bound, and its parity ingredient's weight-2 word, alone in its row, weighs
    2 * 2 = 4 there: a point with that word, which notes no stop."""
    dist = ct.sr_min_distance(cs.quasi_perfect_2x2(6), ct.Budgets(enum=1, syndrome=1))
    assert (dist.lo, dist.hi) == (2, 4)
    assert dist.method == "composition(linearized: 2 parity, 2 support_test)"
    assert dist.stops == (
        "syndrome budget 1 < 2^8 syndromes (q^codim)",
        "enum budget 1 < 2^16 codewords (q^dim)",
        "ingredient 1 (explicit): syndrome budget 1 < 4^3 syndromes (q^codim)",
        "ingredient 1 (explicit): enum budget 1 < 4^3 codewords (q^dim)",
        "ingredient 1 (explicit): enum budget 1 < 6 syndrome lookups of the weight-2 support "
        "search")
    code = cs.distance_optimal_2x2(5)
    dist = ct.sr_min_distance(code)
    assert (dist.lo, dist.hi, dist.method) == (
        4, 4, "composition(linearized: 4 hartmann-tzeng, 2 parity)")
    assert dist.stops == ()
    assert sp.sum_rank_weight(code.to_word(dist.witness)) == 4
    assert contains_packed(code, dist.witness)


def test_plotkin_interval_note_names_its_own_stops_first(hexacode_code):
    """The Plotkin sum's own DP and enumeration stops, then those of its two parts, each
    named by its part.  Its parts are quasi-perfect-2x2 codes, whose hexacode ingredient has
    no theorem: past every budget each part's d stays [2, 4], and so does the sum's."""
    part = ("syndrome budget 1 < 2^8 syndromes (q^codim); "
            "enum budget 1 < 2^16 codewords (q^dim); "
            "ingredient 1 (explicit): syndrome budget 1 < 4^3 syndromes (q^codim); "
            "ingredient 1 (explicit): enum budget 1 < 4^3 codewords (q^dim); "
            "ingredient 1 (explicit): enum budget 1 < 6 syndrome lookups of the weight-2 support "
            "search")
    stops = "; ".join(["syndrome budget 1 < 2^16 syndromes (q^codim)",
                       "enum budget 1 < 2^32 codewords (q^dim)"]
                      + [f"{name} part: {stop}" for name in ("first", "second")
                         for stop in part.split("; ")])
    cert = ct.certify_code(cs.plotkin(hexacode_code, hexacode_code), "distance-optimal",
                           ct.Budgets(enum=1, syndrome=1))
    assert cert.exit_code == 2
    assert cert.quantities[2] == {"name": "min_sum_rank_distance", "value": [2, 4],
                                  "method": "composition(plotkin) (interval)"}
    assert json.loads(cert.to_json())["notes"] == [stops, "distance not settled exactly"]
    assert f"  note: {stops}\n" in cert.to_table()


@pytest.mark.parametrize("q", [4, 5, 7, 8, 9])
def test_distance_optimal_2x2_reads_its_ingredient_from_the_defining_set(q, monkeypatch):
    """The cyclic ingredient's T = {0, 1, Q, Q+1}, Q = q^2, gives d >= 4 by Hartmann-Tzeng
    (run {0, 1}, step Q), its stamped design, so neither its DP nor its support search runs
    (at q = 4 its 4^8 syndromes would fit the DP), and the code is distance-optimal,
    V_sr(2) > q^codim: d = 4, witnessed by the parity ingredient's weight-2 word alone in
    its row, of rank 2 at each of its 2 positions."""
    monkeypatch.setattr(hm, "min_distance", lambda *a: pytest.fail("support search ran"))
    code = cs.distance_optimal_2x2(q)
    cert = ct.certify_code(code, "distance-optimal")
    assert cert.verdict == "certified"
    assert cert.quantities[2] == {
        "name": "min_sum_rank_distance", "value": 4,
        "method": "composition(linearized: 4 hartmann-tzeng, 2 parity)"}
    assert cert.quantities[3]["name"] == "distance_witness"
    witness = ct.sr_min_distance(code).witness
    assert sp.sum_rank_weight(code.to_word(witness)) == 4 and contains_packed(code, witness)
    assert "syndrome_dp" not in code.ingredients[0].__dict__


def test_hamming_budget_stop_joins_both_notes(f4):
    """A Hamming code past every budget keeps the DP and enumeration stops, then the
    support search's stop; its builder's theorem gives the lower end 3 and the Singleton
    end 4, read before any engine, also at budget 0, where the search alone starts and
    stops at that weight 3."""
    code = hm.hamming_code(f4, 3)  # [21, 18, 3]_4: 4^3 syndromes, 4^18 codewords
    d = ct.sr_min_distance(code, ct.Budgets(enum=30, syndrome=2))
    assert (d.lo, d.hi, d.method, d.witness) == (3, 4, "hamming", None)
    assert d.stops == ("syndrome budget 2 < 4^3 syndromes (q^codim)",
                       "enum budget 30 < 4^18 codewords (q^dim)",
                       "enum budget 30 < 1323 syndrome lookups of the weight-3 support search")
    assert hm.min_distance(code, ct.Budgets(enum=30)).stops == d.stops[2:]
    off = ct.Budgets(enum=0, syndrome=0)
    assert (*ct.sr_min_distance(code, off)[:3], hm.min_distance(code, off).lo) == (
        3, 4, "hamming", 3)
    with pytest.raises(AttributeError):
        d.stops = ()
    settled = ct.sr_min_distance(code, ct.Budgets(syndrome=2))  # the support search settles d
    assert (settled.value, settled.method, settled.stops) == (3, "hamming / support_test", ())


def test_quasi_perfect_q4_u3_fits_the_default_budgets():
    """273 blocks of 2 x 2 over GF(4) at codim 8: 1 round x 5 lines x 4
    generators x 1 gather-min, plus the column min, per block,
    273 * (21 * 4^8 + 4^4) <= 2^30 work units."""
    code = cs.quasi_perfect_2xm(4, 2, 3)
    assert (code.profile.t, code.codim) == (273, 8)
    work = 273 * (21 * 4 ** 8 + 4 ** 4)
    assert work <= ct.Budgets().sweep < 273 * 4 ** 4 * 4 ** 8  # block values x q^codim did not
    with pytest.raises(ct.BudgetExceeded) as stop:
        code.budgeted_dp(ct.Budgets(sweep=work - 1))
    assert str(stop.value) == (f"sweep budget {work - 1} < {work} DP work units "
                               "(shift passes x q^codim + block values)")
    assert code.budgeted_dp() is code.syndrome_dp


def test_dp_budget_stop_is_noted_once(hexacode_code):
    """2^8 syndromes over budget 1 stop the DP for both d and R: enumeration settles d, whose
    point notes nothing, and R's interval names the stop, once.  The ingredient rule reads
    the hexacode's R_H at n - k = 3, so R stays [2, 6] and nothing decides."""
    cert = ct.certify_code(hexacode_code, "quasi-perfect", ct.Budgets(syndrome=1))
    assert cert.exit_code == 2
    assert cert.notes == ["syndrome budget 1 < 2^8 syndromes (q^codim)"]


def test_blocks_past_the_rank_table_cap_stop_the_dp():
    """The first Plotkin summand of plotkin-distance-optimal s=5 m=1 has 31
    blocks of 5 x 5 over GF(2): few shift passes at codim 5, but 2^25 values
    per block, past what a rank table holds, so the DP must not start."""
    first = cs.plotkin_distance_optimal(5, 1).first
    assert (first.profile.t, first.codim) == (31, 5)
    with pytest.raises(ct.BudgetExceeded) as stop:
        first.budgeted_dp()
    assert str(stop.value) == f"rank table cap {1 << 24} < 2^25 values per 5 x 5 block (q^(nm))"


def test_certificate_records_witness(qp_code):
    cert = ct.certify_code(qp_code, "distance-optimal")
    wit = next(q for q in cert.quantities if q["name"] == "distance_witness")
    word = sp.SumRankWord(qp_code.profile,
                          tuple(tuple(tuple(r) for r in mat) for mat in wit["value"]))
    assert sp.sum_rank_weight(word) == 3


def test_verdicts_stable_under_block_permutation(f2):
    """Volumes, sizes, and bounds are block-order invariant."""
    blocks = ((2, 3), (2, 2), (1, 2))
    permuted = ((1, 2), (2, 3), (2, 2))
    a = sp.MatrixProfile(f2, blocks)
    b = sp.MatrixProfile(f2, permuted)
    for r in range(a.N + 1):
        assert sp.ball_volume_exact(a, r) == sp.ball_volume_exact(b, r)
    for d in range(1, a.N + 1):
        assert (ct.singleton_like_exponent(a.shape_counts(), d)
                == ct.singleton_like_exponent(b.shape_counts(), d))
        assert (ct.distance_optimal_check(2, a.shape_counts(), a.ambient_dim - 6, d)
                == ct.distance_optimal_check(2, b.shape_counts(), b.ambient_dim - 6, d))


REFERENCE = Path(__file__).resolve().parents[1] / "bench" / "reference.json"


def _certify_job(key, parity=None):
    """The certificate text of a `certify` job key, optionally on a given parity."""
    argv = key.split()
    code = cs.build_recipe(argv[argv.index("--recipe") + 1],
                           **parse_params([a for a in argv if "=" in a]))
    if parity is not None:
        code.__dict__["flat_parity"] = parity(code)
    return ct.certify_code(code, argv[1]).to_json()


def _workloads():
    """The benchmark's job grids, `bench/workloads.py`."""
    spec = importlib.util.spec_from_file_location("workloads", REFERENCE.parent / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


# exit code and SHA-256 of the `--out` file of every benchmark certify job,
# its toolchain-version emptied: a change that claims to keep every
# certificate but the version is checked here
CERTIFICATE_SHA256 = {
    "certify quasi-perfect --recipe quasi-perfect-2xm q=2 m=2 u=2":
        (0, "441a63046c91556efb98fbf779dda15a03066764ab18f4f52b45eb9f92cde96c"),
    "certify quasi-perfect --recipe quasi-perfect-2x2 t=6":
        (0, "4d0504f7d35d130a485ba6f35d58db923bb7e51e98dbdc80ac8d321e73db3419"),
    "certify distance-optimal --recipe distance-optimal-2x2 q=3":
        (0, "2a5b7604befce3e97d5357b54db3caaf00b88d1c57c710a09bb233dfc707fa20"),
    "certify quasi-perfect --recipe quasi-perfect-2xm q=4 m=2 u=2":
        (0, "71f8eaf2ae7259f02b1aec3bb676fb8fe00c46c5861dead9eeb29a58eeabfde2"),
    "certify quasi-perfect --recipe almost-msrd-2x2 q=3 t=9":
        (1, "c119a988a2ce70e31d853788cdff6a6d9bde22989fbde7855670bd4d17309315"),
    "certify quasi-perfect --recipe distance-optimal-sxs q=3 s=2 m=1":
        (1, "c02e3204667ed2de6363ff668ade7ba4bc6072ca45fc45fa611634b11e9a68fb"),
    "certify quasi-perfect --recipe quasi-perfect-2xm q=3 m=2 u=3":
        (0, "dfb22ebeb58cabf4f52727952fbd588b859184ff28de539292e3029c5180e5db"),
    "certify quasi-perfect --recipe quasi-perfect-2xm q=5 m=2 u=2":
        (0, "b8ad4ce625a6f7dfdfb5b681b13cb3f34e85fb716fbcfb2a880a8819172b62b5"),
    "certify singleton --recipe covering-repetition q=2 m=4 t=8":
        (0, "e985ccfd33479c665b2a6ab39eccdb972904d42b4756d4c8cefa39a5755b80e2"),
    "certify msrd --recipe covering-repetition q=2 m=4 t=12":
        (1, "e135961884881d5cc4f3d8a06a7e0d289f20c071764a57278dda35adba6f5239"),
    "certify sphere-packing --recipe covering-repetition q=2 m=4 t=16":
        (0, "ba2cfe3aa60233f4ec9bcc03468db6a6cf2ea78d3e86e844d88cfddd99ac036f"),
    "certify msrd --recipe quasi-perfect-2x2 t=6":
        (1, "7df316495817199d62f8f5cdcc5d44cce87483365dcce8ce375b6e01909c39c6"),
    "certify almost-msrd --recipe almost-msrd-2x2 q=2 t=4":
        (0, "eda0bb329c5ba6fa53d49ea30aec9dd4d885ba7b08f1f0b76c5c7f877ea5bd6f"),
    "certify distance-optimal --recipe plotkin-distance-optimal s=3 m=1":
        (2, "ad231122861751056a8184cee57081a722cecc1b270aa20ecca427798fe6b99c"),
}


def test_every_certify_job_certificate_is_pinned(tmp_path, capsys):
    workloads = _workloads()
    jobs = [argv for grid in workloads.WORKLOADS.values() for argv in grid
            if argv[0] == "certify"]
    assert sorted(map(workloads.job_key, jobs)) == sorted(CERTIFICATE_SHA256)
    out = tmp_path / "cert.json"
    for argv in jobs:
        code = main([*argv, "--out", str(out)])
        capsys.readouterr()
        text = re.sub(rb'"toolchain-version": "[^"]*"', b'"toolchain-version": ""',
                      out.read_bytes())
        assert (code, hashlib.sha256(text).hexdigest()) == \
            CERTIFICATE_SHA256[workloads.job_key(argv)], argv
        refutations = [b["value"] for b in json.loads(text)["bounds"]
                       if b["name"] == "sphere_packing_refutation"]
        if workloads.job_key(argv) in STATED_REFUTATIONS:
            assert len(refutations) == 1, argv
        for stated in refutations:  # the relation the bound states holds, V_sr(r) vs q^codim
            lhs, relation, rhs = stated.split()
            q, codim = map(int, rhs.split("^"))
            rhs = q ** codim
            assert {">": int(lhs) > rhs, "<=": int(lhs) <= rhs}[relation], argv
            assert (relation == ">") == (code == 0), argv


# distance-optimal jobs whose sphere-packing refutation is stated: one certified, one not
STATED_REFUTATIONS = ("certify distance-optimal --recipe distance-optimal-2x2 q=3",
                      "certify distance-optimal --recipe plotkin-distance-optimal s=3 m=1")


# the same for sphere-packing jobs past the DP and enumeration, which the rule decides from
# the least radius r whose ball outgrows q^codim, if any, and which proves d <= 2r:
# certified at d_hi or at 2r.  The two covering-repetition codes and almost-msrd-2x2 state d
# as a point with the word of one ingredient alone (enumeration at the default budgets, or
# the DP at raised ones for almost-msrd-2x2, gives the same d); the quasi-perfect-2xm and
# sxs codes keep an interval, [3, 4] and [4, 6], whose upper end is such a word
SPHERE_PACKING_SHA256 = {
    "certify sphere-packing --recipe covering-repetition q=2 m=4 t=8 "
    "--enum-budget 2 --syndrome-budget 2":
        (0, "966af427d12e0f12d7bd92b2544493395f86670d4b2da550914deae939b8644d"),
    "certify sphere-packing --recipe covering-repetition q=2 m=4 t=1000 "
    "--enum-budget 2 --syndrome-budget 2":
        (0, "d413ff9a0471702b4316a7114efc1d3a18cec38cd49294159ff18c07981c703e"),
    "certify sphere-packing --recipe quasi-perfect-2xm q=4 m=2 u=4 --syndrome-budget 2":
        (0, "a4ad477de1659e3d5dfc768301a07ec9493df6aa0b34c88aa1471a750dcc6b0b"),
    "certify sphere-packing --recipe almost-msrd-2x2 q=7 t=49":
        (0, "da0bdfd705165e9aa9024d21ab06c32470b0eba24d3bc17ee119001665874550"),
    "certify sphere-packing --recipe distance-optimal-sxs q=2 s=3 m=3":
        (0, "2bcf3d3662e09d50020a199e2d3f715f927c7929fd3ad08dd501a34b6060929e"),
}


@pytest.mark.parametrize("key", SPHERE_PACKING_SHA256)
def test_sphere_packing_certificates_are_pinned(key):
    # the `--out` bytes, streamed into the hash: one descriptor runs to 570 MB
    args, params = build_parser().parse_known_args(key.split())
    args.params += params
    cert = ct.certify_code(cli._load_code(args), args.claim,
                           ct.Budgets(args.enum_budget, args.syndrome_budget, args.sweep_budget))
    cert.toolchain_version = ""
    digest = hashlib.sha256()
    cert.to_json(lambda text: digest.update(text.encode()))
    digest.update(b"\n")
    assert (cert.exit_code, digest.hexdigest()) == SPHERE_PACKING_SHA256[key]


def test_certify_jobs_never_build_the_flat_generator():
    # every benchmark certify job gives the bytes it gives on the generator
    # path's parity, with the dense flat generator out of reach
    jobs = [key for key in json.loads(REFERENCE.read_text())["jobs"] if key.startswith("certify ")]
    assert len(jobs) == 14
    expected = {key: _certify_job(key, generator_parity) for key in jobs}

    def refuse(code):
        raise AssertionError("the certify path read flat_generator")

    with mock.patch.object(SumRankCode, "flat_generator", property(refuse)):
        for key in jobs:
            assert _certify_job(key) == expected[key], key


def test_certify_paper_jobs_never_derive_an_ingredient_generator():
    # without --out no descriptor is written, and every engine reads the
    # ingredients' parity checks only
    jobs = _workloads().WORKLOADS["certify-paper"]
    assert len(jobs) == 8

    def certify(argv):
        code = cs.build_recipe(argv[argv.index("--recipe") + 1],
                               **parse_params([a for a in argv if "=" in a]))
        cert = ct.certify_code(code, argv[1])
        return cert.exit_code, cert.to_table()

    expected = [certify(argv) for argv in jobs]

    def refuse(code):
        raise AssertionError("the certify path read a LinearCode generator")

    with mock.patch.object(hm.LinearCode, "generator", property(refuse)):
        assert [certify(argv) for argv in jobs] == expected
