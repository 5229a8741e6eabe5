"""Exact invariants, bound evaluators, verdicts, and certificates."""

import json
import math
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from sumrank import certify as ct
from sumrank import construct as cs
from sumrank import hamming as hm
from sumrank import spaces as sp


@pytest.fixture(scope="module")
def qp_code():
    return cs.quasi_perfect_2xm(2, 2, 2)


@pytest.fixture(scope="module")
def am_code():
    return cs.almost_msrd_2x2(2, 4)


def test_sr_min_distance_exhaustive(qp_code, am_code):
    d = ct.sr_min_distance(qp_code)
    assert d.value == 3 and d.method == "syndrome-dp"
    assert sp.packed_word_weight(qp_code.profile, d.witness) == 3
    d2 = ct.sr_min_distance(am_code)
    assert d2.value == 4


def test_sr_min_distance_exhaustive_below_syndrome_budget(qp_code):
    """A syndrome budget below q^codim = 64 sends d to exhaustive enumeration."""
    d = ct.sr_min_distance(qp_code, syndrome_budget=63)
    assert d.method == "exhaustive" and d.value == 3
    assert sp.packed_word_weight(qp_code.profile, d.witness) == 3
    assert qp_code.contains_packed(d.witness)


def test_sr_min_distance_interval_names_budgets(qp_code):
    d = ct.sr_min_distance(qp_code, budget=10, syndrome_budget=2)
    assert (d.lo, d.hi) == (1, qp_code.profile.N) and not d.exact
    assert d.note == ("syndrome budget 2 < 64 syndromes (q^codim); "
                      "enum budget 10 < 2^14 codewords (q^dim)")


def test_sr_min_distance_zero_code(f4):
    z = hm.zero_code(f4, 3)
    code = cs.sr_covering([z, z])
    res = ct.sr_min_distance(code)
    assert res.infinite
    with pytest.raises(ValueError):
        _ = res.value


def test_sr_distance_matches_raw_enumeration(am_code):
    """Independent recount: stream codewords, weigh blocks by elimination."""
    best = min(w for w in (sp.sum_rank_weight(am_code.to_word(p))
                           for p in am_code.enumerate_packed()) if w)
    assert best == ct.sr_min_distance(am_code).value == 4


def test_sr_min_distance_composed(f2, f4):
    code = cs.distance_optimal_2x2(2)
    res = ct.sr_min_distance(code)
    assert res.exact and res.value == 4
    assert res.method == "syndrome-dp"
    assert sp.packed_word_weight(code.profile, res.witness) == 4
    assert code.contains_packed(res.witness)


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


def test_singleton_like_bound(f2):
    prof = sp.MatrixProfile(f2, tuple([(2, 2)] * 4))
    assert ct.singleton_like_bound(prof, 4) == 2 ** 10
    assert ct.singleton_like_bound(prof, 1) == prof.ambient_size
    het = sp.MatrixProfile(f2, ((2, 3), (2, 2)))
    assert ct.singleton_like_bound(het, 3) == 2 ** 4
    with pytest.raises(ValueError, match="out of range"):
        ct.singleton_like_bound(prof, 9)
    # block order does not change the bound
    het2 = sp.MatrixProfile(f2, ((2, 2), (2, 3)))
    for d in range(1, 5):
        assert ct.singleton_like_bound(het, d) == ct.singleton_like_bound(het2, d)


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
    rec = ct.sphere_packing_check(full.profile, full.size, 1)
    assert rec.holds and rec.equality
    assert ct.perfection_verdict(1, 0) == "perfect"
    assert ct.perfection_verdict(3, 2) == "quasi-perfect"
    assert ct.perfection_verdict(3, 1) == "perfect"
    assert ct.perfection_verdict(3, 4) == "neither"


def test_sphere_packing_sanity_on_known_codes(qp_code, am_code):
    for code, d in ((qp_code, 3), (am_code, 4)):
        rec = ct.sphere_packing_check(code.profile, code.size, d)
        assert rec.holds
        assert code.size <= ct.singleton_like_bound(code.profile, d)


def test_distance_optimal_check(f2):
    do = cs.distance_optimal_2x2(2)
    verdict, rec = ct.distance_optimal_check(do.profile, do.size, 4)
    assert verdict == "certified"
    assert rec["volume"] == 8731 and rec["rhs"] == 2 ** 60
    # [distance 5 would need a larger volume]
    small = cs.distance_optimal_sxs(2, 3, 1, 1)
    verdict_s, rec_s = ct.distance_optimal_check(small.profile, small.size, 4)
    assert verdict_s == "certified" and rec_s["volume"] == 52823


def test_distance_optimal_check_hamming(f4):
    """A Hamming ball is the sum-rank ball of 1 x 1 blocks."""
    v15, r15 = ct.distance_optimal_check(sp.MatrixProfile(f4, ((1, 1),) * 15), 4 ** 10, 4)
    assert v15 == "inconclusive" and r15["volume"] == 991
    v63, r63 = ct.distance_optimal_check(sp.MatrixProfile(f4, ((1, 1),) * 63), 4 ** 56, 4)
    assert v63 == "certified" and r63["volume"] == 17767


def test_strong_singleton_bch():
    rec = ct.strong_singleton_bch(2, 65535, 2, 16, 33)
    assert rec.applicable and rec.case == 1
    assert rec.bound == 2 ** (4 * (65535 - 32))
    assert rec.improves and rec.bound * 2 ** 64 == rec.singleton
    rec2 = ct.strong_singleton_bch(2, 65535, 2, 16, 32)
    assert rec2.case == 2 and rec2.bound == 2 ** (4 * (65535 - 16))
    bad = ct.strong_singleton_bch(2, 65535, 2, 15, 33)
    assert not bad.applicable and "59049" in bad.reason
    low_d = ct.strong_singleton_bch(2, 65535, 2, 16, 20)
    assert not low_d.applicable
    short = ct.strong_singleton_bch(2, 100, 2, 16, 33)
    assert not short.applicable


def test_block_length_bound():
    rec = ct.block_length_bound(2, 2, 4, 2, 1.0)
    assert abs(rec.value - 16 * 2 * math.log(2)) < 1e-12
    assert any("non-rigorous" in a for a in rec.assumptions)
    with pytest.raises(ValueError, match="divisibility"):
        ct.block_length_bound(2, 2, 6, 2)
    with pytest.raises(ValueError, match="divisibility"):
        ct.block_length_bound(2, 2, 4, 3)


def test_blf_relation_and_witness(f4):
    rec = ct.blf_relation_check(2, 2, 8, 2)
    assert rec.value is True
    with pytest.raises(ValueError, match="divisibility"):
        ct.blf_relation_check(2, 2, 6, 2)
    cov = cs.covering_repetition(2, 2, 3)
    radius, _ = ct.sr_covering_radius(cov)
    assert radius <= 4  # at most m * R_H = 2 * 2
    wit = ct.blf_witness(cov, radius)
    assert wit.value == 3 and f"{cov.codim},{radius}" in wit.name


def test_size_bound_from_witness(f4):
    ham = hm.hamming_code(f4, 2)
    radius, _ = hm.covering_radius(ham)
    assert radius == 1
    k_witness = ham.size  # 4^3 = 64 codewords cover radius 1
    rec = ct.size_bound_from_witness(2, 2, 5, 2, k_witness)
    assert rec.value == 4096
    with pytest.raises(ValueError, match="divisibility"):
        ct.size_bound_from_witness(2, 2, 5, 3, 64)


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
    assert rec.value == 2 ** (4 * 63 - 8)
    assert any("non-rigorous" in a for a in rec.assumptions)
    # degenerate c = 0 makes the gate trivially true
    rec0 = ct.strong_singleton_blf(2, 2, 4, 2, 3, 0.0)
    assert rec0.value == 2 ** ((3 - 1) * 4 - 4 * 2)
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
    rec_bad = ct.family_condition_checks("cyclic-d4", {"q": 5, "m": 2, "lam": 4})
    assert not rec_bad.rational_holds  # 160 >= 16
    with pytest.raises(ValueError, match="divide"):
        ct.family_condition_checks("cyclic-d4", {"q": 4, "m": 2, "lam": 7})


def test_condition_checks_sxs_and_plotkin():
    rec = ct.family_condition_checks("distance-optimal-sxs",
                                      {"q": 2, "s": 3, "m": 1, "lam": 1})
    assert rec.rational_holds and rec.exact_holds
    assert (rec.exact_lhs, rec.exact_rhs) == (52823, 32768)
    rec22 = ct.family_condition_checks("distance-optimal-sxs",
                                        {"q": 2, "s": 2, "m": 2, "lam": 1})
    assert not rec22.exact_holds
    assert (rec22.exact_lhs, rec22.exact_rhs) == (8731, 16384)
    pl2 = ct.family_condition_checks("plotkin-distance-optimal", {"s": 2, "m": 1})
    assert not pl2.rational_holds      # 2 * (3/4)^4 < 1
    assert not pl2.exact_holds
    pl3 = ct.family_condition_checks("plotkin-distance-optimal", {"s": 3, "m": 1})
    assert pl3.rational_holds
    assert not pl3.exact_holds         # 223294 < 262144 at m = 1
    assert (pl3.exact_lhs, pl3.exact_rhs) == (223294, 262144)


def test_condition_checks_rect_and_unknown_family():
    rec = ct.family_condition_checks("distance-optimal-rect",
                                      {"q": 2, "s1": 2, "s2": 3, "m": 1, "lam": 1})
    _, r1, r2 = sp.rank_distribution(2, 3, 2)  # 7 blocks 2 x 3: t = 2^3 - 1
    assert rec.exact_lhs == 1 + 7 * r1 + math.comb(7, 2) * r1 ** 2 + 7 * r2 == 9703
    assert rec.exact_rhs == 2 ** 15 and not rec.exact_holds
    assert not rec.rational_holds      # 16 < 9
    with pytest.raises(ValueError, match="checkable: cyclic-d4, quasi-perfect-2xm"):
        ct.family_condition_checks("cyclic-d4-alt", {"q": 2, "m": 3})


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
    expected = json.dumps(payload, sort_keys=True, indent=2, default=str)
    assert len(pieces) > 1 and "".join(pieces) == expected == cert.to_json()


# JSON-like trees: int lists with bools among the ints (the writer's join
# path), tuples, empty and nested containers, dict keys of every kind json
# converts (one comparable kind per dict, as sort_keys needs), escapes and
# non-ASCII text, nan/inf, ints past the 4300-digit str cap, and Fractions,
# which only `default` can write
_BIG_INTS = st.builds(lambda e, s, r: s * (10 ** e + r), st.integers(4300, 4400),
                      st.sampled_from([1, -1]), st.integers(0, 10 ** 6))
_LEAVES = (st.none() | st.booleans() | st.integers() | _BIG_INTS | st.floats()
           | st.text() | st.fractions())
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
@example(["\u00e9\n\"\\\x00", float("nan"), float("inf"), -float("inf"), Fraction(1, 3)])
def test_write_json_matches_json_dumps(tree):
    ct.unlock_big_int_strings()
    pieces = []
    ct.write_json(tree, pieces.append, default=str)
    assert "".join(pieces) == json.dumps(tree, sort_keys=True, indent=2, default=str)


def test_write_json_without_default_refuses_what_json_refuses():
    for bad in (Fraction(1, 3), {(1, 2): 0}):
        with pytest.raises(TypeError):
            json.dumps(bad, sort_keys=True, indent=2)
        with pytest.raises(TypeError):
            ct.write_json(bad, [].append)


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
def test_every_recipe_goes_through_certify_code(name):
    code = cs.build_recipe(name, **SMALL_RECIPE_PARAMS[name])
    cert = ct.certify_code(code, "sphere-packing")
    assert cert.verdict in ct.VERDICT_EXIT
    assert cert.subject == code.describe()


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
        assume(red)
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


def test_certify_perfect_full_space(f4):
    full = cs.sr_covering([hm.full_code(f4, 2), hm.full_code(f4, 2)])
    cert = ct.certify_code(full, "perfect")
    assert cert.verdict == "certified"
    rec = ct.sphere_packing_check(full.profile, full.size, 1)
    assert rec.equality  # perfect <=> equality in sphere packing


def test_certify_budget_degrades_to_inconclusive(qp_code):
    cert = ct.certify_code(qp_code, "quasi-perfect", syndrome_budget=2)
    assert cert.verdict == "inconclusive" and cert.exit_code == 2


def test_budget_stop_note_names_budget(qp_code):
    cert = ct.certify_code(qp_code, "quasi-perfect", syndrome_budget=2)
    assert "syndrome budget 2 < 64 syndromes (q^codim)" in cert.notes
    work = ct.certify_code(qp_code, "quasi-perfect", work_budget=100)
    assert work.verdict == "inconclusive"
    # 5 blocks of 2 x 2 over GF(2): 2 rounds x 3 rank-1 lines x 2 generators
    # x 1 shift each, times q^codim = 64, plus 2^4 block values
    assert work.notes == [f"sweep budget 100 < {5 * (12 * 64 + 16)} DP work units "
                          "(shift passes x q^codim + block values)"]


def test_quasi_perfect_q4_u3_fits_the_default_budgets():
    """273 blocks of 2 x 2 over GF(4) at codim 8: 2 rounds x 5 lines x 4
    generators x 1 shift per block, 273 * (40 * 4^8 + 4^4) <= 2^30 work units."""
    code = cs.quasi_perfect_2xm(4, 2, 3)
    assert (code.profile.t, code.codim) == (273, 8)
    work = 273 * (40 * 4 ** 8 + 4 ** 4)
    assert work <= ct.WORK_BUDGET < 273 * 4 ** 4 * 4 ** 8  # block values x q^codim did not
    assert ct._dp_stop(code, ct.SYNDROME_BUDGET, ct.WORK_BUDGET) is None
    assert ct._dp_stop(code, ct.SYNDROME_BUDGET, work - 1) == (
        f"sweep budget {work - 1} < {work} DP work units "
        "(shift passes x q^codim + block values)")


def test_blocks_past_the_rank_table_cap_stop_the_dp():
    """The first Plotkin summand of plotkin-distance-optimal s=5 m=1 has 31
    blocks of 5 x 5 over GF(2): few shift passes at codim 5, but 2^25 values
    per block, past what a rank table holds, so the DP must not start."""
    first = cs.plotkin_distance_optimal(5, 1).first
    assert (first.profile.t, first.codim) == (31, 5)
    assert ct._dp_stop(first, ct.SYNDROME_BUDGET, ct.WORK_BUDGET) == (
        f"rank table cap {1 << 24} < {1 << 25} values per 5 x 5 block (q^(nm))")


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
        assert ct.singleton_like_bound(a, d) == ct.singleton_like_bound(b, d)
        assert (ct.distance_optimal_check(a, 2 ** 6, d)
                == ct.distance_optimal_check(b, 2 ** 6, d))
