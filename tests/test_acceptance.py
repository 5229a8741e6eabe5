"""Acceptance criteria, one test per criterion.

Every golden number asserted here is first reproduced by an independent
oracle inside the test (brute-force enumeration, elimination ranks, full
ambient sweeps, closed-form recounts) and only then compared with the
production path and the frozen constant.  Each test prints one pass line
and enforces its runtime budget.

Run with `pytest tests/test_acceptance.py -v -s` for the per-criterion
report.
"""

import time
from fractions import Fraction

import pytest

from sumrank import certify as ct
from sumrank import construct as cs
from sumrank import hamming as hm
from sumrank import spaces as sp
from sumrank.construct import field_of_order
from sumrank.gf import make_field

from oracles import (blf_witness, brute_rank_counts, code_size, composition_source,
                     contains_packed, counting, hamming_weight, hartmann_tzeng_bound,
                     radius2_ball_lower_bound, singleton_full, sphere_packing_full)

PRIME_POWERS_32 = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32]

# codes constructed across the suite, with their exact distances,
# re-checked wholesale by criterion 12
REGISTRY: list = []


def register(code, d_exact):
    REGISTRY.append((code, d_exact))


def report(num, elapsed, budget, detail):
    assert elapsed < budget, f"criterion {num} exceeded its {budget}s budget ({elapsed:.1f}s)"
    print(f"criterion {num:>2}: PASS ({elapsed:6.1f}s < {budget}s) {detail}")


def elimination_weight(code, packed):
    """Independent sum-rank weight: per-block Gaussian elimination."""
    word = code.to_word(packed)
    return sp.sum_rank_weight(word)


def validate_rank_tables(field, shapes):
    """Elimination-rank oracle for every packed matrix of the given shapes."""
    for n, m in shapes:
        arr = sp.rank_array(field, n, m)
        for packed in range(field.order ** (n * m)):
            assert arr[packed] == sp.rank(field, sp.unpack_matrix(field, packed, n, m))


@pytest.fixture(scope="module")
def f2():
    return make_field(2, [1])


@pytest.fixture(scope="module")
def f4():
    return make_field(2, [2])


@pytest.fixture(scope="module")
def qp_2xm():
    return cs.quasi_perfect_2xm(2, 2, 2)


@pytest.fixture(scope="module")
def qp_2x2():
    return cs.quasi_perfect_2x2(6)


def test_criterion_01_rank_count_oracle():
    """count_rank_matrices vs exhaustive enumeration, q^(nm) <= 2^20."""
    t0 = time.monotonic()
    shapes = 0
    for q in PRIME_POWERS_32:
        field = field_of_order(q)
        for n in range(1, 21):
            for m in range(n, 21):
                if q ** (n * m) > 1 << 20:
                    continue
                counts = brute_rank_counts(field, n, m)
                formula = [sp.count_rank_matrices(n, m, r, q)
                           for r in range(min(n, m) + 1)]
                assert counts == formula, (q, n, m)
                assert sum(counts) == q ** (n * m)
                shapes += 1
    assert sp.count_rank_matrices(2, 2, 1, 2) == 9
    assert sp.count_rank_matrices(3, 3, 1, 2) == 49
    report(1, time.monotonic() - t0, 10,
           f"formula == enumeration on {shapes} shapes; (2,2,1,2)=9, (3,3,1,2)=49")


def test_criterion_02_ball_volume_oracle():
    """DP volumes vs brute enumeration; dominance over the radius-2 bound."""
    t0 = time.monotonic()
    profiles = [
        (2, [(2, 2)] * 2), (2, [(2, 2)] * 3), (2, [(2, 2)] * 5),
        (2, [(2, 3), (2, 2)]), (2, [(2, 3)] * 2), (2, [(2, 3), (2, 2), (1, 1)]),
        (2, [(3, 3)] * 2), (2, [(1, 1)] * 10), (2, [(1, 2), (1, 3), (2, 2)]),
        (3, [(2, 2)] * 2), (3, [(2, 2), (1, 2)]), (3, [(2, 3), (2, 2)]),
        (4, [(2, 2)] * 2), (4, [(2, 2), (1, 1)]), (5, [(2, 2)]),
    ]
    checked = 0
    for q, blocks in profiles:
        prof = sp.MatrixProfile(field_of_order(q), tuple(blocks))
        assert prof.ambient_size <= 1 << 20
        weights = sp.brute_weight_array(prof)
        for r in range(prof.N + 1):
            assert sp.ball_volume_exact(prof, r) == int((weights <= r).sum())
            checked += 1
    for q in (2, 3):
        field = field_of_order(q)
        for s in (1, 2, 3):
            for t in range(2, 21):
                prof = sp.MatrixProfile(field, tuple([(s, s)] * t))
                bound = radius2_ball_lower_bound(t, s, q)
                assert bound <= sp.ball_volume_exact(prof, 2)
    report(2, time.monotonic() - t0, 60,
           f"DP == brute on {len(profiles)} profiles ({checked} radii); "
           "radius-2 lower bound dominated on t<=20, s<=3, q in {2,3}")


def test_criterion_03_quasi_perfect_2xm(qp_2xm, f2):
    """2 x 2 family instance: t=5, dim 14, d=3, R=2, quasi-perfect."""
    t0 = time.monotonic()
    code = qp_2xm
    assert code.profile.t == 5 and code.dim == 14
    validate_rank_tables(f2, {(2, 2)})
    # syndrome-DP distance over the 64 syndromes, weights by validated tables
    dp = code.budgeted_dp()
    assert dp.distance == 3 and elimination_weight(code, dp.witness) == 3
    # the composition's [3, 4] is read first, and the DP closes it with its word
    dist = ct.sr_min_distance(code)
    assert dist.method == "composition(linearized: 3 hamming, 2 parity) / syndrome-dp"
    assert (dist.value, dist.witness) == (3, dp.witness)
    # exact covering radius: 64-syndrome DP over the 2^20 ambient
    radius, table = ct.sr_covering_radius(code)
    assert radius == 2 and len(table.leader_weight) == 64
    # independent oracle: full ambient sweep, per-syndrome agreement
    sweep_radius, sweep_table = ct.sr_covering_radius_sweep(code)
    assert sweep_radius == 2 and sweep_table == table.leader_weight
    assert ct.perfection_verdict(dist.value, radius) == "quasi-perfect"
    # proof inequality: V_sr(2,2) = 886 > 64 = q^(m(u+1))
    prof = code.profile
    vol_brute = int((sp.brute_weight_array(prof) <= 2).sum())
    assert vol_brute == sp.ball_volume_exact(prof, 2) == 886
    assert 886 > 64 == 2 ** (2 * 3)
    register(code, 3)
    report(3, time.monotonic() - t0, 120,
           "t=5 dim=14; d=3 syndrome DP; R=2 DP == 2^20 sweep; 886 > 64")


def test_criterion_04_distance_optimal_2x2(f2, f4):
    """Block length 15 family at q=2: certified distance-optimal, defect 4."""
    t0 = time.monotonic()
    code = cs.distance_optimal_2x2(2)
    c1 = code.ingredients[0]
    assert c1.defining_set == (0, 1, 4, 5) and (c1.n, c1.k) == (15, 11)
    # Hartmann-Tzeng preconditions verified inside the bound call
    assert hartmann_tzeng_bound(c1.defining_set, 15, [0, 1], [0, 4], 4, 1) == 4
    d1 = hm.min_distance(c1)
    assert d1.value == 4 and hamming_weight(d1.witness) == 4
    assert contains_packed(c1, d1.witness)
    assert code.dim == 50
    # d_sr = 4: composition lower bound plus a weight-4 witness
    assert code.composition_lower_bound([d1.value, 2]) == 4
    # the ingredients' ends: c1's Hartmann-Tzeng bound, the parity theorem; c1's DP never runs
    source = composition_source(code)
    assert (source.lo, source.method) == (4, "composition(linearized: 4 hartmann-tzeng, 2 parity)")
    assert hm.bch_bound(c1.defining_set, 15) == (4, "hartmann-tzeng")
    assert "syndrome_dp" not in c1.__dict__
    dist = ct.sr_min_distance(code)
    assert dist.exact and dist.value == 4
    assert elimination_weight(code, dist.witness) == 4
    assert contains_packed(code, dist.witness)
    # volume recount by the closed form 1 + 15*9 + 15*6 + C(15,2)*81
    recount = 1 + 15 * 9 + 15 * 6 + 105 * 81
    assert recount == sp.ball_volume_exact(code.profile, 2) == 8731
    verdict, rec = ct.distance_optimal_check(*counting(code), 4)
    assert verdict == "certified"
    assert (rec.volume, rec.q, rec.codim) == (8731, 2, 10)
    # the full-size form: |C| * 8731 = 2^50 * 8731 > 2^60, the same as 8731 > 2^10
    assert not sphere_packing_full(code.profile, code_size(code), 5)
    assert 8731 > 1024
    assert ct.singleton_defect(code.profile, code.dim, 4) == 4
    register(code, 4)
    report(4, time.monotonic() - t0, 120,
           "[15,11,4]_4 verified (HT + support witness); dim 50; d_sr=4; "
           "8731 > 1024 certified; defect 4")


def test_criterion_05_almost_msrd(f2):
    """Reed-Solomon based 2 x 2 instance at t=4: defect exactly 2."""
    t0 = time.monotonic()
    code = cs.almost_msrd_2x2(2, 4)
    words = list(code.enumerate_packed())
    assert len(words) == 256
    weights = sorted(elimination_weight(code, w) for w in words)
    assert weights[0] == 0 and weights[1] == 4  # exhaustive d = 4 by elimination
    dist = ct.sr_min_distance(code)
    assert dist.value == 4
    assert ct.singleton_defect(code.profile, code.dim, 4) == 2
    name, _ = ct.msrd_verdict(code.profile, code.dim, 4)
    assert name == "almost-MSRD"
    register(code, 4)
    report(5, time.monotonic() - t0, 5,
           "exhaustive d=4 over 256 codewords; defect 2; almost-MSRD")


def test_criterion_06_binary_2x2_quasi_perfect(qp_2x2, f2, f4):
    """Binary 2 x 2 family from a [6,3,4]_4 ingredient of covering radius 2."""
    t0 = time.monotonic()
    code = qp_2x2
    ingredient = code.ingredients[1]
    assert (ingredient.n, ingredient.k) == (6, 3)
    assert ct.sr_min_distance(ingredient).value == 4
    # the suite itself verifies the ingredient covering radius two ways
    r_h, tab_h = hm.covering_radius(ingredient)
    assert r_h == 2 and len(tab_h.leaders) == 64
    assert ct.sr_covering_radius_sweep(ingredient)[0] == 2
    # syndrome-DP d_sr over the 256 syndromes
    validate_rank_tables(f2, {(2, 2)})
    dp = code.budgeted_dp()
    assert dp.distance == 4 and elimination_weight(code, dp.witness) == 4
    # the composition, read first, closes d with the parity word alone in its row
    dist = ct.sr_min_distance(code)
    assert dist.method == "composition(linearized: 2 parity, 4 syndrome-dp)"
    assert dist.value == 4 and elimination_weight(code, dist.witness) == 4
    # exact R_sr: syndrome DP, then the full 2^24 ambient sweep oracle
    radius, table = ct.sr_covering_radius(code)
    assert radius == 2 and len(table.leader_weight) == 2 ** code.codim
    sweep_radius, sweep_table = ct.sr_covering_radius_sweep(code, budget=1 << 24)
    assert sweep_radius == 2 and sweep_table == table.leader_weight
    assert ct.perfection_verdict(4, 2) == "quasi-perfect"
    # even minimum distance: quasi-perfect implies distance-optimal; the
    # sphere-packing criterion certifies it independently here
    verdict, _ = ct.distance_optimal_check(*counting(code), 4)
    assert verdict == "certified"
    register(code, 4)
    report(6, time.monotonic() - t0, 600,
           f"ingredient [6,3,4]_4 G={ingredient.generator} has R_H=2; "
           "d_sr=4; R_sr=2 (DP == 2^24 sweep); quasi-perfect")


def test_criterion_07_covering_construction(f2, f4):
    """Covering construction bound and full-block extension invariance."""
    t0 = time.monotonic()
    rep = hm.repetition_code(f4, 3)
    assert hm.covering_radius(rep)[0] == 2  # m * R_H = 4
    code = cs.covering_repetition(2, 2, 3)
    assert code.codim == 8
    radius, table = ct.sr_covering_radius(code)
    assert radius <= 4
    sweep_radius, sweep_table = ct.sr_covering_radius_sweep(code)
    assert sweep_radius == radius and sweep_table == table.leader_weight
    extended = cs.extend_full_blocks(code, 1)
    radius_ext, _ = ct.sr_covering_radius(extended)
    assert radius_ext == radius
    sweep_ext, _ = ct.sr_covering_radius_sweep(extended)
    assert sweep_ext == radius
    wit = blf_witness(code, radius)
    assert wit.value == 3
    d = ct.sr_min_distance(code)
    register(code, d.value)
    register(extended, ct.sr_min_distance(extended).value)
    report(7, time.monotonic() - t0, 30,
           f"exact R_sr = {radius} <= 4 = m*R_H (ambient 2^12 swept); "
           "extension keeps R_sr; blf witness at codim 8")


def test_criterion_08_weight_identity(f2, f4):
    """2 wt(c1) + 2 wt(c2) - 3 |overlap| identity, zero exceptions."""
    t0 = time.monotonic()
    pairs = [
        (hm.repetition_code(f4, 3), hm.parity_check_code(f4, 3)),
        (hm.parity_check_code(f4, 3), hm.repetition_code(f4, 3)),
        (hm.full_code(f4, 2), hm.repetition_code(f4, 2)),
        (hm.parity_check_code(f4, 2), hm.full_code(f4, 2)),
        (hm.cyclic_code(3, f4, [0]), hm.full_code(f4, 3)),
    ]
    validate_rank_tables(f2, {(2, 2)})
    checked = 0
    for c1, c2 in pairs:
        code = cs.sr_linearized([c1, c2])
        for w1 in c1.codeword_list():
            for w2 in c2.codeword_list():
                packed = code.packed_from_symbols([w1, w2])
                wt = elimination_weight(code, packed)
                overlap = sum(1 for a, b in zip(w1, w2) if a and b)
                expected = (2 * hamming_weight(w1) + 2 * hamming_weight(w2)
                            - 3 * overlap)
                assert wt == expected
                checked += 1
    report(8, time.monotonic() - t0, 60,
           f"identity holds on all {checked} codeword pairs over "
           f"{len(pairs)} ingredient pairs")


def test_criterion_09_plotkin(f2, f4):
    """Plotkin dimension/distance rules; the doubled-length pipeline."""
    t0 = time.monotonic()
    instances = [
        (cs.sr_linearized([hm.full_code(f4, 2), hm.full_code(f4, 2)]),
         cs.sr_linearized([hm.repetition_code(f4, 2), hm.full_code(f4, 2)])),
        (cs.sr_linearized([hm.parity_check_code(f4, 3), hm.full_code(f4, 3)]),
         cs.sr_linearized([hm.repetition_code(f4, 3), hm.repetition_code(f4, 3)])),
        (cs.sr_covering([hm.full_code(f4, 2), hm.parity_check_code(f4, 2)]),
         cs.sr_covering([hm.repetition_code(f4, 2), hm.repetition_code(f4, 2)])),
    ]
    for c1, c2 in instances:
        pk = cs.plotkin(c1, c2)
        assert pk.dim == c1.dim + c2.dim
        d1 = min(w for w in (elimination_weight(c1, p)
                             for p in c1.enumerate_packed()) if w)
        d2 = min(w for w in (elimination_weight(c2, p)
                             for p in c2.enumerate_packed()) if w)
        d_pk = min(w for w in (elimination_weight(pk, p)
                               for p in pk.enumerate_packed()) if w)
        assert d_pk == min(2 * d1, d2)
        register(pk, d_pk)
    # doubled-length pipeline at s=3, m=1
    pl = cs.plotkin_distance_optimal(3, 1)
    assert pl.profile.t == 14 and pl.dim == 108
    d = ct.sr_min_distance(pl)
    assert d.exact and d.value == 4
    verdict, rec = ct.distance_optimal_check(*counting(pl), 4)
    assert verdict in ("certified", "inconclusive")
    assert str(rec) == "223294 <= 2^18"
    assert verdict == "inconclusive"  # 223294 < 2^18 at m = 1
    register(pl, 4)
    # s = 2: the final inequality 2(1 - 1/4)^4 >= 1 fails; recorded, not certified
    assert Fraction(2) * Fraction(3, 4) ** 4 < 1
    # (at m = 1 the cyclic half's defining set covers all 3 residues: refused)
    # its exact criterion at the built codim 14 holds all the same (35686 > 2^14)
    rec2 = ct.family_condition_checks("plotkin-distance-optimal", {"s": 2, "m": 2})
    assert not rec2.rational_holds and rec2.exact_holds
    report(9, time.monotonic() - t0, 60,
           "dim and min{2d1,d2} exact on 3 instances; s=3,m=1 pipeline "
           "inconclusive (223294 < 262144); s=2 failure 81/128 < 1 recorded")


def test_criterion_10_cyclic_families(f4):
    """Distance-4 cyclic families and their exact optimality criteria."""
    t0 = time.monotonic()
    c15 = cs.cyclic_d4(4, 2, 1)
    assert (c15.n, c15.k) == (15, 10)
    assert c15.defining_set == (0, 1, 2, 4, 8)
    d15 = hm.min_distance(c15)
    assert d15.value == 4 and contains_packed(c15, d15.witness)
    c63 = cs.cyclic_d4(4, 3, 1)
    assert (c63.n, c63.k) == (63, 56)
    d63 = hm.min_distance(c63)
    assert d63.value == 4 and contains_packed(c63, d63.witness)
    # exact optimality criterion: V_H recomputed from binomials
    v15 = 1 + 15 * 3 + 105 * 9
    v63 = 1 + 63 * 3 + 1953 * 9
    assert v15 == sp.ball_volume(4, {(1, 1): 15}, 2) == 991
    assert v63 == sp.ball_volume(4, {(1, 1): 63}, 2) == 17767
    assert not 991 > 1024
    assert 17767 > 16384
    assert ct.distance_optimal_check(*counting(c15), 4)[0] == "inconclusive"
    assert ct.distance_optimal_check(*counting(c63), 4)[0] == "certified"
    # ternary and quinary split-defining-set codes at the smallest lengths
    c26 = cs.cyclic_d4_alt(3, 3)
    assert (c26.n, c26.k) == (26, 19)
    d26 = hm.min_distance(c26)
    assert d26.lo >= 4
    c24 = cs.cyclic_d4_alt(5, 2)
    assert (c24.n, c24.k) == (24, 19)
    d24 = hm.min_distance(c24)
    assert d24.lo >= 4
    report(10, time.monotonic() - t0, 120,
           "[15,10,4]_4 and [63,56,4]_4 support-tested; 991 < 1024, "
           "17767 > 16384; [26,19]_3 and [24,19]_5 have d >= 4")


def test_criterion_11_strong_singleton():
    """Strong bound strictly below the Singleton-like bound, big integers."""
    t0 = time.monotonic()
    m, e, n, t = 2, 2, 16, 65535
    assert 2 ** 16 >= 3 ** 10
    for i in range(1, 16):
        d = 4 * m * m * e + i
        rec = ct.strong_singleton_bch(m, t, e, n, d)
        assert rec.applicable and rec.case == 1
        assert rec.exponent == 4 * (t - 32)
        singleton_exponent = 4 * t - 62 - 2 * i
        assert rec.singleton_exponent == singleton_exponent
        assert rec.exponent < singleton_exponent and rec.improves
    rec0 = ct.strong_singleton_bch(m, t, e, n, 4 * m * m * e)
    assert rec0.case == 2 and rec0.exponent == 4 * (t - 16)
    assert not ct.strong_singleton_bch(m, t, e, 15, 33).applicable
    report(11, time.monotonic() - t0, 1,
           "2^(4(t-32)) < 2^(4t-62-2i) for all i in [1,15]; gate 2^16 >= 3^10")


def test_criterion_12_sanity_invariants():
    """Sphere packing and the Singleton-like bound hold on every code."""
    t0 = time.monotonic()
    assert REGISTRY, "earlier criteria populate the registry"
    for code, d in REGISTRY:
        rec = ct.sphere_packing_check(*counting(code), d)
        assert rec.holds, f"sphere packing violated on {code.describe()}"
        assert sphere_packing_full(code.profile, code_size(code), d)
        assert singleton_full(code.profile, code_size(code), d)
    report(12, time.monotonic() - t0, 60,
           f"sphere packing and Singleton-like hold on all "
           f"{len(REGISTRY)} constructed codes")
