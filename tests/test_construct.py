"""Sum-rank constructions: blocks, linearity, composition rules, recipes."""

import json
from pathlib import Path

import pytest

from sumrank import certify as ct
from sumrank import construct as cs
from sumrank import hamming as hm
from sumrank import spaces as sp
from sumrank.cli import parse_params
from sumrank.gf import make_field

from oracles import hamming_weight


def _weights(code, budget=1 << 16):
    ra = [sp.rank_array(code.base, n, m) for n, m in code.profile.blocks]
    return [sum(int(t[pk]) for t, pk in zip(ra, packed))
            for packed in code.enumerate_packed(budget)]


def _exact_d(code):
    ws = [w for w in _weights(code) if w]
    return min(ws)


def test_zero_ingredients_give_zero_code(f4):
    z = hm.zero_code(f4, 3)
    code = cs.sr_covering([z, z])
    assert code.size == 1
    assert list(code.enumerate_packed()) == [(0, 0, 0)]


def test_covering_size_and_membership(f4):
    rep = hm.repetition_code(f4, 3)
    code = cs.sr_covering([rep, rep])
    assert code.size == 16 and code.profile.blocks == ((2, 2),) * 3
    words = list(code.enumerate_packed())
    assert len(words) == len(set(words)) == 16
    for m1 in range(4):
        for m2 in range(4):
            word = code.encode([(m1,), (m2,)])
            assert code.contains_packed(word.packed_blocks())


def test_covering_single_row_is_weight_one(f4):
    full = hm.full_code(f4, 3)
    code = cs.sr_covering([full, full])
    # c_1 = e_1 (weight-1 word of the full code), c_2 = 0
    word = code.packed_from_symbols([(1, 0, 0), (0, 0, 0)])
    assert sp.packed_word_weight(code.profile, word) == 1


def test_linearized_block_ranks(f2, f4):
    lin = cs.sr_linearized([hm.full_code(f4, 1), hm.full_code(f4, 1)])
    assert sp.rank(f2, lin.block_matrix([1, 0])) == 2      # f(x) = x
    assert sp.rank(f2, lin.block_matrix([1, 2])) == 1      # f(x) = x + w x^2
    assert sp.rank(f2, lin.block_matrix([1, 1])) == 1      # f(x) = x + x^2
    assert sp.rank(f2, lin.block_matrix([0, 0])) == 0


def test_binary_2x2_weight_identity(f2, f4):
    """wt_sr = 2 wt_H(c1) + 2 wt_H(c2) - 3|supp overlap| for q=2, 2x2."""
    c1 = hm.parity_check_code(f4, 3)
    c2 = hm.repetition_code(f4, 3)
    code = cs.sr_linearized([c1, c2])
    for w1 in c1.codeword_list():
        for w2 in c2.codeword_list():
            packed = code.packed_from_symbols([w1, w2])
            wt = sp.packed_word_weight(code.profile, packed)
            overlap = sum(1 for a, b in zip(w1, w2) if a and b)
            assert wt == 2 * hamming_weight(w1) + 2 * hamming_weight(w2) - 3 * overlap


def test_encode_linearity(f2, f4):
    c1 = hm.hamming_code(f4, 2)
    c2 = hm.parity_check_code(f4, 5)
    code = cs.sr_linearized([c1, c2])
    ext = code.ext
    msgs = [((1, 0, 2), (0, 1, 0, 3)), ((2, 2, 0), (1, 0, 0, 1))]
    summed = tuple(tuple(ext.add(a, b) for a, b in zip(ma, mb))
                   for ma, mb in zip(*msgs))
    w1 = code.encode(msgs[0])
    w2 = code.encode(msgs[1])
    ws = code.encode(summed)
    assert sp.word_add(w1, w2) == ws


def test_enumeration_is_injective(f2, f4):
    code = cs.sr_linearized([hm.reed_solomon(f4, 4, 1),
                             hm.parity_check_code(f4, 4)])
    words = list(code.enumerate_packed())
    assert len(words) == code.size == 256
    assert len(set(words)) == 256


def test_composition_lower_bound_holds(f2, f4):
    """Exhaustive d_sr >= min{i * d_i} on small linearized instances."""
    cases = [
        [hm.hamming_code(f4, 2), hm.parity_check_code(f4, 5)],
        [hm.repetition_code(f4, 3), hm.parity_check_code(f4, 3)],
        [hm.parity_check_code(f4, 3), hm.repetition_code(f4, 3)],
        [hm.reed_solomon(f4, 4, 2), hm.full_code(f4, 4)],
    ]
    for ingredients in cases:
        code = cs.sr_linearized(ingredients)
        lower = code.composition_lower_bound()
        assert _exact_d(code) >= lower
    # rectangular blocks obey the same composition rule
    f8 = make_field(2, [3])
    rect_cases = [
        [hm.repetition_code(f8, 2), hm.full_code(f8, 2)],
        [hm.parity_check_code(f8, 3), hm.parity_check_code(f8, 3)],
    ]
    for ingredients in rect_cases:
        code = cs.sr_linearized(ingredients)
        assert code.profile.blocks[0] == (2, 3)
        assert _exact_d(code) >= code.composition_lower_bound()


def test_rectangular_linearized(f2):
    f8 = make_field(2, [3])
    c1 = hm.parity_check_code(f8, 3)
    c2 = hm.full_code(f8, 3)
    code = cs.sr_linearized([c1, c2])
    assert code.profile.blocks == ((2, 3),) * 3
    assert code.dim == 3 * (2 + 3)
    words = list(code.enumerate_packed(1 << 16))
    assert len(set(words)) == code.size
    arr = sp.rank_array(f2, 2, 3)
    assert max(int(arr[pk]) for w in words for pk in w) <= 2


def test_covering_requires_m_ingredients(f4):
    with pytest.raises(ValueError, match="exactly 2 ingredients"):
        cs.sr_covering([hm.repetition_code(f4, 3)])


@pytest.mark.parametrize("construct", [cs.sr_covering, cs.sr_linearized])
def test_prime_field_ingredients_rejected(f2, construct):
    """GF(p) has no subfield to serve as the base field."""
    with pytest.raises(ValueError, match="prime field"):
        construct([hm.repetition_code(f2, 3)])


def test_mismatched_ingredients_rejected(f2, f4):
    with pytest.raises(ValueError, match="lengths"):
        cs.sr_covering([hm.repetition_code(f4, 3), hm.repetition_code(f4, 4)])
    f16 = f4.extension(2)
    with pytest.raises(ValueError, match="alphabets"):
        cs.sr_covering([hm.repetition_code(f4, 3), hm.repetition_code(f16, 3)])


def test_extend_full_blocks(f4, f2):
    rep = hm.repetition_code(f4, 3)
    base_code = cs.sr_covering([rep, rep])
    ext = cs.extend_full_blocks(base_code, 1)
    assert ext.profile.t == 4 and ext.dim == base_code.dim + 4
    assert ext.size == 256
    words = list(ext.enumerate_packed())
    assert len(set(words)) == 256
    with pytest.raises(ValueError, match="positive"):
        cs.extend_full_blocks(base_code, 0)
    # extending the full-space code yields the full-space code
    full = cs.sr_covering([hm.full_code(f4, 2), hm.full_code(f4, 2)])
    extended = cs.extend_full_blocks(full, 1)
    assert extended.size == extended.profile.ambient_size


def test_plotkin_golden(f2, f4):
    c_full = cs.sr_linearized([hm.full_code(f4, 2), hm.full_code(f4, 2)])
    c_zero = cs.sr_covering([hm.zero_code(f4, 2), hm.zero_code(f4, 2)])
    with pytest.raises(ValueError, match="profile"):
        cs.plotkin(c_full, cs.sr_covering([hm.zero_code(f4, 3), hm.zero_code(f4, 3)]))
    # C2 = {0}: every weight doubles
    doubled = cs.plotkin(c_full, c_zero)
    ws = sorted(_weights(doubled))
    base_ws = sorted(2 * w for w in _weights(c_full))
    assert ws == base_ws
    # C1 = {0}: distances preserved
    kept = cs.plotkin(c_zero, c_full)
    assert sorted(_weights(kept)) == sorted(_weights(c_full))


def test_plotkin_dimension_and_distance(f2, f4):
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
        d1, d2 = _exact_d(c1), _exact_d(c2)
        assert _exact_d(pk) == min(2 * d1, d2)


def test_flat_generator_rank_equals_dim(f2, f4):
    codes = [
        cs.sr_covering([hm.repetition_code(f4, 3), hm.repetition_code(f4, 3)]),
        cs.sr_linearized([hm.hamming_code(f4, 2), hm.parity_check_code(f4, 5)]),
        cs.quasi_perfect_2x2(6),
    ]
    for code in codes:
        assert len(code.flat_generator) == code.dim
        assert len(code.flat_parity) == code.codim
        # G . H^T = 0 over the base field
        f = code.base
        for g in code.flat_generator[:4]:
            for h in code.flat_parity[:4]:
                acc = 0
                for x, y in zip(g, h):
                    acc = f.add(acc, f.mul(x, y))
                assert acc == 0


def test_covering_vs_linearized_not_assumed_equivalent(f2, f4):
    """Both constructions build valid codes of equal size from the same
    ingredients; no equivalence between them is asserted anywhere."""
    rep = hm.repetition_code(f4, 3)
    par = hm.parity_check_code(f4, 3)
    cov = cs.sr_covering([rep, par])
    lin = cs.sr_linearized([rep, par])
    assert cov.size == lin.size
    assert len(set(cov.enumerate_packed())) == cov.size
    assert len(set(lin.enumerate_packed())) == lin.size


@pytest.mark.parametrize("t, ingredient, message", [
    (6, lambda f4: hm.parity_check_code(f4, 6), "minimum distance must be 4"),  # d = 2
    (4, lambda f4: hm.reed_solomon(f4, 4, 1), "covering radius must be 2"),     # d = 4, R = 3
])
def test_quasi_perfect_2x2_gate_refuses_ingredient(f4, t, ingredient, message):
    with pytest.raises(ValueError, match=message):
        cs.quasi_perfect_2x2(t, ingredient(f4))


def test_recipe_gates():
    with pytest.raises(ValueError, match="gate"):
        cs.quasi_perfect_2xm(2, 2, 1)
    with pytest.raises(ValueError, match="gate"):
        cs.quasi_perfect_2x2(7)
    with pytest.raises(ValueError, match="gate"):
        cs.cyclic_d4(4, 2, 7)
    with pytest.raises(ValueError, match="gate"):
        cs.cyclic_d4_alt(4, 2)
    with pytest.raises(ValueError, match="gate"):
        cs.almost_msrd_2x2(2, 5)
    with pytest.raises(ValueError, match="gate"):
        cs.almost_msrd_2x2(2, 3)
    with pytest.raises(ValueError, match="gate"):
        cs.distance_optimal_sxs(2, 1, 2)
    with pytest.raises(ValueError, match="gate"):
        cs.distance_optimal_rect(2, 2, 2, 1)


def test_recipe_golden_parameters():
    qp = cs.quasi_perfect_2xm(2, 2, 2)
    assert (qp.t, qp.dim) == (5, 14)
    do = cs.distance_optimal_2x2(2)
    assert (do.t, do.dim) == (15, 50)
    am = cs.almost_msrd_2x2(2, 4)
    assert am.dim == 8
    c = cs.cyclic_d4(4, 2)
    assert (c.n, c.k) == (15, 10)
    c3 = cs.cyclic_d4_alt(3, 3)
    assert (c3.n, c3.k) == (26, 19)
    c5 = cs.cyclic_d4_alt(5, 2)
    assert (c5.n, c5.k) == (24, 19)
    rect = cs.distance_optimal_rect(2, 2, 3, 1)
    assert rect.profile.blocks == ((2, 3),) * 7
    assert rect.dim == 3 * (4 + 6)


def test_build_recipe_dispatch():
    code = cs.build_recipe("quasi-perfect-2xm", q=2, m=2, u=2)
    assert code.dim == 14
    with pytest.raises(ValueError, match="unknown recipe"):
        cs.build_recipe("nope")
    with pytest.raises(ValueError, match="unexpected parameters"):
        cs.build_recipe("quasi-perfect-2xm", q=2, m=2, u=2, z=1)


def test_field_of_order():
    assert cs.field_of_order(9).order == 9
    assert cs.field_of_order(8).order == 8
    with pytest.raises(ValueError, match="prime power"):
        cs.field_of_order(6)


def test_describe_roundtrip_deterministic():
    import json
    a = cs.build_recipe("almost-msrd-2x2", q=2, t=4)
    b = cs.build_recipe("almost-msrd-2x2", q=2, t=4)
    assert json.dumps(a.describe(), sort_keys=True) == json.dumps(b.describe(), sort_keys=True)


REFERENCE = Path(__file__).resolve().parents[1] / "bench" / "reference.json"


def _syndrome_stop(codim_bits):
    return f"syndrome budget 65536 < {2 ** codim_bits} syndromes (q^codim)"


# why the syndrome DP may not run at the default budgets, per certify job
# (None: it runs); a job that moves between the DP, enumeration and the
# composition rules changes its certificate's method
DP_STOPS = {
    "certify almost-msrd --recipe almost-msrd-2x2 q=2 t=4": None,
    "certify distance-optimal --recipe distance-optimal-2x2 q=3": None,
    "certify distance-optimal --recipe plotkin-distance-optimal s=3 m=1": _syndrome_stop(18),
    "certify msrd --recipe covering-repetition q=2 m=4 t=12": _syndrome_stop(176),
    "certify msrd --recipe quasi-perfect-2x2 t=6": None,
    "certify quasi-perfect --recipe almost-msrd-2x2 q=3 t=9": None,
    "certify quasi-perfect --recipe distance-optimal-sxs q=3 s=2 m=1": None,
    "certify quasi-perfect --recipe quasi-perfect-2x2 t=6": None,
    "certify quasi-perfect --recipe quasi-perfect-2xm q=2 m=2 u=2": None,
    "certify quasi-perfect --recipe quasi-perfect-2xm q=3 m=2 u=3": None,
    "certify quasi-perfect --recipe quasi-perfect-2xm q=4 m=2 u=2": None,
    "certify quasi-perfect --recipe quasi-perfect-2xm q=5 m=2 u=2": None,
    "certify singleton --recipe covering-repetition q=2 m=4 t=8": _syndrome_stop(112),
    "certify sphere-packing --recipe covering-repetition q=2 m=4 t=16": _syndrome_stop(240),
}


def test_flat_parity_of_every_certify_job_is_pinned():
    # the RREF is unique, so every grid code keeps the parity matrix the
    # benchmark's reference table stores, one decimal digit per entry; the
    # DP dispatch of every job is pinned too
    jobs = {key: ref for key, ref in json.loads(REFERENCE.read_text())["jobs"].items()
            if key.startswith("certify ")}
    assert len(jobs) == 14 and set(jobs) == set(DP_STOPS)
    for key, ref in jobs.items():
        argv = key.split()
        code = cs.build_recipe(argv[argv.index("--recipe") + 1],
                               **parse_params([a for a in argv if "=" in a]))
        assert ct._dp_stop(code, ct.SYNDROME_BUDGET, ct.WORK_BUDGET) == DP_STOPS[key], key
        assert ref["field"] == code.base.describe(), key
        assert ref["parity"] == ["".join(map(str, row)) for row in code.flat_parity], key


def _generator_rows_oracle(code):
    """The packed generator rows, one `block_matrix` per distinct lone symbol."""
    blocks = {}  # (ingredient, symbol) -> packed block of that lone symbol

    def block(i, s):
        if (i, s) not in blocks:
            syms = [0] * code.rows
            syms[i] = s
            blocks[i, s] = sp.pack_matrix(code.base, code.block_matrix(syms))
        return blocks[i, s]

    return [tuple(block(i, code.ext.mul(beta, g)) for g in grow)
            for i, ingredient in enumerate(code.ingredients)
            for grow in ingredient.generator
            for beta in reversed(code.ext.power_basis())]


@pytest.mark.parametrize("build", [
    lambda: cs.covering_repetition(2, 2, 3),
    lambda: cs.covering_repetition(3, 2, 2),
    lambda: cs.quasi_perfect_2xm(2, 2, 2),
    lambda: cs.quasi_perfect_2xm(4, 2, 2),
    lambda: cs.quasi_perfect_2x2(6),
    lambda: cs.distance_optimal_2x2(3),
    lambda: cs.almost_msrd_2x2(3, 9),
    lambda: cs.distance_optimal_sxs(3, 2, 1),
    # a zero ingredient, and a thin linearized code (fewer rows than m)
    lambda: cs.sr_covering([hm.zero_code(make_field(2, [2]), 3),
                            hm.repetition_code(make_field(2, [2]), 3)]),
    lambda: cs.sr_linearized([hm.reed_solomon(make_field(2, [3]), 5, 2)]),
    # 8 x 8 binary blocks: packed values reach 2^64, past int64
    lambda: cs.covering_repetition(2, 8, 2),
])
def test_generator_rows_match_lone_symbol_loop(build):
    code = build()
    assert code._generator_rows_packed() == _generator_rows_oracle(code)
