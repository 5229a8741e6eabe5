"""Sum-rank constructions: blocks, linearity, composition rules, recipes."""

import contextlib
import hashlib
import io
import itertools
import json
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from sumrank import certify as ct
from sumrank import construct as cs
from sumrank import hamming as hm
from sumrank import spaces as sp
from sumrank.cli import main, parse_params
from sumrank.gf import make_field

from oracles import (code_size, composition_source, contains_packed, encode, generator_parity,
                     hamming_weight, word_sub)
from test_syndrome import linear_codes


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
    assert code_size(code) == 1
    assert list(code.enumerate_packed()) == [(0, 0, 0)]


def test_covering_size_and_membership(f4):
    rep = hm.repetition_code(f4, 3)
    code = cs.sr_covering([rep, rep])
    assert code_size(code) == 16 and code.profile.blocks == ((2, 2),) * 3
    words = list(code.enumerate_packed())
    assert len(words) == len(set(words)) == 16
    for m1 in range(4):
        for m2 in range(4):
            assert contains_packed(code, encode(code, [(m1,), (m2,)]))


def test_covering_single_row_is_weight_one(f4):
    full = hm.full_code(f4, 3)
    code = cs.sr_covering([full, full])
    # c_1 = e_1 (weight-1 word of the full code), c_2 = 0
    word = code.packed_from_symbols([(1, 0, 0), (0, 0, 0)])
    assert sp.sum_rank_weight(code.to_word(word)) == 1


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
            wt = sp.sum_rank_weight(code.to_word(packed))
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
    w1, w2, ws = (code.to_word(encode(code, msg)) for msg in (*msgs, summed))
    assert word_sub(ws, w1) == w2


def test_enumeration_is_injective(f2, f4):
    code = cs.sr_linearized([hm.reed_solomon(f4, 4, 1),
                             hm.parity_check_code(f4, 4)])
    words = list(code.enumerate_packed())
    assert len(words) == code_size(code) == 256
    assert len(set(words)) == 256


def test_composition_lower_bound_holds(f2, f4):
    """The composition source's lower end is the exhaustive d_sr on small linearized
    instances, square and rectangular, p = 2."""
    f8 = make_field(2, [3])
    cases = [
        ([hm.hamming_code(f4, 2), hm.parity_check_code(f4, 5)], 3),
        ([hm.repetition_code(f4, 3), hm.parity_check_code(f4, 3)], 3),
        ([hm.parity_check_code(f4, 3), hm.repetition_code(f4, 3)], 3),
        ([hm.reed_solomon(f4, 4, 2), hm.full_code(f4, 4)], 2),
        # rectangular 2 x 3 blocks, where no q-polynomial factor applies
        ([hm.repetition_code(f8, 2), hm.full_code(f8, 2)], 2),
        ([hm.parity_check_code(f8, 3), hm.parity_check_code(f8, 3)], 2),
    ]
    for ingredients, d in cases:
        code = cs.sr_linearized(ingredients)
        assert _exact_d(code) == composition_source(code).lo == d


def test_rectangular_linearized(f2):
    f8 = make_field(2, [3])
    c1 = hm.parity_check_code(f8, 3)
    c2 = hm.full_code(f8, 3)
    code = cs.sr_linearized([c1, c2])
    assert code.profile.blocks == ((2, 3),) * 3
    assert code.dim == 3 * (2 + 3)
    words = list(code.enumerate_packed(1 << 16))
    assert len(set(words)) == code_size(code)
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
    assert code_size(ext) == 256
    words = list(ext.enumerate_packed())
    assert len(set(words)) == 256
    with pytest.raises(ValueError, match="positive"):
        cs.extend_full_blocks(base_code, 0)
    # extending the full-space code yields the full-space code
    full = cs.sr_covering([hm.full_code(f4, 2), hm.full_code(f4, 2)])
    extended = cs.extend_full_blocks(full, 1)
    assert code_size(extended) == extended.profile.ambient_size


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


@pytest.mark.parametrize("q", [3, 4])
def test_plotkin_and_extension_check_a_word_through_their_parts(q):
    """`is_codeword` of a Plotkin sum (x | y) reads x in its first part and y - x in its
    second, and that of a full-block extension its inner blocks, so neither forms its own flat
    parity: over GF(3) and GF(4), each accepts exactly the words its enumeration lists."""
    f = cs.field_of_order(q)
    for code in (cs.plotkin(hm.parity_check_code(f, 3), hm.repetition_code(f, 3)),
                 cs.extend_full_blocks(hm.repetition_code(f, 3), 1)):
        ambient = itertools.product(range(q), repeat=code.profile.t)
        assert {v for v in ambient if code.is_codeword(v)} == set(code.enumerate_packed())
        assert "flat_parity" not in code.__dict__


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


@st.composite
def parity_first_codes(draw):
    """A covering or linearized code, its full-block extension or a Plotkin sum.

    The symbol fields are GF(4), GF(8), GF(9) and GF(16) over GF(4), so
    both p = 2 and odd p, prime and extension base fields are covered.
    """
    q, m = draw(st.sampled_from([(2, 2), (2, 3), (3, 2), (4, 2)]))
    ext = cs.field_of_order(q).extension(m)
    t = draw(st.integers(1, 4))
    covering = draw(st.booleans())
    rows = m if covering else draw(st.integers(1, m))

    def ingredient_code():
        ingredients = [draw(linear_codes(ext, t)) for _ in range(rows)]
        return (cs.sr_covering if covering else cs.sr_linearized)(ingredients)

    code = ingredient_code()
    shape = draw(st.sampled_from(["plain", "extended", "plotkin"]))
    if shape == "extended" and rows == m:
        return cs.extend_full_blocks(code, draw(st.integers(1, 2)))
    if shape == "plotkin":
        return cs.plotkin(code, ingredient_code())
    return code


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(parity_first_codes())
def test_parity_first_equals_generator_nullspace(code):
    assert np.array_equal(code.flat_parity, generator_parity(code))


def test_rank_deficient_ingredient_parity_raises(f4):
    for change, rank in (
            (lambda rows: rows[1:], 5),  # a kernel beyond the code
            (lambda rows: np.vstack([rows, np.ones_like(rows[:1])]), 7),  # excludes codewords
    ):
        code = cs.sr_linearized([hm.hamming_code(f4, 2), hm.parity_check_code(f4, 5)])
        code._parity_rows = lambda rows=code._parity_rows(): change(rows)
        with pytest.raises(RuntimeError,
                           match=f"parity checks have rank {rank}, not the codimension 6"):
            code.flat_parity


def test_singular_block_map_raises(f4):
    code = cs.sr_linearized([hm.full_code(f4, 2), hm.full_code(f4, 2)])
    code.__dict__["_frobenius_images"] = [[1, 1], [1, 1]]  # both rows read c_1 + c_2
    with pytest.raises(RuntimeError, match="not injective"):
        code.flat_parity


def test_covering_vs_linearized_not_assumed_equivalent(f2, f4):
    """Both constructions build valid codes of equal size from the same
    ingredients; no equivalence between them is asserted anywhere."""
    rep = hm.repetition_code(f4, 3)
    par = hm.parity_check_code(f4, 3)
    cov = cs.sr_covering([rep, par])
    lin = cs.sr_linearized([rep, par])
    assert code_size(cov) == code_size(lin)
    assert len(set(cov.enumerate_packed())) == code_size(cov)
    assert len(set(lin.enumerate_packed())) == code_size(lin)


def test_quasi_perfect_2x2_builds_without_running_an_engine():
    """The recipe only builds: no DP pass runs on either ingredient, the hexacode's d = 4 and
    R = 2 are pinned by `test_search_634_ingredient`, and t is the one parameter it reads."""
    code = cs.quasi_perfect_2x2(6)
    assert [c.family for c in code.ingredients] == ["parity", "explicit"]
    assert not any("syndrome_dp" in c.__dict__ for c in (code, *code.ingredients))
    assert code.params == {"t": 6}


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
    # the cyclic ingredient of cyclic-d4, sxs and rect is stamped 4 where the BCH bound is 4
    sxs = cs.distance_optimal_sxs(2, 3, 1)
    assert [code.designed_distance for code in (c, sxs.ingredients[0], rect.ingredients[0])] \
        == [4, 4, 4]


def test_build_recipe_dispatch():
    code = cs.build_recipe("quasi-perfect-2xm", q=2, m=2, u=2)
    assert code.dim == 14
    with pytest.raises(ValueError, match="unknown recipe"):
        cs.build_recipe("nope")
    with pytest.raises(ValueError, match=r"^recipe quasi-perfect-2xm: unknown parameters "
                                         r"\['z'\]; it reads q, m, u$"):
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


def _digest(doc) -> str:
    """The reference table's digest: SHA-256 of the canonical JSON (bench/gate.py)."""
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _syndrome_stop(codim_bits):
    return f"syndrome budget 65536 < 2^{codim_bits} syndromes (q^codim)"


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
    # DP dispatch and the certificate subject's digest of every job are
    # pinned too
    jobs = {key: ref for key, ref in json.loads(REFERENCE.read_text())["jobs"].items()
            if key.startswith("certify ")}
    assert len(jobs) == 14 and set(jobs) == set(DP_STOPS)
    for key, ref in jobs.items():
        argv = key.split()
        code = cs.build_recipe(argv[argv.index("--recipe") + 1],
                               **parse_params([a for a in argv if "=" in a]))
        try:
            code.budgeted_dp()
        except ct.BudgetExceeded as exc:
            assert str(exc) == DP_STOPS[key], key
        else:
            assert DP_STOPS[key] is None, key
        assert ref["field"] == code.base.describe(), key
        assert ref["parity"] == ["".join(map(str, row)) for row in code.flat_parity], key
        assert ref["subject_sha256"] == _digest(code.describe()), key


def test_every_construct_job_descriptor_is_pinned(tmp_path):
    # the `construct --out` file of every benchmark construct job keeps the
    # digest the reference table stores
    jobs = {key: ref for key, ref in json.loads(REFERENCE.read_text())["jobs"].items()
            if key.startswith("construct ")}
    assert len(jobs) == 7
    out = tmp_path / "out.json"
    for key, ref in jobs.items():
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(key.split() + ["--out", str(out)]) == ref["exit"], key
        assert _digest(json.loads(out.read_text())) == ref["descriptor_sha256"], key


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


@pytest.mark.parametrize("build", [
    lambda: cs.covering_repetition(2, 2, 3),
    lambda: cs.covering_repetition(3, 2, 2),       # odd p
    lambda: cs.quasi_perfect_2xm(2, 2, 2),         # linearized, n = m
    lambda: cs.almost_msrd_2x2(3, 9),              # linearized, odd p
    lambda: cs.distance_optimal_sxs(2, 3, 1),      # linearized, 3 x 3
    lambda: cs.sr_linearized([hm.reed_solomon(make_field(2, [3]), 5, 2)]),  # 1 row, m = 3
    lambda: cs.sr_linearized([hm.reed_solomon(make_field(5, [2]), 6, 3)]),  # 1 row, odd p
    lambda: cs.covering_repetition(2, 8, 2),       # 8 x 8 binary blocks reach 2^64
])
def test_packed_from_symbols_matches_block_matrix(build):
    """Digit-wise sums of lone-symbol blocks equal the block built from the symbols."""
    code = build()
    rng = random.Random(code.ambient_dim)
    for _ in range(20):
        rows = [tuple(rng.randrange(code.ext.order) for _ in range(code.t))
                for _ in range(code.rows)]
        assert code.packed_from_symbols(rows) == tuple(
            sp.pack_matrix(code.base, code.block_matrix([row[pos] for row in rows]))
            for pos in range(code.t))


def test_flat_parity_of_binary_8x8_blocks_matches_the_generator_path():
    """Block values past 2^63 must not wrap anywhere between the tables and the parity."""
    code = cs.covering_repetition(2, 8, 2)
    assert np.array_equal(code.flat_parity, generator_parity(code))
