"""The syndrome-space DP and the enumeration kernel against independent oracles.

The DP's d is compared with a Python loop over `enumerate_packed`, its
coset-leader table with the full ambient sweep, and the Hamming-metric
radius with the Hamming sweep, over GF(2), GF(3) and GF(4), for covering and
linearized codes (n < m and n = m) and for explicit codes with mixed block
shapes.  The rank-1 DP must also equal the DP that relaxes every block value
(`_full_dp_oracle`) on the whole leader table, d, R and the witness.  The
enumeration kernel must give the same d, the same first
least-weight witness and the same word order as those loops and as
`LinearCode.codewords`.
"""

import hashlib
import itertools
import math
import tracemalloc
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st

from sumrank import certify as ct
from sumrank import construct as cs
from sumrank import hamming as hm
from sumrank import spaces as sp
from sumrank import syndrome as sd

from oracles import (code_size, composition_source, contains_packed, dp_work, generator_parity,
                     hamming_weight, unit_syndromes)

FAST = settings(max_examples=25, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])
SMALL_CODE = 1 << 12  # largest |C| the exhaustive oracle streams here


def _code_from_rows(field, rows, n):
    red, _ = hm.rref(field, rows)
    return hm.from_generator(field, red) if len(red) else hm.zero_code(field, n)


@st.composite
def linear_codes(draw, field, n, max_k=None, min_k=0):
    k = draw(st.integers(min_k, n if max_k is None else min(n, max_k)))
    rows = [draw(st.lists(st.integers(0, field.order - 1), min_size=n, max_size=n))
            for _ in range(k)]
    return _code_from_rows(field, rows, n)


AMBIENT_BITS = 16  # ambients of at most 2^16 words keep the sweep oracle quick


@st.composite
def ingredient_shapes(draw):
    q, m = draw(st.sampled_from([(2, 2), (2, 3), (3, 2), (4, 2)]))
    kind = draw(st.sampled_from(["covering", "linearized-square", "linearized-thin"]))
    rows = 1 if kind == "linearized-thin" else m
    t_max = max(1, int(AMBIENT_BITS / (rows * m * math.log2(q))))
    return q, m, kind, draw(st.integers(1, t_max))


@st.composite
def ingredient_codes(draw, shape=None, max_size=None):
    """A covering or linearized code; with `max_size`, of at most that many words."""
    q, m, kind, t = shape or draw(ingredient_shapes())
    base = cs.field_of_order(q)
    ext = base.extension(m)
    rows = 1 if kind == "linearized-thin" else m
    max_k = None if max_size is None else int(math.log(max_size, ext.order) + 1e-9) // rows
    ingredients = [draw(linear_codes(ext, t, max_k)) for _ in range(rows)]
    if kind == "covering":
        return cs.sr_covering(ingredients)
    return cs.sr_linearized(ingredients)


class ExplicitCode(cs.SumRankCode):
    """A sum-rank code spanned by explicit flat GF(q) rows, any block shapes."""

    def __init__(self, base, blocks, rows):
        super().__init__(base, sp.MatrixProfile(base, blocks))
        self.rows = hm.rref(base, rows)[0]

    @property
    def dim(self):
        return len(self.rows)

    def _generator_rows_packed(self):
        return [self.unflatten(r) for r in self.rows]

    def unflatten(self, vec) -> tuple[int, ...]:
        """Packed block values of a row-major flat GF(q) word."""
        packed = []
        pos = 0
        for n, m in self.profile.blocks:
            mat = tuple(tuple(vec[pos + i * m + j] for j in range(m)) for i in range(n))
            packed.append(sp.pack_matrix(self.base, mat))
            pos += n * m
        return tuple(packed)

    def _parity_rows(self):
        return np.array(generator_parity(self), dtype=np.int64).reshape(-1, self.ambient_dim)

    def enumerate_packed(self, budget=sd.Budgets().enum):
        f = self.base
        for coeffs in itertools.product(range(f.order), repeat=self.dim):
            vec = [0] * self.ambient_dim
            for c, row in zip(coeffs, self.rows):
                if c:
                    vec = [f.add(v, f.mul(c, x)) for v, x in zip(vec, row)]
            yield self.unflatten(vec)

    def describe(self):
        return {"construction": "explicit", "rows": [list(r) for r in self.rows]}


MIXED_SHAPES = {2: ((1, 1), (1, 2), (2, 2), (1, 3), (2, 3)),
                3: ((1, 1), (1, 2), (2, 2)),
                4: ((1, 1), (1, 2), (2, 2))}
MAX_AMBIENT_DIM = {2: 14, 3: 8, 4: 7}


@st.composite
def mixed_codes(draw):
    q = draw(st.sampled_from([2, 3, 4]))
    base = cs.field_of_order(q)
    blocks = draw(st.lists(st.sampled_from(MIXED_SHAPES[q]), min_size=1, max_size=4))
    assume(sum(n * m for n, m in blocks) <= MAX_AMBIENT_DIM[q])
    ambient_dim = sum(n * m for n, m in blocks)
    k = draw(st.integers(0, ambient_dim))
    rows = [draw(st.lists(st.integers(0, q - 1), min_size=ambient_dim,
                          max_size=ambient_dim)) for _ in range(k)]
    return ExplicitCode(base, tuple(blocks), rows)


def _enumeration_oracle(code):
    """Least nonzero sum-rank weight over `enumerate_packed`, and its first word."""
    tables = [sp.rank_array(code.base, n, m) for n, m in code.profile.blocks]
    best, witness = None, None
    for packed in code.enumerate_packed(SMALL_CODE):
        w = sum(int(tab[pk]) for tab, pk in zip(tables, packed))
        if w and (best is None or w < best):
            best, witness = w, packed
    return best, witness


def _check_against_oracles(code):
    dp = code.budgeted_dp()  # the DP itself, not the first source `sr_min_distance` settles on
    assert (dp.distance is None) == (dp.witness is None) == (code.dim == 0)
    if code_size(code) <= SMALL_CODE:
        best, _ = _enumeration_oracle(code)
        assert dp.distance == best
    if dp.distance is not None:
        assert contains_packed(code, dp.witness)
        assert sp.sum_rank_weight(code.to_word(dp.witness)) == dp.distance
    radius, table = ct.sr_covering_radius(code)
    sweep_radius, sweep_table = ct.sr_covering_radius_sweep(code, budget=1 << 16)
    assert radius == sweep_radius
    assert table.leader_weight == sweep_table


@FAST
@given(ingredient_codes())
def test_dp_matches_oracles_on_ingredient_codes(code):
    _check_against_oracles(code)


@FAST
@given(mixed_codes())
def test_dp_matches_oracles_on_mixed_block_shapes(code):
    _check_against_oracles(code)


HAMMING_LENGTHS = {2: 8, 3: 5, 4: 4}


@FAST
@given(st.sampled_from([2, 3, 4]).flatmap(
    lambda q: st.integers(1, HAMMING_LENGTHS[q]).flatmap(
        lambda n: linear_codes(cs.field_of_order(q), n))))
def test_hamming_dp_radius_matches_sweep(code):
    radius, table = hm.covering_radius(code)
    assert radius == ct.sr_covering_radius_sweep(code)[0]
    assert len(table.leaders) == code.field.order ** code.codim


# ----------------------------------------------------------------------
# the rank-1 DP against the all-values DP
# ----------------------------------------------------------------------

def _sub_table(p, digits):
    """T[k, h] = index of the digit-wise difference h - k mod p."""
    idx = np.arange(p ** digits)
    table = np.zeros((len(idx), len(idx)), dtype=np.intp)
    for i in range(digits):
        dig = (idx // p ** i) % p
        table += ((dig[None, :] - dig[:, None]) % p) * p ** i
    return table


def _full_dp_oracle(field, parity, shapes):
    """The DP relaxing every block by every nonzero block value.

    C[s] = min over v != 0 of A[s - syn(v)] + rank(v), then A <- min(A, C)
    and B <- min(B, C) (B over nonzero words), with a copy of A kept before
    every block; d = B[0], and the witness is walked back from the last
    block taking the smallest value at each tie.
    """
    starts = np.cumsum([0] + [n * m for n, m in shapes])
    units = unit_syndromes(field, parity, starts[-1])
    blocks = [(sd.block_syndromes(field, units[a:b], len(parity)), sp.rank_array(field, n, m))
              for a, b, (n, m) in zip(starts, starts[1:], shapes)]
    p, digits = field.p, len(parity) * field.dim_over_prime
    low = digits // 2
    n1, n2 = p ** (digits - low), p ** low
    t1, t2 = _sub_table(p, digits - low), _sub_table(p, low)
    inf = sd._INF

    def relax(A, syn, wt):  # C[s] = min over v != 0 of A[s - syn(v)] + wt(v)
        A2, C = A.reshape(n1, n2), np.full((n1, n2), inf, dtype=np.int8)
        for k, w in zip(syn[1:].tolist(), wt[1:].tolist()):
            np.minimum(C, A2[t1[k // n2]][:, t2[k % n2]] + np.int8(w), out=C)
        return C.ravel()

    A = np.full(n1 * n2, inf, dtype=np.int8)
    A[0] = 0
    B = A.copy()
    B[0] = inf
    snapshots, b_zero = [], []
    for syn, wt in blocks:
        snapshots.append(A.copy())
        C = relax(A, syn, wt)
        np.minimum(A, C, out=A)
        np.minimum(B, C, out=B)
        b_zero.append(int(B[0]))
    distance = int(B[0]) if B[0] < inf else None
    if distance is None:
        return sd.SyndromeDP(A, None, None)
    s, w, need_nonzero, word = 0, distance, True, []
    for b in range(len(blocks) - 1, -1, -1):
        prev = snapshots[b]
        if (b > 0 and b_zero[b - 1] == w) if need_nonzero else prev[s] == w:
            word.append(0)
            continue
        syn, wt = blocks[b]
        src = t1[syn[1:] // n2, s // n2] * n2 + t2[syn[1:] % n2, s % n2]
        v = 1 + int(np.argmax(prev[src].astype(np.int64) + wt[1:] == w))
        word.append(v)
        s, w, need_nonzero = int(src[v - 1]), w - int(wt[v]), False
    assert (s, w) == (0, 0)
    return sd.SyndromeDP(A, distance, tuple(reversed(word)))


@st.composite
def block_parities(draw):
    """GF(p^e) for p in {2, 3, 5, 7} and e in {1, 2}; a codim x cells parity, codim 0 to 4."""
    field = cs.field_of_order(draw(st.sampled_from([2, 3, 5, 7])) ** draw(st.integers(1, 2)))
    q = field.order
    cells = draw(st.integers(1, int(math.log(1 << 12, q) + 1e-9)))
    codim = draw(st.integers(0, 4))
    rows = draw(st.lists(st.lists(st.integers(0, q - 1), min_size=cells, max_size=cells),
                         min_size=codim, max_size=codim))
    return field, np.array(rows, dtype=np.int64).reshape(codim, cells)


@FAST
@given(block_parities())
@example((cs.field_of_order(9), np.zeros((0, 3), dtype=np.int64)))  # the full code
@example((cs.field_of_order(2), np.zeros((0, 1), dtype=np.int64)))
def test_unit_and_block_syndromes_match_the_per_position_formula(problem):
    field, parity = problem
    p, e, q = field.p, field.dim_over_prime, field.order
    codim, cells = parity.shape
    units = sd.scaled_syndromes(field, parity, p ** np.arange(e))
    assert units.dtype == np.int64
    assert np.array_equal(units, unit_syndromes(field, parity, cells))
    want = []
    for v in range(q ** cells):
        syn = [0] * codim
        for c in range(cells):
            syn = [field.add(s, field.mul(v // q ** c % q, int(h)))
                   for s, h in zip(syn, parity[:, c])]
        want.append(sum(s * q ** k for k, s in enumerate(syn)))
    assert sd.block_syndromes(field, units, codim).tolist() == want


def _check_against_full_dp(field, parity, shapes):
    want = _full_dp_oracle(field, parity, shapes)
    for layout_bytes in (sd._LAYOUT_BYTES, 1):  # 1: each layout row's index formed alone
        with mock.patch.object(sd, "_LAYOUT_BYTES", layout_bytes):
            got = sd.syndrome_dp(field, parity, shapes)
        assert np.array_equal(got.leaders, want.leaders)
        assert (got.distance, got.radius, got.witness) == \
            (want.distance, want.radius, want.witness)


# shapes per base field; 1 x 1 blocks are the Hamming metric, 3 x 3 takes
# three rank-1 rounds
DP_SHAPES = {2: ((1, 1), (1, 3), (2, 2), (2, 3), (3, 3)),
             3: ((1, 1), (1, 2), (2, 2), (2, 3), (3, 3)),
             4: ((1, 1), (1, 2), (2, 2), (2, 3)),
             5: ((1, 1), (1, 2), (2, 2)),
             7: ((1, 1), (1, 2), (2, 2)),
             9: ((1, 1), (1, 2), (2, 2))}
DP_SYNDROMES = 1 << 10  # q^codim the all-values oracle relaxes quickly


@st.composite
def parity_problems(draw):
    q = draw(st.sampled_from(sorted(DP_SHAPES)))
    field = cs.field_of_order(q)
    hamming = draw(st.booleans())
    shapes = draw(st.lists(st.sampled_from(((1, 1),) if hamming else DP_SHAPES[q]),
                           min_size=1, max_size=6))
    ambient_dim = sum(n * m for n, m in shapes)
    codim = draw(st.integers(0, min(ambient_dim, int(math.log(DP_SYNDROMES, q)))))
    rows = [draw(st.lists(st.integers(0, q - 1), min_size=ambient_dim,
                          max_size=ambient_dim)) for _ in range(codim)]
    return _problem(q, shapes, rows)


def _one_block(q, shape):
    """One block whose cells are the syndrome digits: every leader is a rank."""
    cells = shape[0] * shape[1]
    return cs.field_of_order(q), np.eye(cells, dtype=np.int64), [shape]


def _problem(q, shapes, rows):
    """The field, the (codim, N) RREF of `rows` and the shapes; codim may be 0."""
    field = cs.field_of_order(q)
    rows = np.array(rows, dtype=np.int64).reshape(len(rows), sum(n * m for n, m in shapes))
    return field, hm.rref(field, rows)[0], list(shapes)


# the 3 x 3 block's syndromes have a zero last digit: they span at most 4 of D = 5
_NON_SPANNING_ROWS = np.random.default_rng(3).integers(0, 2, size=(4, 11)).tolist() + \
    [[0] * 9 + [1, 1]]


@pytest.mark.seeded
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(parity_problems())
@example(_one_block(2, (3, 3)))
@example(_one_block(3, (2, 3)))
@example(_one_block(4, (2, 2)))
@example(_one_block(9, (1, 2)))
# p = 5 and 7: the coset min doubles its shift (1, 2, 1 and 1, 2, 3 multiples)
@example(_one_block(5, (2, 2)))
@example(_one_block(7, (2, 2)))
# codim 0: one syndrome, every block's span is {0}
@example(_problem(2, [(2, 2), (1, 1)], []))
@example(_problem(3, [(1, 2)], []))
# odd D = 3; the 2 x 2 block's 4 unit syndromes span only 2 dimensions, and the
# generator of its line u = (0, 1) at the second column has syndrome 0: a no-op shift
@example(_problem(2, [(2, 2), (1, 1)], [[1, 0, 1, 0, 0], [0, 1, 1, 0, 0], [0, 0, 0, 0, 1]]))
# a block spanning the whole syndrome space (one layout column), then a
# block whose syndromes are all zero; p = 2 and p = 3
@example(_problem(2, [(2, 2), (1, 1)], [[1, 0, 1, 0, 0], [0, 1, 1, 0, 0]]))
@example(_problem(3, [(1, 2), (1, 1)], [[1, 0, 0], [0, 1, 0]]))
# odd p with e = 2 (GF(9), D = 4)
@example(_problem(9, [(1, 2), (1, 1)], [[1, 3, 0], [0, 1, 5]]))
# a 3 x 3 block (two line rounds before the column min) that does not span
@example(_problem(2, [(3, 3), (1, 1), (1, 1)], _NON_SPANNING_ROWS))
def test_rank_one_dp_matches_full_dp(problem):
    _check_against_full_dp(*problem)


@FAST
@given(parity_problems())
def test_packing_bound_is_above_the_exact_distance(problem):
    """2r, for the least r with V_sr(r) > q^codim, bounds d from above at p = 2, 3, 5 and 7."""
    field, parity, shapes = problem
    distance = _full_dp_oracle(field, parity, shapes).distance
    r = sp.packing_radius(field.order, Counter(shapes), len(parity))
    assert (r is None) == (distance is None)  # only the zero code has no such r
    assert r is None or distance <= 2 * r


@pytest.mark.parametrize("q,shapes", [(2, [(2, 2), (1, 1)]), (3, [(1, 2), (2, 2)]),
                                      (5, [(1, 1), (1, 1), (1, 2)])])
def test_dp_of_the_zero_code_returns(q, shapes):
    """codim = N: every radius's ball stays within q^codim, so the bound search must stop."""
    cells = sum(n * m for n, m in shapes)
    field, parity, shapes = _problem(q, shapes, np.eye(cells, dtype=int).tolist())
    assert sp.packing_radius(field.order, Counter(shapes), cells) is None
    _check_against_full_dp(field, parity, shapes)
    assert sd.syndrome_dp(field, parity, shapes).distance is None


def test_witness_survives_uint16_level_record(f2):
    """Past 254 blocks the level record takes the smallest type that holds t + 1, here
    uint16; leaders, d and witness stay."""
    t, codim = 300, 5
    rows = np.random.default_rng(t).integers(0, 2, size=(codim, t)).tolist()
    parity = hm.rref(f2, rows)[0]
    assert len(parity) == codim
    _check_against_full_dp(f2, parity, [(1, 1)] * t)


def test_a_dp_on_65535_blocks_holds_its_level_sentinel(f2):
    """At t = 65535 the record's sentinel t + 1 passes uint16: the DP of the binary parity
    code settles R = 1, so the code is certified quasi-perfect with d = 2 by its rule."""
    cert = ct.certify_code(hm.parity_check_code(f2, 65535), "quasi-perfect")
    values = {q["name"]: (q["value"], q["method"]) for q in cert.quantities}
    assert cert.verdict == "certified"
    assert values["min_sum_rank_distance"] == (2, "parity")
    assert values["covering_radius"] == (1, "syndrome-dp")


# The DP of every certify-paper job that runs one, past the oracle's 2^10 syndromes (up to
# 3^8 and 5^6): sha256 of the leader table's bytes, then d, R and the witness
BENCH_DPS = [
    ("quasi-perfect-2xm", dict(q=2, m=2, u=2),
     "c5e9a0cf9eb5d96e94190480a2dd38d5b4357eade0bf443ce64b4e5ee0ac82ef",
     (3, 2, (12, 10, 1) + (0,) * 2)),
    ("quasi-perfect-2xm", dict(q=4, m=2, u=2),
     "838f024bd532f941a1faaad08531f594a17e8e3e002e08653c18b0e99bd6f083",
     (3, 2, (80, 107, 0, 1) + (0,) * 13)),
    ("quasi-perfect-2xm", dict(q=3, m=2, u=3),
     "e84253b89abcab07cabd52aa2ffb7a6dfba2e4167fd1be5435fd56749a34fec5",
     (3, 2, (54, 54, 1) + (0,) * 88)),
    ("quasi-perfect-2xm", dict(q=5, m=2, u=2),
     "25f4c21ec164667faa647250c6995b1bd17b574d0d8db488cc0c204a1cdb2255",
     (3, 2, (238, 168, 1) + (0,) * 23)),
    ("quasi-perfect-2x2", dict(t=6),
     "89f9d4d4796b89cd60cdc295c109729abb200ff182f731a84383431702981830",
     (4, 2, (7, 7) + (0,) * 4)),
    ("almost-msrd-2x2", dict(q=3, t=9),
     "315bdf90442d4190a6588c8e4fb0e41cd66a86e6e92abb308ff4003c793013a3",
     (4, 3, (24, 12) + (0,) * 7)),
    ("distance-optimal-sxs", dict(q=3, s=2, m=1),
     "c84f5d06f1e06b45e5322b2f21a54812413d66acf72d12f79f8b2f5d0cc3bfe9",
     (4, 3, (24, 12) + (0,) * 6)),
]


@pytest.mark.parametrize("recipe, params, leaders_sha256, want", BENCH_DPS,
                         ids=[f"{r} {p}" for r, p, _, _ in BENCH_DPS])
def test_dp_at_benchmark_sizes_is_pinned(recipe, params, leaders_sha256, want):
    code = cs.build_recipe(recipe, **params)
    dp = sd.syndrome_dp(code.base, code.flat_parity, code.profile.blocks)
    assert hashlib.sha256(dp.leaders.tobytes()).hexdigest() == leaders_sha256
    assert (dp.distance, dp.radius, dp.witness) == want


@pytest.mark.parametrize("build", [
    lambda: cs.quasi_perfect_2xm(2, 2, 2),
    lambda: cs.almost_msrd_2x2(2, 4),
    lambda: cs.distance_optimal_2x2(2),
    lambda: cs.distance_optimal_sxs(2, 3, 1, 1),
    lambda: cs.covering_repetition(2, 2, 3),
    lambda: cs.quasi_perfect_2x2(6),
])
def test_composition_lower_bound_below_dp(build):
    # on these paper families the ingredients' ends give d itself
    code = build()
    source = composition_source(code)
    assert source.lo == ct.sr_min_distance(code).value <= source.hi


# (q, m, n, construction): p = 2 and odd p, n = m, and n < m with pairs over GF(8) and
# GF(27), listed first, where Hypothesis draws most
COMPOSITION_SHAPES = [
    (2, 3, 2, "linearized"), (3, 3, 2, "linearized"), (3, 2, 1, "linearized"),
    (2, 3, 1, "linearized"), (2, 2, 2, "linearized"), (2, 2, 2, "covering"),
    (3, 2, 2, "linearized"), (3, 2, 2, "covering"), (4, 2, 2, "linearized"),
    (5, 2, 2, "linearized"), (2, 3, 3, "linearized"), (2, 3, 3, "covering"),
    (3, 3, 3, "linearized"), (3, 3, 3, "covering")]


@st.composite
def composition_codes(draw):
    """A covering or linearized code of n ingredients over GF(q^m), a zero ingredient among
    them at times, with at most 2^16 syndromes."""
    q, m, n, construction = draw(st.sampled_from(COMPOSITION_SHAPES))
    ext = cs.field_of_order(q).extension(m)
    t = draw(st.integers(1, 4))
    spare = int(AMBIENT_BITS / (m * math.log2(q)))  # redundancy left within 2^16 syndromes
    ingredients = []
    for _ in range(n):
        ingredients.append(draw(linear_codes(ext, t, min_k=max(0, t - max(spare, 0)))))
        spare -= t - ingredients[-1].k
    code = cs.IngredientSumRankCode(construction, ingredients)
    assume(code.dim > 0 and q ** code.codim <= 1 << 16)
    return code


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(composition_codes())
def test_composition_bound_holds_the_dps_d(code):
    # the rule on the ingredients' exact distances (inf with no word) is a lower end of the
    # DP's d, and the source reads those distances from the ingredients' own engines
    d = code.syndrome_dp.distance
    exact = [math.inf if c.k == 0 else ct.sr_min_distance(c).value for c in code.ingredients]
    source = composition_source(code)
    assert source.lo == code.composition_lower_bound(exact) <= d <= source.hi
    # the upper end is the weight of the source's word, a codeword: d itself at a point
    assert sp.sum_rank_weight(code.to_word(source.witness)) == source.hi
    assert contains_packed(code, source.witness)


# the ingredient families with a theorem on d, and random ingredients
WORD_FAMILIES = ("parity", "full", "reed-solomon", "repetition", "hamming", "random")


@st.composite
def word_codes(draw):
    """A covering or linearized code over GF(q^m), p = 2 and odd p, n < m and n = m rows,
    from MDS (parity, full, Reed-Solomon, repetition), Hamming and random ingredients of one
    length t (a zero code among the random ones at times), with at most 2^12 syndromes.  A
    Hamming code of redundancy 2 has length Q + 1, Q = q^m, the longest Reed-Solomon one."""
    q, m = draw(st.sampled_from([(2, 2), (2, 3), (3, 2)]))
    ext = cs.field_of_order(q).extension(m)
    construction = draw(st.sampled_from(["covering", "linearized"]))
    rows = m if construction == "covering" else draw(st.integers(1, m))
    t = draw(st.sampled_from([ext.order + 1, draw(st.integers(2, 5))]))
    builders = {"parity": lambda: hm.parity_check_code(ext, t),
                "full": lambda: hm.full_code(ext, t),
                "reed-solomon": lambda: hm.reed_solomon(ext, t, draw(st.integers(
                    max(1, t - 3), t))),
                "repetition": lambda: hm.repetition_code(ext, t),
                "hamming": lambda: hm.hamming_code(ext, 2),
                "random": lambda: draw(linear_codes(ext, t, min_k=max(0, t - 2)))}
    families = draw(st.lists(st.sampled_from(WORD_FAMILIES if t == ext.order + 1
                                             else WORD_FAMILIES[:-2] + ("random",)),
                             min_size=rows, max_size=rows))
    assume(families.count("repetition") * (t - 1) * m <= 12)
    code = cs.IngredientSumRankCode(construction, [builders[f]() for f in families])
    assume(code.dim > 0 and q ** code.codim <= 1 << 12)
    return code


@pytest.mark.seeded
@FAST
@given(word_codes())
@example(cs.quasi_perfect_2xm(2, 2, 2))
@example(cs.almost_msrd_2x2(3, 9))
def test_composition_word_is_a_codeword_of_its_stated_weight(code):
    """The composition's upper end is the lightest word of one ingredient alone in its row:
    a codeword whose sum-rank weight is that end, at least the DP's d; each ingredient's
    `first_row` is its `generator[0]`."""
    source = composition_source(code)
    assert contains_packed(code, source.witness)
    assert sp.sum_rank_weight(code.to_word(source.witness)) == source.hi
    assert source.hi >= code.syndrome_dp.distance
    for ingredient in code.ingredients:
        assert ingredient.first_row == (ingredient.generator[0] if ingredient.k else None)


@pytest.mark.seeded
@FAST
@given(word_codes())
@example(cs.almost_msrd_2x2(3, 9))
@example(cs.quasi_perfect_2xm(2, 2, 2))
def test_a_rule_that_closes_d_runs_no_engine_on_the_code(code):
    """Structure first: when the composition closes d, a point with its word, that point is
    d and no DP pass runs on the code itself; otherwise an engine closes d at the DP's d."""
    source = composition_source(code)
    res = ct.sr_min_distance(code)
    if source.exact:
        assert res == source
        assert "syndrome_dp" not in code.__dict__
    assert res.value == code.syndrome_dp.distance


def test_plotkin_rule_matches_dp(f2, f4):
    first = cs.sr_linearized([hm.parity_check_code(f4, 3), hm.full_code(f4, 3)])
    second = cs.sr_linearized([hm.repetition_code(f4, 3),
                               hm.parity_check_code(f4, 3)])
    code = cs.plotkin(first, second)
    d1, d2, d = (c.budgeted_dp().distance for c in (first, second, code))
    assert d == min(2 * d1, d2)
    rule = ct.sr_min_distance(code)  # the rule, read before the DP, closes d with its word
    assert (rule.value, rule.method) == (d, "composition(plotkin)")
    assert sp.sum_rank_weight(code.to_word(rule.witness)) == d
    assert contains_packed(code, rule.witness)


@st.composite
def composed_codes(draw):
    """A covering or linearized code, its full-block extension, the Plotkin code of two
    of them, a Hamming-metric code of 1 x 1 blocks, or an explicit code of mixed block
    shapes; over GF(2), GF(3), GF(4) or GF(5), nonzero, with at most 2^16 syndromes; and an
    enumeration budget below its size."""
    kind = draw(st.sampled_from(["ingredient", "extension", "plotkin", "hamming", "mixed"]))
    if kind == "hamming":
        code = draw(linear_codes(cs.field_of_order(draw(st.sampled_from([2, 3, 4, 5]))),
                                 draw(st.integers(1, 8))))
    elif kind == "mixed":
        code = draw(mixed_codes())
    else:
        shape = draw(ingredient_shapes().filter(
            lambda s: kind != "extension" or s[2] != "linearized-thin"))
        code = draw(ingredient_codes(shape))
        if kind == "extension":
            code = cs.extend_full_blocks(code, draw(st.integers(1, 2)))
        elif kind == "plotkin":
            code = cs.plotkin(code, draw(ingredient_codes(shape)))
    assume(code.dim > 0 and code.base.order ** code.codim <= 1 << 16)
    return code, draw(st.integers(1, min(code_size(code) - 1, 1 << 12)))


_F4, _F8 = cs.field_of_order(2).extension(2), cs.field_of_order(2).extension(3)


@pytest.mark.seeded
@FAST
@given(composed_codes())
# two points of d once settled with no word: the composition's lower end 2 met by sphere
# packing's 2r alone, on a covering code of two [2, 1, 2] ingredients and on a linearized
# code of a zero ingredient and two [1, 1, 1] ones
@example((cs.sr_covering([_code_from_rows(_F4, [[1, 2]], 2)] * 2), 3))
@example((cs.sr_linearized([_code_from_rows(_F8, rows, 1) for rows in ([], [[1]], [[1]])]), 7))
def test_distance_interval_holds_the_dps_d(problem):
    # with the DP off (no syndrome fits a budget of 0, not even the one of a
    # full code) and enumeration off, the code's rule, sphere packing, the
    # support search and the budget stop must still bracket d; with the DP on,
    # whichever source closes d first, d is a point.  Every point must be the
    # DP's d and come with a codeword of that weight
    code, budget = problem
    d = code.syndrome_dp.distance
    off = ct.sr_min_distance(code, ct.Budgets(enum=budget, syndrome=0))
    assert not off.method.endswith(("syndrome-dp", "exhaustive"))  # the code's own are off
    assert off.lo <= d <= off.hi
    on = ct.sr_min_distance(code, ct.Budgets(enum=budget))
    assert on.exact
    for res in (off, on) if off.exact else (on,):
        assert res.value == d and res.witness is not None
        assert sp.sum_rank_weight(code.to_word(res.witness)) == d
        assert contains_packed(code, res.witness)


# ----------------------------------------------------------------------
# the enumeration kernel
# ----------------------------------------------------------------------

TINY_CHUNK = 4  # bytes per chunk: one word per chunk, every word a shifted chunk


def _kernel_words(field, rows, cells):
    return [tuple(int(v) for v in col)
            for words in sd.span_chunks(field, rows, cells) for col in words.T]


def _check_kernel(code):
    """The kernel's d, witness and zero-code flag equal the enumeration loop's."""
    best, witness = _enumeration_oracle(code)
    for chunk in (sd._CHUNK_BYTES, TINY_CHUNK):
        with mock.patch.object(sd, "_CHUNK_BYTES", chunk):
            found = sd.least_weight_word(code.base, code._generator_rows_packed(),
                                         code.profile.blocks)
        assert found == (None if best is None else (best, witness))


@st.composite
def extended_codes(draw):
    q, m, kind, t = draw(ingredient_shapes())
    assume(kind != "linearized-thin")
    extra = draw(st.integers(1, 2))
    assume(q ** (extra * m * m) <= SMALL_CODE)
    inner = draw(ingredient_codes((q, m, kind, t), SMALL_CODE // q ** (extra * m * m)))
    return cs.extend_full_blocks(inner, extra)


@st.composite
def plotkin_codes(draw):
    shape = draw(ingredient_shapes())
    half = math.isqrt(SMALL_CODE)
    return cs.plotkin(draw(ingredient_codes(shape, half)), draw(ingredient_codes(shape, half)))


@st.composite
def small_mixed_codes(draw):
    code = draw(mixed_codes())
    assume(code_size(code) <= SMALL_CODE)
    return code


@FAST
@given(st.one_of(small_mixed_codes(), ingredient_codes(max_size=SMALL_CODE),
                 extended_codes(), plotkin_codes()))
def test_kernel_matches_enumeration_loop(code):
    _check_kernel(code)


def test_enumeration_memory_stays_within_the_chunk_bound():
    """Weighing 2^16 words of 16 blocks holds one chunk's live bytes, not the whole span."""
    code = cs.covering_repetition(2, 4, 16)
    rows, shapes = code._generator_rows_packed(), code.profile.blocks
    sp.rank_array(code.base, 4, 4)  # the rank table is built once per field and shape
    assert code_size(code) == 1 << 16
    tracemalloc.start()
    try:
        found = sd.least_weight_word(code.base, rows, shapes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert found[0] == 16
    assert peak < 3 << 19  # 1.5 MB; the whole 16 x 2^16 uint16 span is 2 MB


def test_dp_memory_stays_within_the_packing_bound():
    """At 3^10 syndromes and 80 blocks the DP keeps 5 level rows, not 11, and no full index.

    The level record is cut to w <= 4 (d <= 2r with r = 2), a block's layout
    index and the syndromes that fell in it come one chunk of `_LAYOUT_BYTES`
    of layout rows at a time, and the rank-1 rounds reuse three preallocated
    copies of the state: about 1.0 MB at the peak, against 1.96 MB with 11
    level rows, a 472 KB change index and fresh arrays per shift.
    """
    code = cs.distance_optimal_2x2(3)
    code.flat_parity, sp.rank_array(code.base, 2, 2)  # the parity and the rank table are the code's
    assert code.base.order ** code.codim == 3 ** 10
    tracemalloc.start()
    try:
        dp = code.syndrome_dp
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (dp.distance, dp.radius) == (4, 3)  # d = 2r: the top kept level is read
    assert contains_packed(code, dp.witness)
    assert sp.sum_rank_weight(code.to_word(dp.witness)) == 4
    assert peak < 1.4e6


def _hamming_oracle(code):
    """Least nonzero Hamming weight over `codewords`, and its first word."""
    best, witness = None, None
    for cw in code.codewords():
        w = hamming_weight(cw)
        if w and (best is None or w < best):
            best, witness = w, cw
    return best, witness


@FAST
@given(st.sampled_from([4, 9]).flatmap(
    lambda q: st.integers(1, 6).flatmap(
        lambda n: linear_codes(cs.field_of_order(q), n, int(math.log(SMALL_CODE, q))))))
# over GF(131) a sum of two digits, up to 260, does not fit the packed values' uint8
@example(hm.from_generator(cs.field_of_order(131), [(1, 130, 0), (0, 1, 130)]))
def test_kernel_matches_codewords_loop_on_hamming_codes(code):
    best, witness = _hamming_oracle(code)
    if best is None:
        assert sd.least_weight_word(code.field, code.generator, code.profile.blocks) is None
        return
    assert sd.least_weight_word(code.field, code.generator,
                                code.profile.blocks) == (best, witness)


def _assert_enumeration_order(code):
    cells = [n * m for n, m in code.profile.blocks]
    assert _kernel_words(code.base, code._generator_rows_packed(), cells) == \
        list(code.enumerate_packed())


def _ingredient_codes():
    f2, f3 = cs.field_of_order(2), cs.field_of_order(3)
    f4, f9 = f2.extension(2), f3.extension(2)
    return [cs.covering_repetition(2, 2, 3), cs.covering_repetition(4, 2, 2),
            cs.almost_msrd_2x2(2, 4),
            cs.sr_linearized([hm.parity_check_code(f9, 2), hm.repetition_code(f9, 2)]),
            cs.sr_linearized([hm.reed_solomon(f4, 3, 1)])]


@pytest.mark.parametrize("chunk", [TINY_CHUNK, 1 << 16])
@pytest.mark.parametrize("index", range(len(_ingredient_codes())))
def test_kernel_order_ingredient(index, chunk, monkeypatch):
    monkeypatch.setattr(sd, "_CHUNK_BYTES", chunk)
    _assert_enumeration_order(_ingredient_codes()[index])


@pytest.mark.parametrize("chunk", [TINY_CHUNK, 1 << 16])
@pytest.mark.parametrize("q,extra", [(2, 1), (2, 2), (3, 1)])
def test_kernel_order_extended(q, extra, chunk, monkeypatch):
    monkeypatch.setattr(sd, "_CHUNK_BYTES", chunk)
    _assert_enumeration_order(cs.extend_full_blocks(cs.covering_repetition(q, 2, 2), extra))


@pytest.mark.parametrize("chunk", [TINY_CHUNK, 1 << 16])
@pytest.mark.parametrize("q", [2, 3, 4])
def test_kernel_order_plotkin(q, chunk, monkeypatch):
    monkeypatch.setattr(sd, "_CHUNK_BYTES", chunk)
    base = cs.field_of_order(q)
    ext = base.extension(2)
    first = cs.sr_linearized([hm.repetition_code(ext, 2)])
    second = cs.sr_linearized([hm.parity_check_code(ext, 2)])
    _assert_enumeration_order(cs.plotkin(first, second))


@pytest.mark.parametrize("chunk", [TINY_CHUNK, 1 << 16])
def test_kernel_order_linear_code(chunk, monkeypatch, f4, f9, f16_tower):
    monkeypatch.setattr(sd, "_CHUNK_BYTES", chunk)
    for code in (hm.hamming_code(f4, 2), hm.reed_solomon(f9, 4, 2),
                 hm.from_generator(f16_tower, [(1, 2, 7), (0, 5, 11)])):
        assert _kernel_words(code.field, code.generator, [1] * code.n) == \
            list(code.codewords())


class _Shaped(sd.SumRankCode):
    """A code of a given dimension over given blocks: all that the DP's admission reads."""

    def __init__(self, base, blocks, dim):
        super().__init__(base, sp.MatrixProfile(base, blocks))
        self._dim = dim

    @property
    def dim(self):
        return self._dim


@st.composite
def shaped_codes(draw):
    base = cs.field_of_order(draw(st.sampled_from([2, 3, 4])))
    shape = st.tuples(st.integers(1, 3), st.integers(1, 3)).map(sorted).map(tuple)
    blocks = draw(st.lists(shape, min_size=1, max_size=12))
    return _Shaped(base, blocks, draw(st.integers(0, sum(n * m for n, m in blocks))))


@pytest.mark.seeded
@settings(max_examples=100, deadline=None)
@given(shaped_codes())
def test_per_shape_admission_charges_the_per_block_work(code):
    """At sweep budget 0 the DP's stop states its work, summed once per shape times its
    count: the same number as the charge block by block, over mixed shapes, GF(2), GF(3)
    and GF(4), at every codimension (a syndrome budget that holds them all)."""
    budgets = sd.Budgets(syndrome=1 << 400, sweep=0)
    work = dp_work(code.base, code.codim, code.profile.blocks)
    assert code.dp_stop(budgets) == (f"sweep budget 0 < {work} DP work units "
                                     "(shift passes x q^codim + block values)")
    assert code.dp_stop(budgets._replace(sweep=work)) is None
    with pytest.raises(sd.BudgetExceeded, match=f"< {work} DP work units"):
        code.budgeted_dp(budgets._replace(sweep=work - 1))
