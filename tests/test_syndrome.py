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

import itertools
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st

from sumrank import certify as ct
from sumrank import construct as cs
from sumrank import hamming as hm
from sumrank import spaces as sp
from sumrank import syndrome as sd

from oracles import hamming_weight

FAST = settings(max_examples=25, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])
SMALL_CODE = 1 << 12  # largest |C| the exhaustive oracle streams here


def _code_from_rows(field, rows, n):
    red, _ = hm.rref(field, rows)
    return hm.from_generator(field, red) if red else hm.zero_code(field, n)


@st.composite
def linear_codes(draw, field, n, max_k=None):
    k = draw(st.integers(0, n if max_k is None else min(n, max_k)))
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

    def enumerate_packed(self, budget=sd.ENUM_BUDGET):
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
    dp = ct.sr_min_distance(code)
    assert dp.method == "syndrome-dp"
    if code.size <= SMALL_CODE:
        best, _ = _enumeration_oracle(code)
        assert dp.infinite == (best is None)
        assert dp.infinite or dp.value == best
    if not dp.infinite:
        assert code.contains_packed(dp.witness)
        assert sp.sum_rank_weight(code.to_word(dp.witness)) == dp.value
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
    columns = list(zip(*parity)) or [()] * sum(n * m for n, m in shapes)
    starts = np.cumsum([0] + [n * m for n, m in shapes])
    blocks = [(sd.block_syndromes(field, columns[a:b]), sp.rank_array(field, n, m))
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


def _check_against_full_dp(field, parity, shapes):
    got = sd.syndrome_dp(field, parity, shapes)
    want = _full_dp_oracle(field, parity, shapes)
    assert np.array_equal(got.leaders, want.leaders)
    assert (got.distance, got.radius, got.witness) == \
        (want.distance, want.radius, want.witness)


# shapes per base field; 1 x 1 blocks are the Hamming metric, 3 x 3 takes
# three rank-1 rounds
DP_SHAPES = {2: ((1, 1), (1, 3), (2, 2), (2, 3), (3, 3)),
             3: ((1, 1), (1, 2), (2, 2), (2, 3), (3, 3)),
             4: ((1, 1), (1, 2), (2, 2), (2, 3)),
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
    return field, hm.rref(field, rows)[0], shapes


def _one_block(q, shape):
    """One block whose cells are the syndrome digits: every leader is a rank."""
    cells = shape[0] * shape[1]
    return cs.field_of_order(q), [tuple(int(i == j) for j in range(cells))
                                  for i in range(cells)], [shape]


def _problem(q, shapes, rows):
    field = cs.field_of_order(q)
    return field, hm.rref(field, rows)[0], list(shapes)


# the 3 x 3 block's syndromes have a zero last digit: they span at most 4 of D = 5
_NON_SPANNING_ROWS = np.random.default_rng(3).integers(0, 2, size=(4, 11)).tolist() + \
    [[0] * 9 + [1, 1]]


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(parity_problems())
@example(_one_block(2, (3, 3)))
@example(_one_block(3, (2, 3)))
@example(_one_block(4, (2, 2)))
@example(_one_block(9, (1, 2)))
# codim 0: one syndrome, every block's span is {0}
@example(_problem(2, [(2, 2), (1, 1)], []))
@example(_problem(3, [(1, 2)], []))
# odd D = 3; the 2 x 2 block's 4 unit syndromes span only 2 dimensions
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


def test_witness_survives_uint16_level_record(f2):
    """Past 254 blocks the level record is uint16; leaders, d and witness stay."""
    t, codim = 300, 5
    rows = np.random.default_rng(t).integers(0, 2, size=(codim, t)).tolist()
    parity = hm.rref(f2, rows)[0]
    assert len(parity) == codim
    _check_against_full_dp(f2, parity, [(1, 1)] * t)


@pytest.mark.parametrize("build", [
    lambda: cs.quasi_perfect_2xm(2, 2, 2),
    lambda: cs.almost_msrd_2x2(2, 4),
    lambda: cs.distance_optimal_2x2(2),
    lambda: cs.distance_optimal_sxs(2, 3, 1, 1),
    lambda: cs.covering_repetition(2, 2, 3),
    lambda: cs.quasi_perfect_2x2(6),
])
def test_composition_lower_bound_below_dp(build):
    code = build()
    assert code.composition_lower_bound() <= ct.sr_min_distance(code).value


def test_plotkin_rule_matches_dp(f2, f4):
    first = cs.sr_linearized([hm.parity_check_code(f4, 3), hm.full_code(f4, 3)])
    second = cs.sr_linearized([hm.repetition_code(f4, 3),
                               hm.parity_check_code(f4, 3)])
    code = cs.plotkin(first, second)
    d1, d2, d = (ct.sr_min_distance(c) for c in (first, second, code))
    assert d.method == "syndrome-dp"
    assert d.value == min(2 * d1.value, d2.value)


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
            found = ct._exhaustive_sr_distance(code)
        assert found.infinite == (best is None)
        assert found.infinite or (found.value, found.witness) == (best, witness)


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
    assume(code.size <= SMALL_CODE)
    return code


@FAST
@given(st.one_of(small_mixed_codes(), ingredient_codes(max_size=SMALL_CODE),
                 extended_codes(), plotkin_codes()))
def test_kernel_matches_enumeration_loop(code):
    _check_kernel(code)


def test_enumeration_memory_stays_within_the_chunk_bound():
    """Weighing 2^16 words of 16 blocks holds one chunk's live bytes, not the whole span."""
    code = cs.covering_repetition(2, 4, 16)
    rows, blocks = code._generator_rows_packed(), code.weight_blocks
    assert code.size == 1 << 16
    tracemalloc.start()
    try:
        found = sd.least_weight_word(code.base, rows, blocks)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert found[0] == 16
    assert peak < 3 << 19  # 1.5 MB; the whole 16 x 2^16 uint16 span is 2 MB


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
        assert sd.least_weight_word(code.field, code.generator,
                                    code.weight_blocks) is None
        return
    assert sd.least_weight_word(code.field, code.generator,
                                code.weight_blocks) == (best, witness)


def _assert_enumeration_order(code):
    cells = [n for n, _ in code.weight_blocks]
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
