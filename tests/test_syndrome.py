"""The syndrome-space DP against independent oracles on random small codes.

d is compared with exhaustive enumeration, the coset-leader table with the
full ambient sweep, and the Hamming-metric radius with the Hamming sweep,
over GF(2), GF(3) and GF(4), for covering and linearized codes (n < m and
n = m) and for explicit codes with mixed block shapes.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from sumrank import certify as ct
from sumrank import construct as cs
from sumrank import hamming as hm
from sumrank import spaces as sp
from sumrank import syndrome as sd

FAST = settings(max_examples=25, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])
SMALL_CODE = 1 << 12  # largest |C| the exhaustive oracle streams here


def _code_from_rows(field, rows, n):
    red, _ = hm.rref(field, rows)
    return hm.from_generator(field, red) if red else hm.zero_code(field, n)


@st.composite
def linear_codes(draw, field, n):
    k = draw(st.integers(0, n))
    rows = [draw(st.lists(st.integers(0, field.order - 1), min_size=n, max_size=n))
            for _ in range(k)]
    return _code_from_rows(field, rows, n)


AMBIENT_BITS = 16  # ambients of at most 2^16 words keep the sweep oracle quick


@st.composite
def ingredient_codes(draw):
    q, m = draw(st.sampled_from([(2, 2), (2, 3), (3, 2), (4, 2)]))
    base = cs.field_of_order(q)
    ext = base.extension(m)
    kind = draw(st.sampled_from(["covering", "linearized-square", "linearized-thin"]))
    rows = 1 if kind == "linearized-thin" else m
    t_max = max(1, int(AMBIENT_BITS / (rows * m * math.log2(q))))
    t = draw(st.integers(1, t_max))
    ingredients = [draw(linear_codes(ext, t)) for _ in range(rows)]
    if kind == "covering":
        return cs.sr_covering(ingredients, base=base)
    return cs.sr_linearized(ingredients, base=base)


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


def _check_against_oracles(code):
    dp = ct.sr_min_distance(code)
    assert dp.method == "syndrome-dp"
    if code.size <= SMALL_CODE:
        brute = ct._exhaustive_sr_distance(code, SMALL_CODE)
        assert dp.infinite == brute.infinite
        assert dp.infinite or dp.value == brute.value
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
    assert radius == hm.covering_radius_sweep(code)
    assert table.complete(code.field.order ** code.codim)


def test_witness_survives_sparse_snapshots(monkeypatch):
    """Recomputing skipped per-block snapshots gives the same witness."""
    full = cs.quasi_perfect_2xm(3, 2, 2).syndrome_dp
    monkeypatch.setattr(sd, "_SNAPSHOT_BYTES", 1000)
    sparse = cs.quasi_perfect_2xm(3, 2, 2).syndrome_dp
    assert (sparse.distance, sparse.witness) == (full.distance, full.witness)
    assert np.array_equal(sparse.leaders, full.leaders)


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
    first = cs.sr_linearized([hm.parity_check_code(f4, 3), hm.full_code(f4, 3)], base=f2)
    second = cs.sr_linearized([hm.repetition_code(f4, 3),
                               hm.parity_check_code(f4, 3)], base=f2)
    code = cs.plotkin(first, second)
    d1, d2, d = (ct.sr_min_distance(c) for c in (first, second, code))
    assert d.method == "syndrome-dp"
    assert d.value == min(2 * d1.value, d2.value)
