"""Matrix profiles, rank counting, ball volumes, and the metric axioms."""

import math
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sumrank import spaces as sp
from sumrank.construct import FAMILIES, field_of_order

from oracles import (brute_ball_volume, brute_rank_counts, convolved_weight_counts, matrix_sub,
                     radius2_ball_lower_bound, word_sub)


def test_profile_validation(f2):
    with pytest.raises(ValueError, match="at least one block"):
        sp.MatrixProfile(f2, ())
    with pytest.raises(ValueError, match="n <= m"):
        sp.MatrixProfile(f2, ((3, 2),))
    with pytest.raises(ValueError, match="positive"):
        sp.MatrixProfile(f2, ((0, 1),))
    prof = sp.MatrixProfile(f2, ((2, 3), (2, 2)))
    assert prof.N == 4 and prof.ambient_dim == 10 and prof.t == 2


def test_profile_is_an_immutable_value(f2, f4):
    """Profiles key caches: equal fields give equal profiles and equal hashes."""
    a = sp.MatrixProfile(f2, [(np.int64(1), 2), (2, 2)])
    b = sp.MatrixProfile(f2, ((1, 2), (2, 2)))
    assert a.blocks == ((1, 2), (2, 2)) and all(type(x) is int for blk in a.blocks for x in blk)
    assert a == b and hash(a) == hash(b) and {a: "cached"}[b] == "cached"
    assert a != sp.MatrixProfile(f4, b.blocks) and a != sp.MatrixProfile(f2, ((1, 2),))
    assert a != (f2, b.blocks)
    assert repr(a) == f"MatrixProfile(field={f2!r}, blocks=((1, 2), (2, 2)))"
    with pytest.raises(AttributeError):
        a.blocks = ((2, 2),)
    with pytest.raises(AttributeError):
        a.extra = 1
    with pytest.raises(AttributeError):
        del a.field
    assert a.blocks == ((1, 2), (2, 2)) and a.field == f2


def test_validation_messages_are_pinned(f2):
    with pytest.raises(ValueError, match=r"^a profile needs at least one block$"):
        sp.MatrixProfile(f2, ())
    with pytest.raises(ValueError, match=r"^block dimensions must be positive$"):
        sp.MatrixProfile(f2, ((1, 0),))
    with pytest.raises(ValueError, match=r"^block shape 3x2 violates n <= m$"):
        sp.MatrixProfile(f2, ((3, 2),))
    prof = sp.MatrixProfile(f2, ((1, 2), (2, 2)))
    with pytest.raises(ValueError, match=r"^wrong number of blocks$"):
        sp.SumRankWord(prof, (((0, 1),),))
    with pytest.raises(ValueError, match=r"^block does not match declared shape 2x2$"):
        sp.SumRankWord(prof, (((0, 1),), ((0, 1),)))
    with pytest.raises(ValueError, match=r"^block does not match declared shape 1x2$"):
        sp.SumRankWord(prof, (((0, 1, 1),), ((0, 1), (1, 0))))


def test_word_is_an_immutable_value(f2):
    prof = sp.MatrixProfile(f2, ((1, 2), (2, 2)))
    mats = (((0, 1),), ((1, 0), (0, 1)))
    w = sp.SumRankWord(prof, mats)
    same = sp.SumRankWord(sp.MatrixProfile(f2, ((1, 2), (2, 2))), mats)
    zero = word_sub(w, w)
    assert w == same and hash(w) == hash(same) and w != zero and word_sub(w, zero) == w
    with pytest.raises(AttributeError):
        w.matrices = zero.matrices
    assert w.matrices == mats


def test_rank_golden(f2):
    assert sp.rank(f2, ((0, 0), (0, 0))) == 0
    assert sp.rank(f2, ((1, 0), (0, 1))) == 2
    assert sp.rank(f2, ((1, 1), (1, 1))) == 1


def test_rank_matches_kernel_enumeration(f4):
    """Elimination rank equals the batch enumeration rank on 2x2 GF(4)."""
    arr = sp.brute_rank_array(f4, 2, 2)
    for packed in range(256):
        mat = sp.unpack_matrix(f4, packed, 2, 2)
        assert sp.rank(f4, mat) == arr[packed]


def test_rank_tables_are_built_once_per_field_and_shape(f3, f4):
    sp._rank_array_cached.cache_clear()

    def misses():
        return sp._rank_array_cached.cache_info().misses

    first = sp.rank_array(f3, 2, 2)
    assert misses() == 1
    assert sp.rank_array(f3, 2, 2) is first and misses() == 1
    sp.rank_array(f3, 2, 3)
    sp.rank_array(f4, 2, 2)
    assert misses() == 3
    sp.rank_array(f4, 2, 2)
    assert misses() == 3


def test_brute_rank_array_odd_q_stops_at_the_cap(f3):
    # every odd-q shape with n >= 4 has at least 3^16 > 2^24 matrices
    with pytest.raises(ValueError, match="exceeds the cap"):
        sp.brute_rank_array(f3, 4, 4)


ORACLE_ORDERS = (2, 3, 4, 5, 7, 8, 9)


@pytest.mark.parametrize("q", ORACLE_ORDERS)
def test_rank_table_equals_elimination_on_every_matrix(q):
    """Every n <= m <= 4 shape of at most 2^12 matrices, at the default and a tiny chunk."""
    f = field_of_order(q)
    shapes = [(n, m) for n in range(1, 5) for m in range(n, 5) if q ** (n * m) <= 1 << 12]
    for n, m in shapes:
        expected = [sp.rank(f, sp.unpack_matrix(f, v, n, m)) for v in range(q ** (n * m))]
        for chunk in (sp._CHUNK_BYTES, 1):  # 1 byte: one row of cells a step
            with mock.patch.object(sp, "_CHUNK_BYTES", chunk):
                table = sp.brute_rank_array(f, n, m)
            assert table.dtype == np.int8 and table.tolist() == expected, (n, m, chunk)
        assert brute_rank_counts(f, n, m) == sp.rank_distribution(n, m, q)


@pytest.mark.parametrize("q,n,m", [(2, 4, 4), (3, 2, 4)])
@pytest.mark.parametrize("chunk", [256, sp._CHUNK_BYTES // 16])
def test_rank_table_memory_is_the_output_plus_one_chunk(q, n, m, chunk):
    """The int8 table twice, 16 bytes per chunk cell and the scalar-multiple table's build;
    a step fills `_CHUNK_BYTES` / 16 cells."""
    f = field_of_order(q)
    sp.brute_rank_array(f, n, m)  # the field's mul table is built once, outside the trace
    with mock.patch.object(sp, "_CHUNK_BYTES", 16 * chunk):
        tracemalloc.start()
        try:
            sp.brute_rank_array(f, n, m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak <= 2 * q ** (n * m) + 16 * chunk + 8 * q * q ** m * (m + 1)


def _weights_oracle(prof):
    """Sum-rank weight of every ambient word, one full-size gather per block."""
    words = np.arange(prof.ambient_size, dtype=np.int64)
    weights = np.zeros(prof.ambient_size, dtype=np.int16)
    for (n, m), size in zip(prof.blocks, prof.block_space_sizes()):
        weights += sp.rank_array(prof.field, n, m)[words % size]
        words //= size
    return weights


@pytest.mark.parametrize("q, blocks", [
    (2, ((2, 2), (1, 3), (1, 1))), (3, ((1, 2), (2, 2))), (4, ((1, 2), (1, 1), (2, 2))),
    (5, ((1, 1), (1, 2), (1, 1))), (9, ((1, 2), (1, 1))),
])
@pytest.mark.parametrize("chunk", [sp._CHUNK_BYTES, 64])
def test_brute_weight_array_matches_oracle(q, blocks, chunk):
    prof = sp.MatrixProfile(field_of_order(q), blocks)
    with mock.patch.object(sp, "_CHUNK_BYTES", chunk):  # 64 bytes: 4 words a chunk
        weights = sp.brute_weight_array(prof)
    assert weights.dtype == np.int16
    assert weights.tobytes() == _weights_oracle(prof).tobytes()


@pytest.mark.parametrize("q, blocks", [(2, ((3, 3), (3, 3))), (3, ((2, 4), (1, 3)))])
def test_brute_weight_array_memory_is_its_output(q, blocks):
    # 2^18 and 3^11 words: full-size temporaries would take 13 bytes a word
    prof = sp.MatrixProfile(field_of_order(q), blocks)
    for n, m in blocks:
        sp.rank_array(prof.field, n, m)  # the cached tables are built outside the trace
    tracemalloc.start()
    try:
        weights = sp.brute_weight_array(prof)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= weights.nbytes + 2 * 2 ** 20


def test_sum_rank_weight_golden(f2):
    prof = sp.MatrixProfile(f2, ((2, 2), (2, 2)))
    eye = ((1, 0), (0, 1))
    w = sp.SumRankWord(prof, (eye, eye))
    assert sp.sum_rank_weight(w) == 4
    assert sp.sum_rank_weight(word_sub(w, w)) == 0


def test_word_shape_validation(f2):
    prof = sp.MatrixProfile(f2, ((2, 2),))
    with pytest.raises(ValueError, match="shape"):
        sp.SumRankWord(prof, (((1, 0, 0), (0, 1, 0)),))


def test_metric_symmetry_and_identity(f3):
    prof = sp.MatrixProfile(f3, ((1, 2), (1, 1)))
    size = prof.ambient_size
    weights = sp.brute_weight_array(prof)
    assert weights[0] == 0 and (weights[1:] > 0).all()
    for packed in range(size):
        mats = [sp.unpack_matrix(f3, pk, n, m) for (n, m), pk in
                zip(prof.blocks, _split(packed, prof))]
        word = sp.SumRankWord(prof, tuple(mats))
        neg = word_sub(word_sub(word, word), word)
        assert sp.sum_rank_weight(word) == sp.sum_rank_weight(neg) == weights[packed]


def _split(packed, prof):
    out = []
    for bs in prof.block_space_sizes():
        packed, r = divmod(packed, bs)
        out.append(r)
    return out


def test_triangle_inequality_full_space(f2):
    """d(x,z) <= d(x,y) + d(y,z) over the entire 2-block 2x2 binary space."""
    prof = sp.MatrixProfile(f2, ((2, 2), (2, 2)))
    wt = sp.brute_weight_array(prof).astype(np.int16)
    idx = np.arange(256)
    diff = idx[:, None] ^ idx[None, :]
    pair = wt[diff]
    # min-plus square: min over y of d(x,y) + d(y,z)
    best = np.min(pair[:, :, None] + pair[None, :, :], axis=1)
    assert (pair <= best).all()


@pytest.mark.parametrize("q,n,m", [(2, 2, 2), (2, 2, 3), (3, 2, 2), (4, 2, 2)])
def test_rank_subadditive_on_blocks(q, n, m):
    from sumrank.construct import field_of_order
    f = field_of_order(q)
    size = q ** (n * m)
    arr = sp.brute_rank_array(f, n, m)
    for a in range(size):
        mat_a = sp.unpack_matrix(f, a, n, m)
        for b in range(size):  # rank(-b) = rank b, so a - b covers every sum
            s = matrix_sub(f, mat_a, sp.unpack_matrix(f, b, n, m))
            assert arr[sp.pack_matrix(f, s)] <= arr[a] + arr[b]


def test_count_rank_golden():
    assert sp.count_rank_matrices(2, 2, 1, 2) == 9
    assert sp.count_rank_matrices(3, 3, 1, 2) == 49
    assert sp.count_rank_matrices(4, 7, 0, 3) == 1
    with pytest.raises(ValueError, match="out of range"):
        sp.count_rank_matrices(2, 2, 3, 2)


@pytest.mark.parametrize("q", [2, 3, 4])
def test_count_rank_sums_and_rank1_closed_form(q):
    from sumrank.construct import field_of_order
    field_of_order(q)
    for n in range(1, 4):
        for m in range(n, 4):
            dist = sp.rank_distribution(n, m, q)
            assert sum(dist) == q ** (n * m)
            assert dist[1] == (q ** n - 1) * (q ** m - 1) // (q - 1)


def test_brute_counts_match_formula_small(f2, f3, f4):
    for f in (f2, f3, f4):
        q = f.order
        for n, m in [(1, 1), (1, 3), (2, 2), (2, 3)]:
            if q ** (n * m) > 1 << 16:
                continue
            assert brute_rank_counts(f, n, m) == sp.rank_distribution(n, m, q)


def test_ball_volume_golden(f2):
    prof2 = sp.MatrixProfile(f2, ((2, 2), (2, 2)))
    assert sp.ball_volume_exact(prof2, 0) == 1
    assert sp.ball_volume_exact(prof2, 2) == 112
    prof15 = sp.MatrixProfile(f2, tuple([(2, 2)] * 15))
    assert sp.ball_volume_exact(prof15, 2) == 8731
    assert sp.ball_volume_exact(prof2, prof2.N) == prof2.ambient_size
    vols = [sp.ball_volume_exact(prof2, r) for r in range(prof2.N + 1)]
    assert vols == sorted(vols)


def test_ball_volume_heterogeneous_brute(f2, f3):
    profiles = [
        sp.MatrixProfile(f2, ((2, 3), (2, 2))),
        sp.MatrixProfile(f2, ((2, 2), (1, 1), (2, 3))),
        sp.MatrixProfile(f3, ((2, 2), (1, 2))),
    ]
    for prof in profiles:
        for r in range(prof.N + 1):
            assert sp.ball_volume_exact(prof, r) == brute_ball_volume(prof, r)


BALL_SHAPES = {2: ((1, 1), (1, 2), (2, 2), (1, 3), (2, 3)), 3: ((1, 1), (1, 2), (2, 2))}


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(BALL_SHAPES)).flatmap(lambda q: st.tuples(
    st.just(q), st.lists(st.sampled_from(BALL_SHAPES[q]), min_size=1, max_size=5))),
    st.integers(0, 12))
def test_ball_volume_stops_at_radius(shape, r):
    from sumrank.construct import field_of_order
    q, blocks = shape
    prof = sp.MatrixProfile(field_of_order(q), tuple(blocks))
    exact = sp.ball_volume_exact(prof, r)
    assert exact == sum(convolved_weight_counts(prof)[:r + 1])
    if prof.ambient_size <= 1 << 14:
        assert exact == int((sp.brute_weight_array(prof) <= r).sum())


STREAM_SHAPES = [(n, m) for m in range(1, 5) for n in range(1, m + 1)]


@st.composite
def stream_profiles(draw):
    """A profile over GF(q), p = 2 or odd, of mixed shapes up to 4 x 4, and a stop radius."""
    q = draw(st.sampled_from([2, 3, 4, 5, 7, 8, 9]))
    blocks = draw(st.lists(st.sampled_from(STREAM_SHAPES), min_size=1, max_size=8))
    prof = sp.MatrixProfile(field_of_order(q), tuple(blocks))
    return prof, draw(st.none() | st.integers(0, prof.N + 2))


@settings(max_examples=80, deadline=None)
@given(stream_profiles())
def test_weight_stream_matches_the_convolution(problem):
    """Every ball volume, and the packing radius at every codimension, read from the
    weight-count stream, equal those of the per-block convolution, past the largest
    weight too, and of the ambient sweep where it is small."""
    prof, stop = problem
    volumes = np.cumsum(np.array(convolved_weight_counts(prof), dtype=object)).tolist()
    assert len(volumes) == prof.N + 1 and volumes[-1] == prof.ambient_size
    for r in range(prof.N + 3):
        assert sp.ball_volume_exact(prof, r) == volumes[min(r, len(volumes) - 1)]
    for codim in range(prof.ambient_dim + 1):
        least = next((r for r, v in enumerate(volumes) if v > prof.q ** codim), None)
        assert sp.packing_radius(prof.q, prof.shape_counts(), codim) == least
        assert sp.packing_radius(prof.q, prof.shape_counts(), codim, stop) == (
            least if least is None or stop is None or least <= stop else None)
    if prof.ambient_size <= 1 << 12:
        weights = sp.brute_weight_array(prof)
        assert volumes == [int((weights <= r).sum()) for r in range(len(volumes))]


def test_radius2_lower_bound(f2):
    assert radius2_ball_lower_bound(2, 2, 2) == 81
    assert radius2_ball_lower_bound(15, 2, 2) == 8505
    assert radius2_ball_lower_bound(5, 2, 2) == 810
    prof5 = sp.MatrixProfile(f2, tuple([(2, 2)] * 5))
    assert sp.ball_volume_exact(prof5, 2) == 886
    with pytest.raises(ValueError, match="at least 2"):
        radius2_ball_lower_bound(1, 2, 2)


@pytest.mark.parametrize("q", [2, 3])
def test_radius2_lower_bound_dominated(q):
    from sumrank.construct import field_of_order
    f = field_of_order(q)
    for s in (1, 2, 3):
        for t in (2, 5, 11, 20):
            bound = radius2_ball_lower_bound(t, s, q)
            prof = sp.MatrixProfile(f, tuple([(s, s)] * t))
            exact = sp.ball_volume_exact(prof, 2)
            assert bound <= exact
            assert isinstance(bound, Fraction)


def test_hamming_ball_volume():
    assert sp.ball_volume(4, {(1, 1): 15}, 0) == 1
    assert sp.ball_volume(4, {(1, 1): 15}, 2) == 991
    assert sp.ball_volume(4, {(1, 1): 63}, 2) == 17767
    # the 1 x 1 case of the weight stream is the closed form sum_i C(n, i) (q - 1)^i
    for n, q in ((1, 2), (7, 3), (20, 4), (40, 9)):
        for r in range(n + 1):
            assert sp.ball_volume(q, {(1, 1): n}, r) == sum(
                math.comb(n, i) * (q - 1) ** i for i in range(r + 1))


def test_pack_unpack_roundtrip(f4):
    for packed in range(0, 4 ** 4, 7):
        mat = sp.unpack_matrix(f4, packed, 2, 2)
        assert sp.pack_matrix(f4, mat) == packed


@settings(max_examples=25, deadline=None)
@given(st.sampled_from([2, 3, 4]),
       st.lists(st.tuples(st.integers(1, 2), st.integers(1, 3)), min_size=1, max_size=3),
       st.integers(0, 6))
def test_dp_volume_matches_brute(q, raw_blocks, r):
    from sumrank.construct import field_of_order
    f = field_of_order(q)
    blocks = tuple((min(n, m), max(n, m)) for n, m in raw_blocks)
    prof = sp.MatrixProfile(f, blocks)
    if prof.ambient_size > 1 << 14:
        return
    assert sp.ball_volume_exact(prof, r) == brute_ball_volume(prof, r)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([2, 3, 4, 5, 7, 8, 9]), st.integers(2, 5), st.integers(2, 6))
def test_quasi_perfect_family_balls_have_closed_forms(q, m, u):
    """quasi-perfect-2xm has t = (Y - 1)/(X - 1) blocks of 2 x m, X = q^m and Y = q^(mu), at
    codim m(u + 1): V_sr(1) = 1 + (q + 1)(Y - 1), as a 2 x m block has (q + 1)(X - 1) values
    of rank 1, and V_sr(2) = 1 + (X + 1)(Y - 1) + (q + 1)^2 (Y - 1)(Y - X)/2, adding the
    X^2 - 1 nonzero values of one block and the pairs of rank-1 values.  So V_sr(1) <
    q^codim = XY < V_sr(2), as Y > X >= q^2 > q + 1: R >= 2 and d <= 4 on every member."""
    X, Y = q ** m, q ** (m * u)
    fam = FAMILIES["quasi-perfect-2xm"](q, m, u)
    shapes = {fam.shape: fam.t}
    assert (fam.shape, fam.t, fam.codim) == ((2, m), (Y - 1) // (X - 1), m * (u + 1))
    one, two = sp.ball_volume(q, shapes, 1), sp.ball_volume(q, shapes, 2)
    assert one == 1 + (q + 1) * (Y - 1)
    assert 2 * (two - 1 - (X + 1) * (Y - 1)) == (q + 1) ** 2 * (Y - 1) * (Y - X)
    assert one < q ** fam.codim == X * Y < two
    assert sp.packing_radius(q, shapes, fam.codim) == 2
    assert sp.packing_radius(q, shapes, fam.codim, covering=True) == 2
