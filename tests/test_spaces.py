"""Matrix profiles, rank counting, ball volumes, and the metric axioms."""

import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sumrank import spaces as sp
from sumrank.construct import field_of_order


def test_profile_validation(f2):
    with pytest.raises(ValueError, match="at least one block"):
        sp.MatrixProfile(f2, ())
    with pytest.raises(ValueError, match="n <= m"):
        sp.MatrixProfile(f2, ((3, 2),))
    with pytest.raises(ValueError, match="positive"):
        sp.MatrixProfile(f2, ((0, 1),))
    prof = sp.MatrixProfile(f2, ((2, 3), (2, 2)))
    assert prof.N == 4 and prof.ambient_dim == 10 and prof.t == 2


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
        for chunk in (sp._TABLE_CHUNK, 1):
            with mock.patch.object(sp, "_TABLE_CHUNK", chunk):
                table = sp.brute_rank_array(f, n, m)
            assert table.dtype == np.int8 and table.tolist() == expected, (n, m, chunk)
        assert sp.brute_rank_counts(f, n, m) == sp.rank_distribution(n, m, q)


@pytest.mark.parametrize("q,n,m", [(2, 4, 4), (3, 2, 4)])
@pytest.mark.parametrize("chunk", [256, sp._TABLE_CHUNK])
def test_rank_table_memory_is_the_output_plus_one_chunk(q, n, m, chunk):
    """The int8 table twice, 16 bytes per chunk cell and the scalar-multiple table's build."""
    f = field_of_order(q)
    sp.brute_rank_array(f, n, m)  # the field's mul table is built once, outside the trace
    with mock.patch.object(sp, "_TABLE_CHUNK", chunk):
        tracemalloc.start()
        try:
            sp.brute_rank_array(f, n, m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak <= 2 * q ** (n * m) + 16 * chunk + 8 * q * q ** m * (m + 1)


def test_sum_rank_weight_golden(f2):
    prof = sp.MatrixProfile(f2, ((2, 2), (2, 2)))
    zero = sp.zero_word(prof)
    assert sp.sum_rank_weight(zero) == 0
    eye = ((1, 0), (0, 1))
    w = sp.SumRankWord(prof, (eye, eye))
    assert sp.sum_rank_weight(w) == 4
    with pytest.raises(ValueError, match="profile mismatch"):
        sp.sum_rank_distance(w, sp.zero_word(sp.MatrixProfile(f2, ((2, 2),))))


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
        neg = sp.word_sub(sp.zero_word(prof), word)
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
        for b in range(size):
            s = sp.matrix_add(f, mat_a, sp.unpack_matrix(f, b, n, m))
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
            assert sp.brute_rank_counts(f, n, m) == sp.rank_distribution(n, m, q)


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
            assert sp.ball_volume_exact(prof, r) == sp.brute_ball_volume(prof, r)


def _ball_volume_full(profile, r):
    """Ball volume from the per-block rank distributions convolved out to weight N."""
    vol = [1]
    for n, m in profile.blocks:
        dist = sp.rank_distribution(n, m, profile.q)
        vol = [sum(dist[k] * vol[w - k] for k in range(len(dist)) if 0 <= w - k < len(vol))
               for w in range(len(vol) + len(dist) - 1)]
    return sum(vol[:r + 1])


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
    assert exact == _ball_volume_full(prof, r)
    if prof.ambient_size <= 1 << 14:
        assert exact == int((sp.brute_weight_array(prof) <= r).sum())


def test_radius2_lower_bound(f2):
    assert sp.radius2_ball_lower_bound(2, 2, 2) == 81
    assert sp.radius2_ball_lower_bound(15, 2, 2) == 8505
    assert sp.radius2_ball_lower_bound(5, 2, 2) == 810
    prof5 = sp.MatrixProfile(f2, tuple([(2, 2)] * 5))
    assert sp.ball_volume_exact(prof5, 2) == 886
    with pytest.raises(ValueError, match="at least 2"):
        sp.radius2_ball_lower_bound(1, 2, 2)


@pytest.mark.parametrize("q", [2, 3])
def test_radius2_lower_bound_dominated(q):
    from sumrank.construct import field_of_order
    f = field_of_order(q)
    for s in (1, 2, 3):
        for t in (2, 5, 11, 20):
            bound = sp.radius2_ball_lower_bound(t, s, q)
            prof = sp.MatrixProfile(f, tuple([(s, s)] * t))
            exact = sp.ball_volume_exact(prof, 2)
            assert bound <= exact
            assert isinstance(bound, Fraction)


def test_hamming_ball_volume():
    assert sp.hamming_ball_volume(15, 0, 4) == 1
    assert sp.hamming_ball_volume(15, 2, 4) == 991
    assert sp.hamming_ball_volume(63, 2, 4) == 17767
    with pytest.raises(ValueError):
        sp.hamming_ball_volume(5, 6, 2)


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
    assert sp.ball_volume_exact(prof, r) == sp.brute_ball_volume(prof, r)


def test_packed_word_weight(f2):
    prof = sp.MatrixProfile(f2, ((2, 2), (2, 2)))
    eye = sp.pack_matrix(f2, ((1, 0), (0, 1)))
    assert sp.packed_word_weight(prof, (eye, eye)) == 4
    assert sp.packed_word_weight(prof, (0, 0)) == 0
