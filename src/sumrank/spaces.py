"""Matrix spaces over GF(q), the sum-rank metric, and exact ball volumes.

Block matrices are tuples of row tuples of field ints.  A block of shape
n x m over GF(q) also has a packed form: entry (i, j) contributes
value * q**(i*m + j), i.e. row-major little-endian digits.  Ambient words
pack the same way, blocks in order, which keeps ambient sweeps, rank
tables and parity-check columns mutually consistent.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb

import numpy as np

from .gf import Field, digit_adder

BRUTE_LIMIT = 1 << 24  # most values a rank table or an ambient sweep enumerates


@dataclass(frozen=True)
class MatrixProfile:
    """Shape of a sum-rank ambient space: base field plus per-block sizes."""

    field: Field
    blocks: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if not self.blocks:
            raise ValueError("a profile needs at least one block")
        for n, m in self.blocks:
            if n < 1 or m < 1:
                raise ValueError("block dimensions must be positive")
            if n > m:
                raise ValueError(f"block shape {n}x{m} violates n <= m")
        object.__setattr__(self, "blocks", tuple((int(n), int(m)) for n, m in self.blocks))

    @property
    def q(self) -> int:
        return self.field.order

    @property
    def t(self) -> int:
        return len(self.blocks)

    @property
    def N(self) -> int:
        return sum(n for n, _ in self.blocks)

    @property
    def ambient_dim(self) -> int:
        return sum(n * m for n, m in self.blocks)

    @property
    def ambient_size(self) -> int:
        return self.q ** self.ambient_dim

    def block_space_sizes(self) -> tuple[int, ...]:
        return tuple(self.q ** (n * m) for n, m in self.blocks)

    def max_weight(self) -> int:
        return sum(min(n, m) for n, m in self.blocks)

    def describe(self) -> dict:
        return {"field": self.field.describe(), "blocks": [list(b) for b in self.blocks]}


@dataclass(frozen=True)
class SumRankWord:
    """A tuple of matrices matching a profile."""

    profile: MatrixProfile
    matrices: tuple[tuple[tuple[int, ...], ...], ...]

    def __post_init__(self):
        if len(self.matrices) != self.profile.t:
            raise ValueError("wrong number of blocks")
        for (n, m), mat in zip(self.profile.blocks, self.matrices):
            if len(mat) != n or any(len(row) != m for row in mat):
                raise ValueError(f"block does not match declared shape {n}x{m}")

    def packed_blocks(self) -> tuple[int, ...]:
        f = self.profile.field
        return tuple(pack_matrix(f, mat) for mat in self.matrices)


def zero_matrix(n: int, m: int) -> tuple[tuple[int, ...], ...]:
    return tuple((0,) * m for _ in range(n))


def zero_word(profile: MatrixProfile) -> SumRankWord:
    return SumRankWord(profile, tuple(zero_matrix(n, m) for n, m in profile.blocks))


def matrix_add(field: Field, a, b):
    return tuple(tuple(field.add(x, y) for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def matrix_sub(field: Field, a, b):
    return tuple(tuple(field.sub(x, y) for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def word_add(x: SumRankWord, y: SumRankWord) -> SumRankWord:
    if x.profile != y.profile:
        raise ValueError("profile mismatch")
    f = x.profile.field
    return SumRankWord(x.profile, tuple(
        matrix_add(f, a, b) for a, b in zip(x.matrices, y.matrices)))


def word_sub(x: SumRankWord, y: SumRankWord) -> SumRankWord:
    if x.profile != y.profile:
        raise ValueError("profile mismatch")
    f = x.profile.field
    return SumRankWord(x.profile, tuple(
        matrix_sub(f, a, b) for a, b in zip(x.matrices, y.matrices)))


def pack_matrix(field: Field, mat) -> int:
    q = field.order
    v = 0
    for row in reversed(mat):
        for entry in reversed(row):
            v = v * q + field.check(entry)
    return v


def unpack_matrix(field: Field, packed: int, n: int, m: int):
    q = field.order
    rows = []
    for _ in range(n):
        row = []
        for _ in range(m):
            packed, r = divmod(packed, q)
            row.append(r)
        rows.append(tuple(row))
    return tuple(rows)


# ----------------------------------------------------------------------
# rank
# ----------------------------------------------------------------------

def rank(field: Field, mat) -> int:
    """Rank over GF(q) by Gaussian elimination."""
    rows = [list(r) for r in mat if any(r)]
    if not rows:
        return 0
    ncols = len(rows[0])
    rk = 0
    for col in range(ncols):
        piv = next((i for i in range(rk, len(rows)) if rows[i][col] != 0), None)
        if piv is None:
            continue
        rows[rk], rows[piv] = rows[piv], rows[rk]
        inv = field.inv(rows[rk][col])
        rows[rk] = [field.mul(inv, x) for x in rows[rk]]
        for i in range(len(rows)):
            if i != rk and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [field.sub(rows[i][j], field.mul(f, rows[rk][j]))
                           for j in range(ncols)]
        rk += 1
        if rk == len(rows):
            break
    return rk


def sum_rank_weight(word: SumRankWord) -> int:
    f = word.profile.field
    return sum(rank(f, mat) for mat in word.matrices)


def sum_rank_distance(x: SumRankWord, y: SumRankWord) -> int:
    return sum_rank_weight(word_sub(x, y))


# ----------------------------------------------------------------------
# exact counting
# ----------------------------------------------------------------------

def count_rank_matrices(n: int, m: int, r: int, q: int) -> int:
    """Exact number of n x m matrices over GF(q) of rank exactly r."""
    if r < 0 or r > min(n, m):
        raise ValueError(f"rank {r} out of range for {n}x{m}")
    num = 1
    for i in range(r):
        num *= (q ** n - q ** i) * (q ** m - q ** i)
    den = 1
    for i in range(r):
        den *= q ** r - q ** i
    count, rem = divmod(num, den)
    assert rem == 0
    return count


def rank_distribution(n: int, m: int, q: int) -> list[int]:
    return [count_rank_matrices(n, m, r, q) for r in range(min(n, m) + 1)]


def hamming_ball_volume(n: int, r: int, q: int) -> int:
    if r < 0 or r > n:
        raise ValueError(f"radius {r} out of range for length {n}")
    return sum(comb(n, i) * (q - 1) ** i for i in range(r + 1))


def ball_volume_exact(profile: MatrixProfile, r: int) -> int:
    """|{x : wt_sr(x) <= r}| by convolving per-block rank distributions.

    The convolution stops at weight r: the count at weight w reads only the
    counts at weights <= w.
    """
    if r < 0:
        raise ValueError("radius must be nonnegative")
    q = profile.q
    r = min(r, profile.max_weight())
    vol = [0] * (r + 1)
    vol[0] = 1
    upto = 0
    for n, m in profile.blocks:
        dist = rank_distribution(n, m, q)
        upto += len(dist) - 1
        new = [0] * (r + 1)
        for w in range(min(upto, r) + 1):
            acc = 0
            for rk, cnt in enumerate(dist):
                if rk > w:
                    break
                acc += cnt * vol[w - rk]
            new[w] = acc
        vol = new
    return sum(vol)


def radius2_ball_lower_bound(t: int, s: int, q: int) -> Fraction:
    """Lower bound t(t-1)(q^s-1)^4 / (2(q-1)^2) for the radius-2 ball."""
    if t < 2:
        raise ValueError("block count must be at least 2")
    if s < 1:
        raise ValueError("matrix size must be positive")
    return Fraction(t * (t - 1) * (q ** s - 1) ** 4, 2 * (q - 1) ** 2)


# ----------------------------------------------------------------------
# rank tables: the production weights of every block value
# ----------------------------------------------------------------------

_TABLE_CHUNK = 1 << 16  # rank-table cells filled per step


def _row_multiples(field: Field, m: int) -> np.ndarray:
    """T[c, r]: the scalar c times the packed length-m row r, for every c and r."""
    q = field.order
    powers = q ** np.arange(m, dtype=np.int64)
    digits = np.arange(q ** m, dtype=np.int64)[:, None] // powers % q
    return field.np_table("mul")[:, digits] @ powers


def brute_rank_array(field: Field, n: int, m: int) -> np.ndarray:
    """Rank of every packed n x m matrix over the field, as one int8 table.

    rank M = n - log_q |{x : x^T M = 0}|, with the kernel counted over the
    projective x by the position of their first nonzero entry.  Those past
    row 0 are the kernel of H, the rows 1..n-1, whose table is built first.
    Those with x_0 = 1 solve r_0 = -(y^T H), which has solutions exactly
    when row r_0 lies in the row space of H, so rank M is rank H, plus 1
    when r_0 is outside it.  Row 0 is the least significant in packing
    order, so the q^m matrices that share H fill consecutive cells: all are
    set to rank H + 1, then the q^(n-1) combinations y^T H, formed on packed
    rows from a q x q^m table of scalar multiples with XOR (p = 2) or
    digit-wise addition mod p, are set to rank H.  `_TABLE_CHUNK` cells are
    filled per step, so only the int8 output grows with q^(nm).
    """
    q = field.order
    size = q ** (n * m)
    if size > BRUTE_LIMIT:
        raise ValueError(f"brute enumeration of {size} matrices exceeds the cap")
    if n > m:
        raise ValueError("profiles require n <= m")
    width = q ** m  # packed values of one row
    if n > 1:  # rows to combine; then width <= 2^12 under the cap
        times = _row_multiples(field, m)
        add = digit_adder(field.p, field.dim_over_prime * m)
    ranks = np.zeros(1, dtype=np.int8)  # the one matrix of no rows
    for k in range(1, n + 1):  # matrices of the last k rows, from those of k - 1
        high, ranks = ranks, np.empty(len(ranks) * width, dtype=np.int8)
        step = max(1, _TABLE_CHUNK // width)
        for lo in range(0, len(high), step):
            hi = min(lo + step, len(high))
            cells = ranks[lo * width:hi * width].reshape(hi - lo, width)
            cells[:] = high[lo:hi, None] + 1
            h = np.arange(lo, hi, dtype=np.int64)
            span = [np.zeros(1, dtype=np.int64)]
            for j in range(k - 1):
                row = times[:, h // width ** j % width]
                span = [add(s, row[c]) if j else row[c] for s in span for c in range(q)]
            at = np.arange(hi - lo)
            for s in span:
                cells[at, s] = high[lo:hi]
    return ranks


def brute_rank_counts(field: Field, n: int, m: int) -> list[int]:
    ranks = brute_rank_array(field, n, m)
    return [int((ranks == r).sum()) for r in range(min(n, m) + 1)]


@lru_cache(maxsize=None)
def _rank_array_cached(field: Field, n: int, m: int) -> np.ndarray:
    return brute_rank_array(field, n, m)


def rank_array(field: Field, n: int, m: int) -> np.ndarray:
    """Rank of every packed n x m matrix, built once per (field, n, m)."""
    return _rank_array_cached(field, n, m)


def rank_classes(field: Field, n: int, m: int) -> list[np.ndarray]:
    """Packed matrix ids grouped by rank, ascending ids within each class."""
    ranks = rank_array(field, n, m)
    return [np.flatnonzero(ranks == r) for r in range(min(n, m) + 1)]


def brute_weight_array(profile: MatrixProfile) -> np.ndarray:
    """Sum-rank weight of every packed ambient word (ambient sweeps)."""
    size = profile.ambient_size
    if size > BRUTE_LIMIT:
        raise ValueError(f"ambient sweep of {size} words exceeds the cap")
    dtype = np.int32 if size <= 1 << 31 else np.int64
    idx = np.arange(size, dtype=dtype)
    weights = np.zeros(size, dtype=np.int16)
    if profile.q == 2:
        shift = 0
        for n, m in profile.blocks:
            arr = rank_array(profile.field, n, m)
            weights += arr[(idx >> shift) & ((1 << (n * m)) - 1)].astype(np.int16)
            shift += n * m
        return weights
    stride = 1
    for (n, m), bs in zip(profile.blocks, profile.block_space_sizes()):
        arr = rank_array(profile.field, n, m)
        weights += arr[(idx // stride) % bs].astype(np.int16)
        stride *= bs
    return weights


def brute_ball_volume(profile: MatrixProfile, r: int) -> int:
    """Ball volume by full ambient enumeration (oracle for the DP path)."""
    return int((brute_weight_array(profile) <= r).sum())


def packed_word_weight(profile: MatrixProfile, packed) -> int:
    """Sum-rank weight of a word given as per-block packed ints."""
    total = 0
    for (n, m), pk in zip(profile.blocks, packed):
        total += int(rank_array(profile.field, n, m)[pk])
    return total
