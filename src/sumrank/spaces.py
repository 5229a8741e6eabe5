"""Matrix spaces over GF(q), the sum-rank metric, and exact ball volumes.

Block matrices are tuples of row tuples of field ints.  A block of shape
n x m over GF(q) also has a packed form: entry (i, j) contributes
value * q**(i*m + j), i.e. row-major little-endian digits.  Ambient words
pack the same way, blocks in order, which keeps ambient sweeps, rank
tables and parity-check columns mutually consistent.  Every ball volume
reads a prefix of one stream of weight counts (`weight_counts`) of `Shapes`.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterator, Mapping
from functools import lru_cache, reduce
from itertools import accumulate, islice
from types import MappingProxyType

import numpy as np

from .gf import (_CHUNK_BYTES, Field, UsageError, array_digits, digit_adder, digits,
                 place_values, undigits)

BRUTE_LIMIT = 1 << 24  # most values a rank table or an ambient sweep enumerates
Shapes = Mapping[tuple[int, int], int]  # {(n, m): count}, the blocks the counting bounds read


class MatrixProfile:
    """Shape of a sum-rank ambient space: base field plus per-block sizes.

    Immutable, compared and hashed by (field, blocks): profiles key caches.
    """

    def __init__(self, field: Field, blocks: tuple[tuple[int, int], ...]):
        blocks = tuple((int(n), int(m)) for n, m in blocks)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "_shapes", MappingProxyType(block_counts(blocks)))  # counted once

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not MatrixProfile:
            return NotImplemented
        return self.field == other.field and self.blocks == other.blocks

    def __hash__(self):
        return hash((self.field, self.blocks))

    def __repr__(self):
        return f"MatrixProfile(field={self.field!r}, blocks={self.blocks!r})"

    @property
    def q(self) -> int:
        return self.field.order

    @property
    def t(self) -> int:
        return len(self.blocks)

    @property
    def N(self) -> int:
        return sum(n * count for (n, _), count in self._shapes.items())

    @property
    def ambient_dim(self) -> int:
        return sum(n * m * count for (n, m), count in self._shapes.items())

    @property
    def ambient_size(self) -> int:
        return self.q ** self.ambient_dim

    def block_space_sizes(self) -> tuple[int, ...]:
        return tuple(self.q ** (n * m) for n, m in self.blocks)

    def shape_counts(self) -> Shapes:
        return self._shapes  # a read-only view: every size above reads it

    def describe(self) -> dict:
        return {"field": self.field.describe(), "blocks": [list(b) for b in self.blocks]}


def block_counts(blocks) -> Shapes:
    """The `Shapes` of `blocks`, at least one, each n x m with 1 <= n <= m; else a UsageError."""
    if not blocks:
        raise UsageError("a profile needs at least one block")
    for n, m in blocks:
        if n < 1 or m < 1:
            raise UsageError("block dimensions must be positive")
        if n > m:
            raise UsageError(f"block shape {n}x{m} violates n <= m")
    return Counter(blocks)


class SumRankWord:
    """A tuple of matrices matching a profile; immutable, compared by value."""

    def __init__(self, profile: MatrixProfile,
                 matrices: tuple[tuple[tuple[int, ...], ...], ...]):
        if len(matrices) != profile.t:
            raise ValueError("wrong number of blocks")
        for (n, m), mat in zip(profile.blocks, matrices):
            if len(mat) != n or any(len(row) != m for row in mat):
                raise ValueError(f"block does not match declared shape {n}x{m}")
        object.__setattr__(self, "profile", profile)
        object.__setattr__(self, "matrices", matrices)

    __setattr__ = MatrixProfile.__setattr__
    __delattr__ = MatrixProfile.__delattr__

    def __eq__(self, other):
        if other.__class__ is not SumRankWord:
            return NotImplemented
        return self.profile == other.profile and self.matrices == other.matrices

    def __hash__(self):
        return hash((self.profile, self.matrices))

    def __repr__(self):
        return f"SumRankWord(profile={self.profile!r}, matrices={self.matrices!r})"


def pack_matrix(field: Field, mat) -> int:
    return undigits([field.check(x) for row in mat for x in row], field.order)


def unpack_matrix(field: Field, packed: int, n: int, m: int):
    cells = digits(packed, field.order, n * m)
    return tuple(tuple(cells[i:i + m]) for i in range(0, n * m, m))


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


def ball_volume(q: int, shapes: Shapes, r: int) -> int:
    """|{x : wt_sr(x) <= r}| over GF(q) blocks `shapes`, the first r + 1 `weight_counts` (all
    of them, the whole space, for r at or past the largest weight, however large r is)."""
    if r < 0:
        raise ValueError("radius must be nonnegative")
    return sum(count for _, count in zip(range(r + 1), weight_counts(q, shapes)))


def ball_volume_exact(profile: MatrixProfile, r: int) -> int:
    """`ball_volume` of the profile's blocks."""
    return ball_volume(profile.q, profile.shape_counts(), r)


def packing_radius(q: int, shapes: Shapes, codim: int, stop: int | None = None, *,
                   covering: bool = False) -> int | None:
    """The least r <= `stop` with V_sr(r) > q^codim over `shapes`, or None if there is none.

    A code of codimension `codim` with d >= 2r + 1 would hold disjoint radius-r balls
    around its q^(ambient_dim - codim) words, so such an r proves d <= 2r.  `stop` defaults
    to the largest weight, where the ball is the whole space: then None means the zero
    code, whose balls never outgrow q^codim.  With `covering`, V_sr(r) >= q^codim: smaller
    balls around the words miss a word, so R >= r.  No count past r or `stop` is formed.
    """
    volumes = accumulate(islice(weight_counts(q, shapes), None if stop is None else stop + 1))
    return next((r for r, volume in enumerate(volumes) if volume > q ** codim - covering), None)


def singleton_like_exponent(shapes: Shapes, d: int) -> int:
    """log_q of the Singleton-like size bound, one step per shape: with the blocks ordered
    by m, then n, both descending, d - 1 is the rows of the first j blocks plus delta <
    n_(j+1), and the exponent the area of the blocks from j + 1 on less m_(j+1) delta."""
    N = sum(n * count for (n, _), count in shapes.items())
    if not 1 <= d <= N:
        raise ValueError(f"distance {d} out of range 1..{N}")
    area, owed = sum(n * m * count for (n, m), count in shapes.items()), d - 1
    for (n, m), count in sorted(shapes.items(), key=lambda s: (-s[0][1], -s[0][0])):
        if owed < n * count:  # reached, as owed < N
            break
        area, owed = area - n * m * count, owed - n * count
    return area - m * owed


def weight_counts(q: int, shapes: Shapes) -> Iterator[int]:
    """Yield the number of words of sum-rank weight 0, 1, ..., the largest, over GF(q) `shapes`.

    The t blocks of an n x m shape contribute F = P^t, P = sum_k P_k x^k the
    shape's rank distribution (P_0 = 1).  Since x P F' = t x P' F, the
    coefficients of F obey Miller's rule for powers of a power series,
    w c_w = sum_{k=1..min(n,m)} (k (t + 1) - w) P_k c_{w-k}, an exact
    multiple of w: min(n, m) products per weight at any t.  The shapes'
    series are multiplied as the stream advances; the count at weight w
    reads only those at weights <= w, so a reader stops the stream where
    it stops reading.
    """
    top = sum(min(n, m) * t for (n, m), t in shapes.items())
    return reduce(_times, (_power_counts(rank_distribution(n, m, q), t, top)
                           for (n, m), t in shapes.items()))


def _power_counts(dist: list[int], t: int, top: int) -> Iterator[int]:
    """Coefficients 0 .. top of (sum_k dist[k] x^k)^t by Miller's rule, 0 past its degree."""
    c: list[int] = []
    for w in range(top + 1):
        c.append(sum((k * (t + 1) - w) * dist[k] * c[w - k]
                     for k in range(1, min(len(dist) - 1, w) + 1)) // w if w else 1)
        yield c[w]


def _times(a: Iterator[int], b: Iterator[int]) -> Iterator[int]:
    """Coefficients of the product of two series given as equally many coefficients."""
    xs, ys = [], []
    for x, y in zip(a, b):
        xs.append(x)
        ys.append(y)
        yield sum(u * v for u, v in zip(xs, reversed(ys)))


# ----------------------------------------------------------------------
# rank tables: the production weights of every block value
# ----------------------------------------------------------------------

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
    digit-wise addition mod p, are set to rank H.  A row's int64 span sums,
    scalar multiples and indices take at most 16 bytes a cell, so a step
    fills `_CHUNK_BYTES` / 16 cells and only the int8 output grows with q^(nm).
    """
    q = field.order
    size = q ** (n * m)
    if size > BRUTE_LIMIT:
        raise ValueError(f"brute enumeration of {size} matrices exceeds the cap")
    if n > m:
        raise ValueError("profiles require n <= m")
    width = q ** m  # packed values of one row
    if n > 1:  # rows to combine; then width <= 2^12 under the cap
        # times[c, r]: the scalar c times the packed row r, for every c and r
        times = field.np_table("mul")[:, array_digits(np.arange(width), q, m)] @ place_values(q, m)
        add = digit_adder(field.p, field.dim_over_prime * m)
    ranks = np.zeros(1, dtype=np.int8)  # the one matrix of no rows
    for k in range(1, n + 1):  # matrices of the last k rows, from those of k - 1
        high, ranks = ranks, np.empty(len(ranks) * width, dtype=np.int8)
        step = max(1, _CHUNK_BYTES // (16 * width))
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
    """Sum-rank weight of every packed ambient word (ambient sweeps).

    The int16 weights are filled chunk by chunk, so only the output grows
    with the ambient.  Within `_CHUNK_BYTES` a chunk holds its int32 word
    indices (twice, while the next chunk's replace them), their digits of
    one block and the int8 ranks of those.
    """
    size = profile.ambient_size
    if size > BRUTE_LIMIT:
        raise ValueError(f"ambient sweep of {size} words exceeds the cap")
    tables = [(rank_array(profile.field, n, m), bs)
              for (n, m), bs in zip(profile.blocks, profile.block_space_sizes())]
    weights = np.zeros(size, dtype=np.int16)
    step = max(1, _CHUNK_BYTES // (4 + 4 + 4 + 1))
    for lo in range(0, size, step):
        rest = np.arange(lo, min(lo + step, size), dtype=np.int32)
        digit = np.empty_like(rest)
        out = weights[lo:lo + len(rest)]
        for ranks, bs in tables:
            out += ranks[np.remainder(rest, bs, out=digit)]
            rest //= bs
    return weights

