"""Exact minimum distance and covering radius by a syndrome-space DP.

Words are built block by block.  After some blocks, A[s] is the least
weight of a word on them with syndrome s.  A block value weighs its rank,
and a rank-r value is a sum of r rank-1 values: the nonzero points of the
(q^n - 1)/(q - 1) lines U_u = {u v^T : v in GF(q)^m} of an n x m block
(n <= m), each an F_p-subspace.  So n - 1 rounds of

    A <- min(A, 1 + min over lines u of min over x in U_u of A[s - syn(x)])

give the block's values of rank <= n - 1.  The inner coset-min takes m*e
sweeps, one per generator syndrome g of the line, each the min over the p
multiples of g by ceil(log2 p) gather-mins that double the shift: g, then
2g, then 4g, the last step cut so as not to pass (p - 1)g.  The rounds
write into three preallocated copies of the state, and allocate nothing.
Rank n comes from one min over all block values of A as it was before
the block, counted at weight n: a value of lower rank counted at n never
wins, so this is exact.  A Hamming-metric code is the case of 1 x 1
blocks.  After the last block R = max A and A is the coset-leader table.
Every value is a small exact integer.

A syndrome index concatenates the base-p digits of the syndrome entries,
as GF(p^e) elements are packed, so subtraction is digit-wise mod p.  The
syndromes of a block's values are a GF(p)-linear map of the packed value,
tabulated by `gf.linear_map` from those of the base-p unit digits, which
a pass forms for every position at once (`scaled_syndromes`).  Each
block runs on a copy of A in its own layout (`_layout`): the block's
syndromes span a subspace G of dimension k, and cell (y, c) of the
(p^k, p^(D - k)) copy holds the syndrome with pivot digits y (over an RREF
basis of G) and other digits c plus those of the basis combination y.
Every shift by a syndrome in G is then a row gather, and the min over all
of G is a column min.  A is gathered into the layout once per block, a
few rows at a time, so the layout's index is never held whole; the same
chunks of rows then write back only the syndromes whose value fell.

Rank-1 rounds would count x + (-x) as a nonzero word, so d comes from a
gather before each block instead,

    b_zero[b] = min(b_zero[b - 1], min over v != 0 of A[-syn(v)] + rank(v)),

and d = b_zero after the last block.  For the witness the DP records, per
weight level w, the number of blocks after which A[s] first drops to <= w;
A before block b, capped at the top level, is the number of levels not yet
reached then.  The backtrack compares A only with values <= d - 1 (the
first nonzero block value it picks weighs at least 1, and every later
target is smaller), and d <= 2r for the least r with V_sr(r) > q^codim
(sphere packing, `spaces.packing_radius`), so the levels stop at
w = min(codim, 2r - 1).  The syndromes that fell in a block reach A and
the record chunk by chunk, so their index, like the layout's, takes at most
`_LAYOUT_BYTES` at a time.  The record and the backtrack use syndrome
indices, not a layout.

When the syndrome space is too large, `least_weight_word` settles d by
enumerating the code in numpy chunks instead, in both metrics.
`SumRankCode` is the code interface that supplies their inputs: the
profile, the flat parity check (an int64 array) and the packed generator rows.  Its
cached `syndrome_dp` is the one DP pass per code: d, its witness, R and
the leader table of a sum-rank or a Hamming-metric code all come from it.

The flat parity comes from the constructions' own parity checks (their
ingredients' parity rows, mapped through each block's coordinate map), not
from the code's generator, and is brought to the form the generator's
nullspace would give, so a certificate does not depend on which way it
was built.  No engine forms the dense flat generator, whose size grows as
the square of the block count.
"""

from __future__ import annotations

import itertools
from collections import Counter
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .gf import (Field, array_digits, array_mul, digit_adder, digits, linear_map, make_field,
                 place_values, rref, undigits)
from .spaces import (_CHUNK_BYTES, BRUTE_LIMIT, MatrixProfile, Shapes, SumRankWord,
                     packing_radius, rank, rank_array, unpack_matrix)

_INF = 100                 # int8 sentinel above every leader weight
# Bytes of layout indices formed at once: kept below `_CHUNK_BYTES` because 1 MB pieces raise
# the peak RSS of `certify distance-optimal --recipe distance-optimal-2x2 q=3` from 31.6 to
# 32.9 MB (+4%, near the benchmark's 5% peak_rss_mb bound) and save no time beyond the
# 10 ms spread of its 0.35 s (3 runs each, shared 2-core VM, Python 3.11, numpy 2.4).
_LAYOUT_BYTES = 1 << 16


class Budgets(NamedTuple):
    """The engines' budgets, one field per `certify` option; 0 switches an engine off."""

    enum: int = 1 << 22      # codewords an enumeration streams, lookups a support search makes
    syndrome: int = 1 << 16  # syndromes (q^codim) the DP may hold
    sweep: int = 1 << 30     # DP work units, as `SumRankCode.dp_stop` counts them


class BudgetExceeded(RuntimeError):
    """An exact computation would overrun the configured budget."""


def budget_stop(name: str, budget: int, q: int, e: int, items: str) -> str | None:
    """The stop "`name` `budget` < q^e `items`" when q^e items exceed the budget, else None.
    Exact with no power past q^(bit length of budget): q >= 2, so q^e is above it from there."""
    over = q ** min(e, budget.bit_length()) > budget
    return f"{name} {budget} < {q}^{e} {items}" if over else None


def rank_table_stop(field, shapes: Shapes) -> str | None:
    """Why a block of these shapes has no rank table, or None if every block has one."""
    return next(filter(None, (budget_stop("rank table cap", BRUTE_LIMIT, field.order, n * m,
                                          f"values per {n} x {m} block (q^(nm))")
                              for n, m in shapes)), None)


def scaled_syndromes(field, parity: np.ndarray, scalars) -> np.ndarray:
    """S[j, a] = sum_k (scalars[a] H[k, j]) q^k: the syndrome index of scalars[a]
    alone at position j, for the (codim, N) parity H; dtype from `gf.place_values`."""
    products = array_mul(field)(parity.T[:, None, :], np.asarray(scalars, dtype=np.int64)[:, None])
    return products @ place_values(field.order, len(parity))


def block_syndromes(field, units: np.ndarray, codim: int) -> np.ndarray:
    """Syndrome index of every packed value of one block.

    `units[j, i]` is the syndrome of the unit digit p^i at the block's j-th
    position in packing order (`scaled_syndromes`).  The map is GF(p)-linear,
    so those fix it, and `linear_map` applies it to the whole range.
    """
    return linear_map(field.p, units.ravel(), field.dim_over_prime * codim,
                      range(field.order ** len(units)))


@lru_cache(maxsize=None)
def _digit_rows(p: int, width: int) -> np.ndarray:
    """The base-p digits of 0 .. p^width - 1, one row each, least significant first."""
    rows = array_digits(np.arange(p ** width, dtype=np.int64), p, width)
    rows.flags.writeable = False  # shared by every caller through the cache
    return rows


@lru_cache(maxsize=None)
def _sum_table(p: int, width: int) -> np.ndarray:
    """S[a, b]: the digit-wise sum mod p of the width-digit values a and b."""
    r = np.arange(p ** width, dtype=np.int64)
    table = digit_adder(p, width)(r[:, None], r[None, :])
    table.flags.writeable = False  # shared by every caller through the cache
    return table


def _layout(p: int, basis: np.ndarray, pivots) -> tuple[np.ndarray, np.ndarray]:
    """The syndrome index of every cell (y, c) of a block's (p^k, p^f) layout, as two parts.

    `basis` is the RREF basis g_1..g_k of the block's syndrome span, with
    `pivots`.  Cell (y, c) is the syndrome with pivot digits y and other
    digits c + t(y), t(y) the non-pivot digits of sum_j y_j g_j, so a shift
    by any syndrome of the span changes y only.  The non-pivot digits are
    split in two halves, c = c_hi * p^split + c_lo, and each half's
    digit-wise sums t(y) + c are read from the table of all sums of two
    half-width values.  Returns (head, lo): cell (y, c) has the index
    head[y, c_hi] + lo[y, c_lo]; `_layout_rows` adds them up row by row.
    """
    free = [i for i in range(basis.shape[1]) if i not in pivots]
    y = _digit_rows(p, len(pivots))
    t = y @ basis[:, free] % p  # t(y), one digit per non-pivot position
    split = len(free) // 2
    hi, lo = (_placed_sums(p, free[split:], t[:, split:]),
              _placed_sums(p, free[:split], t[:, :split]))
    return y @ p ** np.array(pivots, dtype=np.int64)[:, None] + hi, lo


def _layout_rows(head: np.ndarray, lo: np.ndarray):
    """(rows, index): chunks of a layout's rows and the syndrome index of their cells.

    A chunk has as many rows as fit in `_LAYOUT_BYTES` of indices, at least
    one, so the index of the whole layout is never held.
    """
    width = head.shape[1] * lo.shape[1]
    step = max(1, _LAYOUT_BYTES // (8 * width))
    for at in range(0, len(head), step):
        rows = slice(at, at + step)
        yield rows, (head[rows, :, None] + lo[rows, None, :]).reshape(-1, width)


def _placed_sums(p: int, positions, t: np.ndarray) -> np.ndarray:
    """Row y: the digits t[y] + c placed at `positions`, for every c."""
    width = len(positions)
    placed = _digit_rows(p, width) @ p ** np.array(positions, dtype=np.int64)
    return placed[_sum_table(p, width)[t @ p ** np.arange(width)]]


@lru_cache(maxsize=None)
def _line_generators(field, n: int, m: int) -> np.ndarray:
    """Packed F_p-basis of every rank-1 line of n x m blocks, one row per line.

    Line u, for u in GF(q)^n with leading nonzero entry 1, is
    {u v^T : v in GF(q)^m}; its basis is u (beta_i e_j)^T over the power
    basis beta_i = p^i of GF(q) and the unit vectors e_j of GF(q)^m.
    """
    q, p, e = field.order, field.p, field.dim_over_prime
    lines = [[sum(field.mul(p ** i, x) * q ** (r * m + j) for r, x in enumerate(u))
              for j in range(m) for i in range(e)]
             for u in itertools.product(range(q), repeat=n)
             if any(u) and next(x for x in u if x) == 1]
    return np.array(lines, dtype=np.int64)


def _digit_sub(p: int, digits: int, a, b):
    """Digit-wise difference a - b mod p of packed base-p values."""
    if p == 2:
        return np.bitwise_xor(a, b)
    out = np.zeros(np.broadcast_shapes(np.shape(a), np.shape(b)), dtype=np.int64)
    for i in range(digits):
        out += (a // p ** i - b // p ** i) % p * p ** i
    return out


class SyndromeDP(NamedTuple):
    """One DP pass: leader table A, distance d, and a weight-d codeword."""

    leaders: np.ndarray              # least word weight per syndrome index
    distance: int | None             # None for the zero code
    witness: tuple[int, ...] | None  # packed block values

    @property
    def radius(self) -> int:
        return int(self.leaders.max())

    @property
    def leader_weight(self) -> dict[int, int]:
        """The coset-leader weight of every syndrome index."""
        return dict(enumerate(self.leaders.tolist()))


def syndrome_dp(field, parity, shapes) -> SyndromeDP:
    """Run the DP for the code over `field` with the (codim, N) parity check `parity`.

    `shapes` lists each block's n x m shape, in order; a block value weighs
    its rank.  A weight-d codeword is recovered from the level record, from
    the last block back, taking the smallest block value at each tie so that
    the witness is reproducible.
    """
    p, codim, e = field.p, len(parity), field.dim_over_prime
    digits = codim * e
    prime = make_field(p, [1])
    units = scaled_syndromes(field, parity, p ** np.arange(e))  # every position's unit digits
    starts = np.cumsum([0] + [n * m for n, m in shapes])

    def block_syn(b):
        return block_syndromes(field, units[starts[b]:starts[b + 1]], codim)

    def coset_min(M, gens, shifts, S, T):  # min of M[s - syn(x)] over the F_p-span of gens
        for j in gens:
            covered = 1  # M is the min over the multiples 0 .. covered - 1 of gen j
            while covered < p:
                a = min(covered, p - covered)
                np.take(M, shifts[a - 1][j], axis=0, out=T, mode="clip")
                np.minimum(M, T, out=S)
                M, covered = S, covered + a
        return M

    flat = np.full(p ** digits, _INF, dtype=np.int8)
    flat[0] = 0
    buf = np.empty_like(flat)  # the state in the current block's layout
    # the rank-1 rounds' line min, coset min and shifted copy, in each layout
    rounds = [np.empty_like(flat) for _ in range(3)] if any(n > 1 for n, _ in shapes) else []
    t = len(shapes)
    # The backtrack compares A before a block only with values <= d - 1 (its first
    # nonzero block value weighs >= 1, later targets are smaller), which A capped at
    # level min(codim, 2r - 1) reads exactly: d <= 2r (packing), d <= codim + 1 (Singleton)
    r = packing_radius(field.order, Counter(shapes), codim, codim // 2)
    # levels[w, s]: blocks after which A[s] is first <= w, else t + 1
    levels = np.full((1 + (codim if r is None else min(codim, 2 * r - 1)), len(flat)), t + 1,
                     dtype=np.min_scalar_type(t + 1))
    levels[:, 0] = 0
    b_zero = []
    for b, (n, m) in enumerate(shapes):
        syn = block_syn(b)
        ranks = rank_array(field, n, m)
        # syn(-v) = -syn(v) and rank(-v) = rank(v): the min over v of
        # A[-syn(v)] + rank(v) is the min over v of A[syn(v)] + rank(v)
        reach = flat[syn[1:]] + ranks[1:].astype(np.int16)
        b_zero.append(min(b_zero[-1] if b_zero else _INF, int(reach.min())))
        basis, pivots = rref(prime, array_digits(units[starts[b]:starts[b + 1]].ravel(), p, digits))
        head, lo = _layout(p, basis, pivots)
        B = buf.reshape(len(head), -1)
        for part, idx in _layout_rows(head, lo):
            B[part] = flat[idx]
        top = B.min(axis=0) + np.int8(n)  # any block value, counted at weight n
        if n > 1:
            gens = syn[_line_generators(field, n, m)]  # generator syndromes, a row per line
            # a shift by generator syndrome g moves row y to row y + (the pivot digits of g)
            gens_y = array_digits(gens.ravel(), p, digits)[:, pivots] @ p ** np.arange(len(pivots))
            rows = _digit_sub(p, len(pivots), np.arange(len(B)), gens_y[:, None])
            shifts = [rows]  # shifts[a - 1][j]: the row map of the shift by a times generator j
            for _ in range(p // 2 - 1):
                shifts.append(np.take_along_axis(shifts[-1], rows, axis=1))
            lines = np.arange(gens.size).reshape(gens.shape)  # a zero shift is a no-op min
            C, S, T = (x.reshape(B.shape) for x in rounds)
            for _ in range(n - 1):
                C.fill(_INF)
                for line in lines:
                    np.minimum(C, coset_min(B, line, shifts, S, T), out=C)
                np.add(C, 1, out=C)
                np.minimum(B, C, out=B)
        np.minimum(B, top, out=B)
        for part, idx in _layout_rows(head, lo):  # write back only the syndromes that fell
            old = flat[idx]  # A before the block: rows hold disjoint syndromes
            fell = B[part] < old
            changed, new, was = idx[fell], B[part][fell], old[fell]
            flat[changed] = new
            # only the levels w with new <= w < was move
            for w in range(int(new.min(initial=_INF)), min(int(was.max(initial=0)), len(levels))):
                levels[w, changed[(new <= w) & (was > w)]] = b + 1
    if int(flat.max()) >= _INF:
        raise RuntimeError("parity map is not onto: a syndrome is unreachable")
    distance = b_zero[-1] if b_zero[-1] < _INF else None
    if distance is None:
        return SyndromeDP(flat, distance, None)

    def before_block(b, idx):  # A before block b: the levels not yet reached
        return sum(level[idx] > b for level in levels)

    # target: a nonzero word of syndrome 0 while every later value is zero,
    # then any word of syndrome s and weight w
    s, w, need_nonzero, word = 0, distance, True, []
    for b in range(t - 1, -1, -1):
        if (b > 0 and b_zero[b - 1] == w) if need_nonzero else before_block(b, s) == w:
            word.append(0)
            continue
        wt = rank_array(field, *shapes[b])
        src = _digit_sub(p, digits, s, block_syn(b)[1:])
        v = 1 + int(np.argmax(before_block(b, src) + wt[1:] == w))
        word.append(v)
        s, w, need_nonzero = int(src[v - 1]), w - int(wt[v]), False
    if (s, w) != (0, 0):
        raise RuntimeError("syndrome DP backtrack did not reach the zero word")
    return SyndromeDP(flat, distance, tuple(reversed(word)))


# ----------------------------------------------------------------------
# exhaustive enumeration
# ----------------------------------------------------------------------

def _scale_block(field, c: int, value: int, cells: int) -> int:
    """c times every GF(q) cell of a packed block value."""
    return undigits([field.mul(c, x) for x in digits(value, field.order, cells)], field.order)


def span_chunks(field, rows, cells):
    """The GF(p)-span of GF(q) rows of packed block values, in order.

    Each row stands for its GF(p) multiples p^j * row, j from high to low,
    and the span is listed lexicographically in the digits on those rows,
    the first row most significant, as `LinearCode.codewords` lists
    GF(q)-combinations.  `cells[b]` is the number of GF(q) entries packed
    in block b.  Yields (blocks, words) arrays of block values: the span of
    the trailing rows is tabulated once and shifted by each combination of
    the leading rows.  A chunk has as many words as fit in `_CHUNK_BYTES`
    with everything alive while `least_weight_word` weighs it.
    """
    p, e = field.p, field.dim_over_prime
    prime_rows = [[_scale_block(field, p ** j, v, n) for v, n in zip(row, cells)]
                  for row in rows for j in reversed(range(e))]
    digits = e * max(cells)
    dtype = np.min_scalar_type(max(p ** digits, 2 * p) - 1)  # digit sums reach 2p - 2
    add = digit_adder(p, digits)

    def span(rows):  # the last row is the least significant digit
        words = np.zeros((len(cells), 1), dtype=dtype)
        for row in reversed(rows):
            step = np.array(row, dtype=dtype)[:, None]
            multiples = [words]
            for _ in range(p - 1):
                multiples.append(add(multiples[-1], step))
            words = np.concatenate(multiples, axis=1)
        return words

    # bytes alive per word: the tabulated span, the chunk before and the
    # shifted chunk (odd p: three more for the digit-wise sum), then the
    # int64 weight, one block's intp gather index, its int8 ranks and a mask
    copies = 3 if p == 2 else 6
    fit = _CHUNK_BYTES // (len(cells) * dtype.itemsize * copies + 8 + 8 + 1 + 1)
    low = 0
    while low < len(prime_rows) and p ** (low + 1) <= fit:
        low += 1
    split = len(prime_rows) - low
    inner = span(prime_rows[split:])
    for shift in span(prime_rows[:split]).T:
        yield add(inner, shift[:, None]) if shift.any() else inner


def least_weight_word(field, rows, shapes) -> tuple[int, tuple[int, ...]] | None:
    """The first word of least nonzero weight in the span of `rows`.

    `rows` are GF(q) generator rows of packed block values, in the order
    that fixes the enumeration (see `span_chunks`); `shapes` lists each
    block's (n, m), as for `syndrome_dp`.  Every word is weighed by one
    `rank_array` lookup per block.  Returns (weight, word), or None when
    the span has no nonzero word.
    """
    top = np.iinfo(np.int64).max
    best, witness = None, None
    tables = [rank_array(field, n, m) for n, m in shapes]
    for words in span_chunks(field, rows, [n * m for n, m in shapes]):
        weight = np.zeros(words.shape[1], dtype=np.int64)
        for table, values in zip(tables, words):
            weight += table[values]
        weight[weight == 0] = top
        i = int(np.argmin(weight))
        if weight[i] < (top if best is None else best):
            best, witness = int(weight[i]), tuple(int(v) for v in words[:, i])
            if best == 1:
                break
    return None if best is None else (best, witness)


# ----------------------------------------------------------------------
# the code view the engines read
# ----------------------------------------------------------------------

class SrDistance(NamedTuple):
    """A minimum distance or covering radius, exact or as a certified interval, with its method."""

    lo: float  # an int, or inf for the zero code's d
    hi: float
    method: str
    witness: tuple[int, ...] | None = None  # packed block values
    stops: tuple[str, ...] = ()  # the budget stops behind an interval

    @property
    def exact(self) -> bool:
        return self.lo == self.hi

    @property
    def value(self) -> int:
        if self.lo == float("inf"):
            raise ValueError("the zero code has no minimum distance")
        if not self.exact:
            raise ValueError(f"distance only known in [{self.lo}, {self.hi}]")
        return self.lo


class SumRankCode:
    """Common interface for structured sum-rank codes over GF(q).

    A construction supplies its dimension, its packed generator rows (for
    enumeration) and `_parity_rows`, rows spanning its dual built from its
    parts' parity checks.  `flat_parity`, which every engine reads, is
    derived from those rows alone, as a read-only int64 array that every
    reader takes as it stands.  `flat_generator` stays as the reference
    the self-test compares `flat_parity` with, and as a name the benchmark's
    tracing wraps; no engine reads it.
    """

    recipe: str | None = None  # the recipe and parameters `construct`'s registry stamps
    params: dict = {}

    def __init__(self, base: Field, profile: MatrixProfile):
        self.base = base
        self.profile = profile

    @property
    def dim(self) -> int:
        raise NotImplementedError

    @property
    def ambient_dim(self) -> int:
        return self.profile.ambient_dim

    def enum_stop(self, budget: int) -> str | None:
        """Enumeration's admission: why the q^dim codewords may not be streamed within `budget`
        and weighed by rank tables, or None.  The enum budget, then the rank-table cap."""
        return (budget_stop("enum budget", budget, self.base.order, self.dim, "codewords (q^dim)")
                or rank_table_stop(self.base, self.profile.shape_counts()))

    @property
    def codim(self) -> int:
        return self.ambient_dim - self.dim

    def enumerate_packed(self, budget: int = Budgets().enum):
        """Yield each codeword once, as a tuple of packed block ints."""
        raise NotImplementedError

    def _generator_rows_packed(self):
        """Packed-block words spanning the code, one per GF(q) dimension.

        Listed in `enumerate_packed` order: that enumeration is the
        lexicographic GF(q)-span of these rows, the first row most
        significant, which `least_weight_word` walks.
        """
        raise NotImplementedError

    def _parity_rows(self) -> np.ndarray:
        """GF(q) rows spanning the dual of the code: one int64 array, a column per
        ambient coordinate, rows in any order and not necessarily independent.

        Each construction builds them from its parts' parity checks, so no
        generator of the code is formed.
        """
        raise NotImplementedError

    def describe(self) -> dict:
        raise NotImplementedError

    def distance_bounds(self, distance, budgets: Budgets = Budgets()):
        """What the code's structure proves of d, `distance(part)` a part's, and words at its
        lower end found within `budgets`, read before any engine: none."""
        return ()

    def distance_searches(self, budgets: Budgets):
        """The code's own engine for d, read after the DP and enumeration: none."""
        return ()

    def radius_bounds(self):
        """The code's own sources of R for `certify.settle`: none."""
        return ()

    # -- flattened GF(q) linear-code view ------------------------------

    def flat_rows(self, words) -> np.ndarray:
        """Row-major GF(q) coordinates of packed words, blocks in order: one int64 row
        per word, each block's packed values split into base-q digits in one numpy step."""
        q, blocks = self.base.order, self.profile.blocks
        dtype = place_values(q, max(n * m for n, m in blocks)).dtype
        packed = np.array(words, dtype=dtype).reshape(len(words), len(blocks))
        out = np.zeros((len(words), self.ambient_dim), dtype=np.int64)
        starts = np.cumsum([0] + [n * m for n, m in blocks])
        for b, (n, m) in enumerate(blocks):
            out[:, starts[b]:starts[b + 1]] = array_digits(packed[:, b], q, n * m)
        return out

    @cached_property
    def flat_generator(self) -> np.ndarray:
        rows = self.flat_rows(self._generator_rows_packed())
        red, _ = rref(self.base, rows)
        if len(red) != len(rows):
            raise RuntimeError("construction is not injective: dependent generators")
        red.flags.writeable = False
        return red

    @cached_property
    def flat_parity(self) -> np.ndarray:
        """The parity check in the nullspace form of RREF(flat generator).

        Built from `_parity_rows` by matroid duality: the free columns of
        RREF(G) are the pivots of the parity's RREF taken right to left, so
        the columns are reversed, eliminated and reversed back, and the rows
        ordered by their identity column.  The rows must have rank codim:
        fewer would admit words outside the code, more would exclude
        codewords.  A read-only int64 array of shape (codim, N).
        """
        red, _ = rref(self.base, self._parity_rows()[:, ::-1])
        if len(red) != self.codim:
            raise RuntimeError(f"parity checks have rank {len(red)}, "
                               f"not the codimension {self.codim}")
        parity = red[::-1, ::-1]
        parity.flags.writeable = False
        return parity

    @cached_property
    def syndrome_dp(self) -> SyndromeDP:
        """One syndrome-space DP pass: d with a witness, R, and the leader table."""
        return syndrome_dp(self.base, self.flat_parity, self.profile.blocks)

    def dp_stop(self, budgets: Budgets) -> str | None:
        """The DP's admission: why it may not run within `budgets`, or None.  The syndrome
        budget, the rank-table cap, then the sweep work.  A work unit is one pass over the
        q^codim syndromes or one read of a block value.  An n x m block is charged
        ((n - 1) L m e ceil(log2 p) + 1) q^codim + q^(nm): n - 1 rank-1 rounds over its
        L = (q^n - 1)/(q - 1) lines, m*e generators a line and ceil(log2 p) gather-mins a
        generator; the column min that gives rank n; one read of each block value for its
        syndromes, ranks and d.  The charge is summed once per shape, times its count."""
        q, e, p, codim = self.base.order, self.base.dim_over_prime, self.base.p, self.codim
        shapes = self.profile.shape_counts()
        over = budget_stop("syndrome budget", budgets.syndrome, q, codim, "syndromes (q^codim)")
        if stop := over or rank_table_stop(self.base, shapes):
            return stop
        work = sum(count * (((n - 1) * (q ** n - 1) // (q - 1) * m * e * (p - 1).bit_length() + 1)
                            * q ** codim + q ** (n * m)) for (n, m), count in shapes.items())
        return (f"sweep budget {budgets.sweep} < {work} DP work units "
                "(shift passes x q^codim + block values)") if work > budgets.sweep else None

    def budgeted_dp(self, budgets: Budgets = Budgets()) -> SyndromeDP:
        """The cached `syndrome_dp`, where `dp_stop` admits it; else BudgetExceeded with that
        stop.  Every engine reaches the DP through here."""
        if stop := self.dp_stop(budgets):
            raise BudgetExceeded(stop)
        return self.syndrome_dp

    def is_codeword(self, packed) -> bool:
        """Whether packed block values have zero syndrome, formed on the columns of
        `flat_parity` at their nonzero blocks only: O(codim x support)."""
        q, starts = self.base.order, np.cumsum([0] + [n * m for n, m in self.profile.blocks])
        at = [b for b, v in enumerate(packed) if v]
        cells = [x for b in at for x in digits(packed[b], q, starts[b + 1] - starts[b])]
        parity = self.flat_parity[:, [c for b in at for c in range(starts[b], starts[b + 1])]]
        products = array_mul(self.base)(parity, np.array(cells, dtype=np.int64))
        # each syndrome entry sums its row of products: their base-p digits add mod p
        return not (array_digits(products, self.base.p, self.base.dim_over_prime).sum(axis=1)
                    % self.base.p).any()

    def word_weight(self, packed) -> int:
        """The sum-rank weight of a stated codeword of packed block values, each nonzero block
        weighing its rank by elimination; RuntimeError when `is_codeword` refutes it."""
        if not self.is_codeword(packed):
            raise RuntimeError("a stated word is not a codeword: its syndrome is nonzero")
        return sum(rank(self.base, unpack_matrix(self.base, v, n, m))
                   for (n, m), v in zip(self.profile.blocks, packed) if v)

    def to_word(self, packed) -> SumRankWord:
        mats = tuple(unpack_matrix(self.base, pk, n, m)
                     for (n, m), pk in zip(self.profile.blocks, packed))
        return SumRankWord(self.profile, mats)


def covering_radius(code: SumRankCode, budgets: Budgets = Budgets()) -> tuple[int, SyndromeDP]:
    """Exact covering radius and the code's cached DP pass, in either metric; raises
    BudgetExceeded, naming the budget, when the DP does not fit."""
    dp = code.budgeted_dp(budgets)
    return dp.radius, dp
