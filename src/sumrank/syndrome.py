"""Exact minimum distance and covering radius by a syndrome-space DP.

Words are built block by block.  After some blocks, A[s] is the least
weight of a word on them with syndrome s.  A block value weighs its rank,
and a rank-r value is a sum of r rank-1 values: the nonzero points of the
(q^n - 1)/(q - 1) lines U_u = {u v^T : v in GF(q)^m} of an n x m block
(n <= m), each an F_p-subspace.  So n - 1 rounds of

    A <- min(A, 1 + min over lines u of min over x in U_u of A[s - syn(x)])

give the block's values of rank <= n - 1, the inner coset-min taken by
m*e sweeps of (p - 1) shift-mins over the line's generator syndromes.
Rank n comes from one min over all block values of A as it was before
the block, counted at weight n: a value of lower rank counted at n never
wins, so this is exact.  A Hamming-metric code is the case of 1 x 1
blocks.  After the last block R = max A and A is the coset-leader table.
Every value is a small exact integer.

A syndrome index concatenates the base-p digits of the syndrome entries,
as GF(p^e) elements are packed, so subtraction is digit-wise mod p.  Each
block runs on a copy of A in its own layout (`_layout`): the block's
syndromes span a subspace G of dimension k, and cell (y, c) of the
(p^k, p^(D - k)) copy holds the syndrome with pivot digits y (over an RREF
basis of G) and other digits c plus those of the basis combination y.
Every shift by a syndrome in G is then a row gather, and the min over all
of G is a column min.  A is gathered into the layout and scattered back
once per block.

Rank-1 rounds would count x + (-x) as a nonzero word, so d comes from a
gather before each block instead,

    b_zero[b] = min(b_zero[b - 1], min over v != 0 of A[-syn(v)] + rank(v)),

and d = b_zero after the last block.  For the witness the DP records, per
weight level w <= codim, the number of blocks after which A[s] first drops
to <= w; A before block b is the number of levels not yet reached then.
Both use syndrome indices, not a layout.

When the syndrome space is too large, `least_weight_word` settles d by
enumerating the code in numpy chunks instead, in both metrics.
`SumRankCode` is the code interface that supplies their inputs: the
profile, the flat parity-check rows and the packed generator rows.  Its
cached `syndrome_dp` is the one DP pass per code: d, its witness, R and
the leader table of a sum-rank or a Hamming-metric code all come from it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .gf import Field, digit_adder, make_field, nullspace, rref
from .spaces import (BRUTE_LIMIT, MatrixProfile, SumRankWord, pack_matrix, rank_array,
                     unpack_matrix)

ENUM_BUDGET = 1 << 22      # codewords an exhaustive enumeration may stream
SYNDROME_BUDGET = 1 << 16  # syndromes (q^codim) the DP may hold
WORK_BUDGET = 1 << 30      # DP work units, as `dp_budget_stop` counts them

_INF = 100                 # int8 sentinel above every leader weight
_CHUNK_BYTES = 1 << 20     # live bytes of one chunk of words or block values


class BudgetExceeded(RuntimeError):
    """An exact computation would overrun the configured budget."""


def dp_budget_stop(field, codim: int, shapes, syndrome_budget: int,
                   work_budget: int) -> str | None:
    """Why the DP may not run within these budgets, or None if it may.

    A work unit counts, per block, n rounds over the block's rank-1 lines
    of m*e*(p - 1) shift passes over the q^codim syndromes each, plus one
    read of each of the block's q^(nm) values for its syndromes, ranks and
    d.  The DP makes n - 1 such rounds (a column min replaces the last), so
    the count bounds its shift passes from above.
    """
    q, e, p = field.order, field.dim_over_prime, field.p
    n_syn = q ** codim
    if n_syn > syndrome_budget:
        return f"syndrome budget {syndrome_budget} < {n_syn} syndromes (q^codim)"
    for n, m in dict.fromkeys(shapes):
        if q ** (n * m) > BRUTE_LIMIT:
            return (f"rank table cap {BRUTE_LIMIT} < {q ** (n * m)} values "
                    f"per {n} x {m} block (q^(nm))")
    work = sum(n * (q ** n - 1) // (q - 1) * m * e * (p - 1) * n_syn + q ** (n * m)
               for n, m in shapes)
    if work > work_budget:
        return (f"sweep budget {work_budget} < {work} DP work units "
                "(shift passes x q^codim + block values)")
    return None


def block_syndromes(field, columns) -> np.ndarray:
    """Syndrome index of every packed value of one block.

    `columns[j]` is the parity-check column of the block's j-th position in
    packing order.  The map is GF(p)-linear, so the syndromes of the base-p
    unit digits fix it, and one integer matrix product per chunk of values
    applies it, each chunk's int64 digits and products within `_CHUNK_BYTES`.
    """
    p, e = field.p, field.dim_over_prime
    units = []  # syndrome digits of each base-p unit digit of the block
    for col in columns:
        for i in range(e):
            img = [field.mul(p ** i, h) for h in col]
            units.append([(x // p ** j) % p for x in img for j in range(e)])
    unit_digits = np.array(units, dtype=np.int64).reshape(len(units), -1)
    unit_powers = p ** np.arange(len(units), dtype=np.int64)
    syn_powers = p ** np.arange(unit_digits.shape[1], dtype=np.int64)
    size = field.order ** len(columns)
    syn = np.empty(size, dtype=np.int64)
    step = max(1, _CHUNK_BYTES // (8 * (2 + len(units) + 2 * unit_digits.shape[1])))
    for lo in range(0, size, step):
        values = np.arange(lo, min(lo + step, size), dtype=np.int64)
        digits = (values[:, None] // unit_powers) % p
        syn[lo:lo + len(values)] = (digits @ unit_digits) % p @ syn_powers
    return syn


@lru_cache(maxsize=None)
def _digit_rows(p: int, width: int) -> np.ndarray:
    """The base-p digits of 0 .. p^width - 1, one row each, least significant first."""
    rows = np.arange(p ** width, dtype=np.int64)[:, None] // p ** np.arange(width) % p
    rows.flags.writeable = False  # shared by every caller through the cache
    return rows


@lru_cache(maxsize=None)
def _sum_table(p: int, width: int) -> np.ndarray:
    """S[a, b]: the digit-wise sum mod p of the width-digit values a and b."""
    r = np.arange(p ** width, dtype=np.int64)
    table = digit_adder(p, width)(r[:, None], r[None, :])
    table.flags.writeable = False  # shared by every caller through the cache
    return table


def _layout(p: int, basis: np.ndarray, pivots, out: np.ndarray) -> np.ndarray:
    """Syndrome index of every cell (y, c) of a block's layout: a (p^k, p^f) view of `out`.

    `basis` is the RREF basis g_1..g_k of the block's syndrome span, with
    `pivots`.  Cell (y, c) is the syndrome with pivot digits y and other
    digits c + t(y), t(y) the non-pivot digits of sum_j y_j g_j, so a shift
    by any syndrome of the span changes y only.  The non-pivot digits are
    split in two halves, and each half's digit-wise sums t(y) + c are read
    from the table of all sums of two half-width values.  `out` holds one
    index per syndrome.
    """
    free = [i for i in range(basis.shape[1]) if i not in pivots]
    y = _digit_rows(p, len(pivots))
    t = y @ basis[:, free] % p  # t(y), one digit per non-pivot position
    split = len(free) // 2      # c = c_hi * p^split + c_lo
    hi, lo = (_placed_sums(p, free[split:], t[:, split:]),
              _placed_sums(p, free[:split], t[:, :split]))
    pivot_part = y @ p ** np.array(pivots, dtype=np.int64)
    index = out.reshape(len(y), len(hi[0]), len(lo[0]))
    np.add((pivot_part[:, None] + hi)[:, :, None], lo[:, None, :], out=index)
    return out.reshape(len(y), -1)


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


@dataclass(frozen=True)
class SyndromeDP:
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
    """Run the DP for the code over `field` with parity-check rows `parity`.

    `shapes` lists each block's n x m shape, in order; a block value weighs
    its rank.  A weight-d codeword is recovered from the level record, from
    the last block back, taking the smallest block value at each tie so that
    the witness is reproducible.
    """
    p, codim = field.p, len(parity)
    digits = codim * field.dim_over_prime
    prime = make_field(p, [1])
    columns = list(zip(*parity)) or [()] * sum(n * m for n, m in shapes)
    starts = np.cumsum([0] + [n * m for n, m in shapes])

    def block_syn(b):
        return block_syndromes(field, columns[starts[b]:starts[b + 1]])

    def coset_min(M, gens, rows):  # min of M[s - syn(x)] over the F_p-span of gens
        for j in gens:
            acc = cur = M
            for _ in range(p - 1):
                cur = np.take(cur, rows[j], axis=0)
                acc = np.minimum(acc, cur)
            M = acc
        return M

    flat = np.full(p ** digits, _INF, dtype=np.int8)
    flat[0] = 0
    buf = np.empty_like(flat)  # the state in the current block's layout
    index = np.empty(len(flat), dtype=np.intp)  # the syndrome of each layout cell
    t = len(shapes)
    # levels[w, s]: blocks after which A[s] is first <= w, else t + 1
    levels = np.full((codim + 1, len(flat)), t + 1, dtype=np.uint8 if t < 255 else np.uint16)
    levels[:, 0] = 0
    b_zero = []
    for b, (n, m) in enumerate(shapes):
        syn = block_syn(b)
        ranks = rank_array(field, n, m)
        # syn(-v) = -syn(v) and rank(-v) = rank(v): the min over v of
        # A[-syn(v)] + rank(v) is the min over v of A[syn(v)] + rank(v)
        reach = flat[syn[1:]] + ranks[1:].astype(np.int16)
        b_zero.append(min(b_zero[-1] if b_zero else _INF, int(reach.min())))
        units = syn[p ** np.arange(n * m * field.dim_over_prime)]  # unit digits' syndromes
        basis, pivots = rref(prime, units[:, None] // p ** np.arange(digits) % p)
        idx = _layout(p, np.array(basis, dtype=np.int64).reshape(len(pivots), digits),
                      pivots, index)
        B = np.take(flat, idx, out=buf.reshape(idx.shape))
        top = B.min(axis=0) + np.int8(n)  # any block value, counted at weight n
        if n > 1:
            gens = syn[_line_generators(field, n, m)]  # generator syndromes per line
            ks, js = np.unique(gens, return_inverse=True)
            # a shift by syndrome k moves row y to row y + (the pivot digits of k)
            ks_y = sum(ks // p ** at % p * p ** j for j, at in enumerate(pivots))
            rows = _digit_sub(p, len(pivots), np.arange(len(B)), np.reshape(ks_y, (-1, 1)))
            lines = [[j for j in row if ks[j]] for row in js.reshape(gens.shape).tolist()]
            for _ in range(n - 1):
                C = np.full_like(B, _INF)
                for line in lines:
                    np.minimum(C, coset_min(B, line, rows), out=C)
                np.minimum(B, C + 1, out=B)
        np.minimum(B, top, out=B)
        before = flat.copy()
        flat[idx] = B
        changed = np.flatnonzero(flat < before)
        new, old = flat[changed], before[changed]
        for w in range(codim + 1):
            levels[w, changed[(new <= w) & (old > w)]] = b + 1
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
    q, out = field.order, 0
    for i in range(cells):
        out += field.mul(c, value // q ** i % q) * q ** i
    return out


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


def least_weight_word(field, rows, blocks) -> tuple[int, tuple[int, ...]] | None:
    """The first word of least nonzero weight in the span of `rows`.

    `rows` are GF(q) generator rows of packed block values, in the order
    that fixes the enumeration (see `span_chunks`); `blocks` lists each
    block's number of GF(q) cells and its weight array, as for
    `syndrome_dp`.  Every word is weighed by one table lookup per block.
    Returns (weight, word), or None when the span has no nonzero word.
    """
    top = np.iinfo(np.int64).max
    best, witness = None, None
    for words in span_chunks(field, rows, [n for n, _ in blocks]):
        weight = np.zeros(words.shape[1], dtype=np.int64)
        for (_, table), values in zip(blocks, words):
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

@dataclass(frozen=True)
class SrDistance:
    """A minimum distance, exact or as a certified interval, with its method."""

    lo: int | None
    hi: int | None
    method: str
    witness: tuple[int, ...] | None = None  # packed block values
    infinite: bool = False
    note: str | None = None  # the budget stops behind an interval

    @property
    def exact(self) -> bool:
        return self.infinite or self.lo == self.hi

    @property
    def value(self) -> int:
        if self.infinite:
            raise ValueError("the zero code has no minimum distance")
        if not self.exact:
            raise ValueError(f"distance only known in [{self.lo}, {self.hi}]")
        return self.lo


class SumRankCode:
    """Common interface for structured sum-rank codes over GF(q)."""

    construction: str = "explicit"

    def __init__(self, base: Field, profile: MatrixProfile):
        self.base = base
        self.profile = profile

    @property
    def dim(self) -> int:
        raise NotImplementedError

    @property
    def size(self) -> int:
        return self.base.order ** self.dim

    @property
    def ambient_dim(self) -> int:
        return self.profile.ambient_dim

    @property
    def codim(self) -> int:
        return self.ambient_dim - self.dim

    def enumerate_packed(self, budget: int = ENUM_BUDGET):
        """Yield each codeword once, as a tuple of packed block ints."""
        raise NotImplementedError

    def _generator_rows_packed(self):
        """Packed-block words spanning the code, one per GF(q) dimension.

        Listed in `enumerate_packed` order: that enumeration is the
        lexicographic GF(q)-span of these rows, the first row most
        significant, which `least_weight_word` walks.
        """
        raise NotImplementedError

    def describe(self) -> dict:
        raise NotImplementedError

    # -- flattened GF(q) linear-code view ------------------------------

    def flat_rows(self, words) -> np.ndarray:
        """Row-major GF(q) coordinates of packed words, blocks in order.

        One int64 row per word; each block's packed values are split into
        base-q digits in one numpy step.
        """
        q, blocks = self.base.order, self.profile.blocks
        dtype = np.int64 if q ** max(n * m for n, m in blocks) < 1 << 63 else object
        packed = np.array(words, dtype=dtype).reshape(len(words), len(blocks))
        out = np.zeros((len(words), self.ambient_dim), dtype=np.int64)
        starts = np.cumsum([0] + [n * m for n, m in blocks])
        for b, (n, m) in enumerate(blocks):
            powers = q ** np.arange(n * m, dtype=dtype)
            out[:, starts[b]:starts[b + 1]] = packed[:, b, None] // powers % q
        return out

    def flatten(self, packed) -> tuple[int, ...]:
        """Row-major GF(q) coordinates of a packed word, blocks in order."""
        return tuple(self.flat_rows([packed])[0].tolist())

    def unflatten(self, vec) -> tuple[int, ...]:
        packed = []
        pos = 0
        for n, m in self.profile.blocks:
            mat = tuple(tuple(vec[pos + i * m + j] for j in range(m)) for i in range(n))
            packed.append(pack_matrix(self.base, mat))
            pos += n * m
        return tuple(packed)

    @cached_property
    def flat_generator(self) -> tuple[tuple[int, ...], ...]:
        rows = self.flat_rows(self._generator_rows_packed())
        red, _ = rref(self.base, rows)
        if len(red) != len(rows):
            raise RuntimeError("construction is not injective: dependent generators")
        return tuple(red)

    @cached_property
    def flat_parity(self) -> tuple[tuple[int, ...], ...]:
        return tuple(nullspace(self.base, self.flat_generator, self.ambient_dim,
                               reduced=True))

    @property
    def weight_blocks(self) -> list:
        """Per block: its GF(q) cell count and the rank of every packed value."""
        return [(n * m, rank_array(self.base, n, m)) for n, m in self.profile.blocks]

    @cached_property
    def syndrome_dp(self) -> SyndromeDP:
        """One syndrome-space DP pass: d with a witness, R, and the leader table."""
        return syndrome_dp(self.base, self.flat_parity, self.profile.blocks)

    def to_word(self, packed) -> SumRankWord:
        mats = tuple(unpack_matrix(self.base, pk, n, m)
                     for (n, m), pk in zip(self.profile.blocks, packed))
        return SumRankWord(self.profile, mats)

    def contains_packed(self, packed) -> bool:
        vec = self.flatten(packed)
        f = self.base
        for row in self.flat_parity:
            acc = 0
            for h, v in zip(row, vec):
                if h and v:
                    acc = f.add(acc, f.mul(h, v))
            if acc:
                return False
        return True
