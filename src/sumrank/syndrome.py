"""Exact minimum distance and covering radius by a syndrome-space DP.

Words are built block by block.  After some blocks, A[s] is the least
weight of a word on them with syndrome s, and B[s] the same over nonzero
words.  A block whose nonzero values v have weight w(v) and syndrome
syn(v) updates both by a min-plus convolution,

    C[s] = min_v A[s - syn(v)] + w(v),   A <- min(A, C),   B <- min(B, C),

the recursion `spaces.ball_volume_exact` runs over counts.  After the last
block d = B[0], R = max A, and A is the coset-leader table.  Sum-rank
blocks weigh a value by its rank; a Hamming-metric code is the case of
one-symbol blocks of weight [a != 0].  Every value is a small exact integer.

A syndrome index concatenates the base-p digits of the syndrome entries,
as GF(p^e) elements are packed, so subtraction is digit-wise mod p.  The
index splits into digit halves s = hi * p^D2 + lo, and a shift of the
(p^D1, p^D2) state is a column gather and a row gather through two small
subtraction tables.

When the syndrome space is too large, `least_weight_word` settles d by
enumerating the code in numpy chunks instead, in both metrics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

ENUM_BUDGET = 1 << 22      # codewords an exhaustive enumeration may stream
SYNDROME_BUDGET = 1 << 16  # syndromes (q^codim) the DP may hold
WORK_BUDGET = 1 << 30      # DP work: block values summed over blocks, times q^codim

_INF = 100                 # int8 sentinel above every leader weight
_SNAPSHOT_BYTES = 1 << 26  # witness snapshots beyond this are thinned and recomputed
_CHUNK_WORDS = 1 << 16     # words the enumeration holds at once
_CHUNK_BYTES = 1 << 23     # and at most this many bytes of them


class BudgetExceeded(RuntimeError):
    """An exact computation would overrun the configured budget."""


def dp_budget_stop(q: int, codim: int, block_sizes, syndrome_budget: int,
                   work_budget: int) -> str | None:
    """Why the DP may not run within these budgets, or None if it may."""
    n_syn = q ** codim
    if n_syn > syndrome_budget:
        return f"syndrome budget {syndrome_budget} < {n_syn} syndromes (q^codim)"
    work = sum(block_sizes) * n_syn
    if work > work_budget:
        return (f"sweep budget {work_budget} < {work} DP work units "
                "(block values x q^codim)")
    return None


def block_syndromes(field, columns) -> np.ndarray:
    """Syndrome index of every packed value of one block.

    `columns[j]` is the parity-check column of the block's j-th position in
    packing order.  The map is GF(p)-linear, so the syndromes of the base-p
    unit digits fix it, and one integer matrix product applies it.
    """
    p, e = field.p, field.dim_over_prime
    units = []  # syndrome digits of each base-p unit digit of the block
    for col in columns:
        for i in range(e):
            img = [field.mul(p ** i, h) for h in col]
            units.append([(x // p ** j) % p for x in img for j in range(e)])
    unit_digits = np.array(units, dtype=np.int64).reshape(len(units), -1)
    values = np.arange(field.order ** len(columns), dtype=np.int64)
    digits = (values[:, None] // p ** np.arange(len(units), dtype=np.int64)) % p
    return (digits @ unit_digits) % p @ p ** np.arange(unit_digits.shape[1], dtype=np.int64)


def _sub_table(p: int, digits: int) -> np.ndarray:
    """T[k, h] = index of the digit-wise difference h - k mod p."""
    idx = np.arange(p ** digits)
    table = np.zeros((len(idx), len(idx)), dtype=np.intp)
    for i in range(digits):
        dig = (idx // p ** i) % p
        table += ((dig[None, :] - dig[:, None]) % p) * p ** i
    return table


@dataclass(frozen=True)
class CosetLeaderTable:
    """Least coset weight per syndrome index; max entry is the covering radius."""

    flavor: str
    leader_weight: dict[int, int]

    @property
    def covering_radius(self) -> int:
        return max(self.leader_weight.values())

    def complete(self, expected: int) -> bool:
        return len(self.leader_weight) == expected


@dataclass(frozen=True)
class SyndromeDP:
    """One DP pass: leader table A, distance B[0], and a weight-d codeword."""

    leaders: np.ndarray              # least word weight per syndrome index
    distance: int | None             # None for the zero code
    witness: tuple[int, ...] | None  # packed block values

    @property
    def radius(self) -> int:
        return int(self.leaders.max())

    def table(self, flavor: str) -> CosetLeaderTable:
        return CosetLeaderTable(flavor, dict(enumerate(self.leaders.tolist())))


def syndrome_dp(field, parity, blocks, *, witness: bool = True) -> SyndromeDP:
    """Run the DP for the code over `field` with parity-check rows `parity`.

    `blocks` lists, in order, each block's number of positions and its
    weight array indexed by packed block value.  With `witness`, the state A
    before each block is kept (every `stride`-th one past `_SNAPSHOT_BYTES`,
    the rest recomputed), and a weight-d codeword is recovered from the
    last block back, taking the smallest block value at each tie so that
    the witness is reproducible.
    """
    columns = list(zip(*parity)) or [()] * sum(n for n, _ in blocks)
    starts = np.cumsum([0] + [n for n, _ in blocks])
    blocks = [(block_syndromes(field, columns[a:b]), wt)
              for a, b, (_, wt) in zip(starts, starts[1:], blocks)]
    p, digits = field.p, len(parity) * field.dim_over_prime
    low = digits // 2
    n1, n2 = p ** (digits - low), p ** low
    t1, t2 = _sub_table(p, digits - low), _sub_table(p, low)
    moves = []  # per block: {(least weight, k_lo): [k_hi, ...]} over its distinct syndromes
    for syn, wt in blocks:
        order = np.lexsort((wt[1:], syn[1:]))
        ks, ws = syn[1:][order], wt[1:][order]
        first = np.r_[True, ks[1:] != ks[:-1]]
        groups: dict[tuple[int, int], list[int]] = {}
        for k, w in zip(ks[first].tolist(), ws[first].tolist()):
            groups.setdefault((w, k % n2), []).append(k // n2)
        moves.append(groups)

    def relax(A, block):  # C[s] = min over moves (k, w) of A[s - k] + w
        A2, C = A.reshape(n1, n2), np.full((n1, n2), _INF, dtype=np.int8)
        plus = {}
        for (w, k_lo), k_his in moves[block].items():
            if w not in plus:
                plus[w] = A2 + np.int8(w)
            cols = plus[w][:, t2[k_lo]]
            for k_hi in k_his:
                np.minimum(C, cols[t1[k_hi]], out=C)
        return C.ravel()

    A = np.full(n1 * n2, _INF, dtype=np.int8)
    A[0] = 0
    B = A.copy()
    B[0] = _INF
    stride = -(-len(blocks) * n1 * n2 // _SNAPSHOT_BYTES)
    snapshots, b_zero = {}, []
    for b in range(len(blocks)):
        if witness and b % stride == 0:
            snapshots[b] = A.copy()
        C = relax(A, b)
        np.minimum(A, C, out=A)
        np.minimum(B, C, out=B)
        b_zero.append(int(B[0]))
    if int(A.max()) >= _INF:
        raise RuntimeError("parity map is not onto: a syndrome is unreachable")
    distance = int(B[0]) if B[0] < _INF else None
    if not witness or distance is None:
        return SyndromeDP(A, distance, None)

    # target: a nonzero word of syndrome 0 while every later value is zero,
    # then any word of syndrome s and weight w
    s, w, need_nonzero, word, segment = 0, distance, True, [], {}
    for b in range(len(blocks) - 1, -1, -1):
        if b not in segment:
            start = b - b % stride
            segment = {start: snapshots[start]}
            for c in range(start, b):
                segment[c + 1] = np.minimum(segment[c], relax(segment[c], c))
        prev = segment[b]
        if (b > 0 and b_zero[b - 1] == w) if need_nonzero else prev[s] == w:
            word.append(0)
            continue
        syn, wt = blocks[b]
        src = t1[syn[1:] // n2, s // n2] * n2 + t2[syn[1:] % n2, s % n2]
        v = 1 + int(np.argmax(prev[src].astype(np.int64) + wt[1:] == w))
        word.append(v)
        s, w, need_nonzero = int(src[v - 1]), w - int(wt[v]), False
    if (s, w) != (0, 0):
        raise RuntimeError("syndrome DP backtrack did not reach the zero word")
    return SyndromeDP(A, distance, tuple(reversed(word)))


# ----------------------------------------------------------------------
# exhaustive enumeration
# ----------------------------------------------------------------------

def _scale_block(field, c: int, value: int, cells: int) -> int:
    """c times every GF(q) cell of a packed block value."""
    q, out = field.order, 0
    for i in range(cells):
        out += field.mul(c, value // q ** i % q) * q ** i
    return out


def digit_adder(p: int, digits: int):
    """Digit-wise addition mod p of packed value arrays: XOR for p = 2."""
    if p == 2:
        return np.bitwise_xor
    powers = [p ** i for i in range(digits)]

    def add(a, b):
        out = np.zeros(np.broadcast_shapes(a.shape, b.shape), dtype=a.dtype)
        for pw in powers:
            out += (a // pw % p + b // pw % p) % p * pw
        return out

    return add


def span_chunks(field, rows, cells):
    """The GF(p)-span of GF(q) rows of packed block values, in order.

    Each row stands for its GF(p) multiples p^j * row, j from high to low,
    and the span is listed lexicographically in the digits on those rows,
    the first row most significant, as `LinearCode.codewords` lists
    GF(q)-combinations.  `cells[b]` is the number of GF(q) entries packed
    in block b.  Yields (blocks, words) arrays of block values of at most
    `_CHUNK_WORDS` words and `_CHUNK_BYTES` bytes each: the span of the
    trailing rows is tabulated once and shifted by each combination of the
    leading rows.
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

    fit = min(_CHUNK_WORDS, _CHUNK_BYTES // (len(cells) * dtype.itemsize))
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
