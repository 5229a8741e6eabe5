"""Hamming-metric linear codes over extension fields, each held as its parity.

Covers the ingredient-code machinery: cyclic codes from cyclotomic cosets,
standard families (Hamming, Reed-Solomon, BCH, trivial codes), the support
search (one sorted-syndrome lookup per chunk of word prefixes: a word at the
structure's lower end, and d <= 4), and the covering radius read from the
syndrome-space DP.
Builders write only the parity, a read-only int64 array read as it stands;
`LinearCode` derives the generator, as row tuples, where it is read.  It
is a `SumRankCode` of n blocks of 1 x 1, of rank [a != 0], so exact d
comes from `certify.sr_min_distance`, as in the sum-rank metric.
"""

from __future__ import annotations

import functools
import itertools
from math import comb, gcd
from typing import NamedTuple

import numpy as np

# rref and nullspace live in `gf` and stay reachable here
from .gf import _CHUNK_BYTES, Field, UsageError, digit_adder, nullspace, rref
from .spaces import MatrixProfile, singleton_like_exponent
from .syndrome import (BudgetExceeded, Budgets, SrDistance, SumRankCode, covering_radius,
                       scaled_syndromes)

# The largest k * n of a generator that `LinearCode.generator` forms (2^25),
# read only by descriptors and enumeration.  The 1.9 * 10^7-cell ingredients of
# quasi-perfect-2xm q=4 m=2 u=4 fit; the 1.07 * 10^9 cells of Python ints of
# distance-optimal-sxs q=2 s=3 m=5 are refused before any row is formed.  It also
# bounds the 64-bit words of the cyclotomic cosets a cyclic recipe lists.
DENSE_CELL_LIMIT = 1 << 25


class Proven(NamedTuple):  # what a code's structure proves (`LinearCode.proven`)
    d_lo: int  # d >= d_lo, 0 when nothing proves more
    source: str | None  # the theorem or bound behind d_lo
    mds: bool  # d_lo = n - k + 1, k >= 1: any n - k parity columns are independent
    radius_hi: int  # R_H <= radius_hi


class LinearCode(SumRankCode):
    """An [n, k] linear code over an extension field: n blocks of 1 x 1.

    Builders give only the parity check H, whose row j has a column equal to
    e_j, so the rows are independent and k = n - len(H).  G is derived on
    first read as H's nullspace at the pivots, row j's being its last column
    equal to e_j: the code's RREF (nullspace(RREF(H)) for Hamming codes).  A
    symbol is its own packed 1 x 1 block, so G and H are also the packed
    generator rows and the flat parity-check rows.
    """

    def __init__(self, field: Field, n: int, parity, family: str = "explicit",
                 designed_distance: int | None = None,
                 defining_set: tuple[int, ...] | None = None):
        self.field = self.base = field
        self.n = n
        self.parity = H = np.asarray(parity, dtype=np.int64).reshape(len(parity), n)
        H.flags.writeable = False
        units = np.flatnonzero(((H != 0).sum(axis=0) == 1) & (H.sum(axis=0) == 1))
        rows, at = np.nonzero(H[:, units])
        last = dict(zip(rows.tolist(), units[at].tolist()))  # row-major: the last unit wins
        if len(last) < len(H):
            raise ValueError("a parity row has no column equal to its unit vector")
        self._pivots = [last[j] for j in range(len(H))]
        self.family = family
        self.designed_distance = designed_distance
        self.defining_set = defining_set
        self._codeword_cache: list | None = None
        self._first_words: dict = {}

    @property
    def dim(self) -> int:
        return self.n - len(self.parity)

    k = dim

    @functools.cached_property
    def generator(self) -> tuple[tuple[int, ...], ...]:
        if self.k * self.n > DENSE_CELL_LIMIT:
            raise UsageError(f"size gate: the {self.k} x {self.n} generator has k*n = "
                             f"{self.k * self.n} cells, above DENSE_CELL_LIMIT = "
                             f"{DENSE_CELL_LIMIT}")
        return tuple(nullspace(self.field, self.parity, self.n, pivots=self._pivots))

    @property
    def first_row(self) -> tuple[int, ...] | None:
        """`generator[0]` from one parity column, None if k = 0: 1 at the first free column f
        and -H[j, f] at pivot j, so it weighs at most n - k + 1 (exactly d if MDS)."""
        if self.k == 0:
            return None
        f, row = min(set(range(len(self.parity) + 1)) - set(self._pivots)), [0] * self.n
        row[f] = 1
        for j, c in enumerate(self._pivots):
            row[c] = self.field.neg(int(self.parity[j, f]))
        return tuple(row)

    @property
    def singleton(self) -> int:
        """The Singleton end n - k + 1 (k >= 1): the 1 x 1 exponent n - d + 1 read at d = k."""
        return singleton_like_exponent({(1, 1): self.n}, self.k)

    @functools.cached_property
    def profile(self) -> MatrixProfile:
        return MatrixProfile(self.field, ((1, 1),) * self.n)

    @property
    def flat_parity(self) -> np.ndarray:
        return self.parity

    def _generator_rows_packed(self):
        return self.generator

    @functools.cached_property
    def proven(self) -> Proven:
        """d >= the builder's theorem, 3 for a Hamming code and n - k + 1 for the MDS families,
        else `bch_bound` of the defining set; R_H <= 1 for a Hamming code, which is perfect,
        else n - k, as every syndrome is a combination of n - k independent columns."""
        lo, source = 0, None
        if self.family in ("hamming", "parity", "full", "reed-solomon", "repetition"):
            lo, source = 3 if self.family == "hamming" else self.singleton, self.family
        elif self.defining_set is not None:
            lo, source = bch_bound(self.defining_set, self.n)
        return Proven(lo, source, self.k >= 1 and lo == self.singleton,
                      1 if self.family == "hamming" else self.n - self.k)

    def distance_bounds(self, distance, budgets: Budgets = Budgets()):
        """[d_lo, Singleton] of `proven`, a point witnessed by the first row if MDS, else closed
        by a word of weight d_lo that the support search finds within the enum budget."""
        if (proven := self.proven).source:
            yield SrDistance(proven.d_lo, self.singleton, proven.source,
                             self.first_row if proven.mds else None)
            word = not proven.mds and self.first_word(proven.d_lo, budgets)
            yield from [SrDistance(1, proven.d_lo, "support_test", word)] if word else []

    def first_word(self, w: int, budgets: Budgets) -> tuple[int, ...] | None:
        """`iter_low_weight`'s first word of weight w within the enum budget, or None: searched
        once per weight and budget, as d's structure source and `min_distance` both ask."""
        if (w, budgets.enum) not in self._first_words:
            self._first_words[w, budgets.enum] = next(iter_low_weight(self, w, budgets.enum), None)
        return self._first_words[w, budgets.enum]

    def distance_searches(self, budgets):
        return [min_distance(self, budgets)]  # the support search, for d <= 4

    def search_stop(self, budgets: Budgets, w: int) -> str | None:
        """Why the enum budget cuts `iter_low_weight` short at weight w, or None (weight 1 reads
        the zero columns and makes no lookup)."""
        n, nz, cyclic = self.n, self.field.order - 1, self.defining_set is not None
        need = n * nz * comb(n - cyclic, w - 2 - cyclic) * nz ** (w - 3) if w > 2 else (
            (w - 1) * (1 if cyclic else n))
        return (f"enum budget {budgets.enum} < {need} syndrome lookups of the weight-{w} support "
                "search" if need > budgets.enum else None)

    def __repr__(self) -> str:
        d = self.designed_distance
        tail = f",{d}" if d is not None else ""
        return f"[{self.n},{self.k}{tail}]_{self.field.order}"

    def codewords(self, budget: int = Budgets().enum):
        """Stream every codeword exactly once (streaming span walk)."""
        if stop := self.enum_stop(budget):
            raise BudgetExceeded(stop)
        f = self.field
        scaled = [[tuple(f.mul(lam, g) for g in row) for lam in f.elements()]
                  for row in self.generator]

        def walk(i, current):
            if i == len(scaled):
                yield current
                return
            for srow in scaled[i]:
                nxt = tuple(f.add(a, b) for a, b in zip(current, srow))
                yield from walk(i + 1, nxt)

        yield from walk(0, (0,) * self.n)

    enumerate_packed = codewords

    def codeword_list(self, budget: int = 1 << 16) -> list:
        if self._codeword_cache is None:
            self._codeword_cache = list(self.codewords(budget))
        return self._codeword_cache

    def describe(self) -> dict:
        return {
            "field": self.field.describe(),
            "length": self.n,
            "dimension": self.k,
            "family": self.family,
            "designed_distance": self.designed_distance,
            "defining_set": self.defining_set or None,
            "generator": self.generator,
        }


def from_generator(field: Field, rows, *, family: str = "explicit",
                   designed_distance: int | None = None) -> LinearCode:
    rows = [tuple(field.check(x) for x in r) for r in rows]
    if not rows:
        raise ValueError("use zero_code for the trivial {0} code")
    n = len(rows[0])
    red, pivots = rref(field, rows)
    if len(red) != len(rows):
        raise ValueError("generator matrix rows are dependent")
    return LinearCode(field, n, tuple(nullspace(field, red, n, pivots=pivots)),
                      family=family, designed_distance=designed_distance)


def zero_code(field: Field, t: int) -> LinearCode:
    """The trivial {0} code of length t."""
    return LinearCode(field, t, np.eye(t, dtype=np.int64), family="zero")


# ----------------------------------------------------------------------
# cyclotomic cosets and cyclic codes
# ----------------------------------------------------------------------

def cyclotomic_coset(i: int, Q: int, n: int) -> tuple[int, ...]:
    """The Q-cyclotomic coset of i modulo n, sorted ascending."""
    if gcd(n, Q) != 1:
        raise ValueError(f"gcd({n}, {Q}) must be 1")
    i %= n
    out = {i}
    j = (i * Q) % n
    while j != i:
        out.add(j)
        j = (j * Q) % n
    return tuple(sorted(out))


def cyclic_code(n: int, field: Field, generators) -> LinearCode:
    """Cyclic code of length n over the field with the given defining set.

    `generators` lists residues; the defining set is the union of their
    Q-cyclotomic cosets.  The primitive n-th root beta is g**((Q^l - 1)/n)
    for the designated generator g of GF(Q^l), l = ord_n(Q).
    """
    Q = field.order
    if n < 1:
        raise ValueError("length must be positive")
    ell = len(cyclotomic_coset(1, Q, n))  # ord_n(Q); also validates gcd(n, Q) = 1
    T_sorted = tuple(sorted({r for g in generators for r in cyclotomic_coset(g, Q, n)}))
    r = len(T_sorted)
    k = n - r
    if k == 0:
        raise ValueError("defining set covers all residues; code is trivial {0}")
    ext = field.extension(ell)
    beta = ext.pow(ext.generator, (ext.order - 1) // n)
    if ext.pow(beta, n) != 1 or (n > 1 and beta == 1):
        raise RuntimeError("failed to construct a primitive n-th root of unity")
    # g(x) = prod_{i in T} (x - beta^i), expanded over the extension
    gpoly = [1]
    for i in T_sorted:
        root = ext.pow(beta, i)
        shifted = [0] + gpoly
        scaled = [ext.mul(ext.neg(root), c) for c in gpoly] + [0]
        gpoly = [ext.add(a, b) for a, b in zip(shifted, scaled)]
    # g's coefficients lie in the base field, one tower step below the extension
    gcoeffs = gpoly if ext is field else [ext.project(c) for c in gpoly]
    # Parity [R^T | I_r], R[j] the coefficients of x^(r+j) mod g(x): each
    # x^j - x^k (x^(r+j) mod g(x)) is a multiple of g(x) modulo x^n - 1 that
    # is e_j on the first k positions, so the code's RREF is [I_k | -R],
    # which is the generator `LinearCode` derives at the pivots k..n-1.
    rem = [field.neg(c) for c in gcoeffs[:r]]
    rems = []
    for _ in range(k):
        rems.append(rem)
        top = rem[-1] if r else 0
        rem = [field.sub(rem[i - 1] if i else 0, field.mul(top, gcoeffs[i]))
               for i in range(r)]
    parity = np.hstack([np.array(rems, dtype=np.int64).reshape(k, r).T,
                        np.eye(r, dtype=np.int64)])
    return LinearCode(field, n, parity, family="cyclic", defining_set=T_sorted)


# ----------------------------------------------------------------------
# standard families
# ----------------------------------------------------------------------

def hamming_code(field: Field, u: int) -> LinearCode:
    """Hamming code of redundancy u: columns are the projective points."""
    if u < 2:
        raise ValueError("redundancy must be at least 2")
    Q = field.order
    # the packed points, ascending, whose lowest nonzero digit (at k) is 1
    points = np.sort(np.concatenate([Q ** k * (1 + Q * np.arange(Q ** (u - 1 - k)))
                                     for k in range(u)]))
    parity = points // Q ** np.arange(u)[:, None] % Q
    return LinearCode(field, len(points), parity, family="hamming", designed_distance=3)


def reed_solomon(field: Field, t: int, k: int) -> LinearCode:
    """(Extended) Reed-Solomon [t, k, t-k+1]; needs t <= Q + 1."""
    Q = field.order
    if not 1 <= k <= t:
        raise ValueError("need 1 <= k <= t")
    if t > Q + 1:
        raise ValueError(f"length {t} exceeds Q + 1 = {Q + 1}")
    pts = list(range(min(t, Q)))
    rows = []
    for j in range(k):
        row = [field.pow(p, j) for p in pts]  # 0**0 evaluates to 1
        if t == Q + 1:
            row.append(1 if j == k - 1 else 0)
        rows.append(tuple(row))
    return from_generator(field, rows, family="reed-solomon", designed_distance=t - k + 1)


def repetition_code(field: Field, t: int) -> LinearCode:
    if t < 1:
        raise UsageError("length must be positive")
    return from_generator(field, [(1,) * t], family="repetition", designed_distance=t)


def parity_check_code(field: Field, t: int) -> LinearCode:
    """Single-parity [t, t-1, 2]; cyclic with defining set {0} when gcd(t,Q)=1."""
    if t < 2:
        raise ValueError("length must be at least 2")
    return LinearCode(field, t, ((1,) * t,), family="parity", designed_distance=2,
                      defining_set=(0,) if gcd(t, field.order) == 1 else None)


def full_code(field: Field, t: int) -> LinearCode:
    return LinearCode(field, t, np.zeros((0, t), np.int64), family="full", designed_distance=1,
                      defining_set=() if gcd(t, field.order) == 1 else None)


def bch_binary(e: int, n: int) -> LinearCode:
    """Binary primitive BCH code of length 2^n - 1, designed distance 2e+1."""
    from .gf import make_field
    if e < 1 or n < 2:
        raise ValueError("need e >= 1 and n >= 2")
    length = 2 ** n - 1
    if 2 * e + 1 > length:
        raise ValueError("designed distance exceeds the length")
    f2 = make_field(2, [1])
    code = cyclic_code(length, f2, list(range(1, 2 * e + 1)))
    code.family = "bch"
    code.designed_distance = 2 * e + 1
    return code


# ----------------------------------------------------------------------
# minimum distance
# ----------------------------------------------------------------------

def low_weight_search(code: LinearCode, w: int):
    """First codeword of Hamming weight exactly w (`iter_low_weight`), or None."""
    return next(iter_low_weight(code, w), None)


def iter_low_weight(code: LinearCode, w: int, lookups: int | None = None):
    """Yield each codeword of weight exactly w whose first nonzero entry is 1, once.

    Single k is the scalar nz[k % (q - 1)] alone at position k // (q - 1).  A word's first w - 2
    singles, the first equal to 1, are its prefix, of distinct positions; prefixes come in order
    of their positions, then of their scalars.  A prefix's needles are minus its syndrome minus
    that of each single that may follow it (every single, or at w = 2 each first entry), and one
    `np.searchsorted` of a chunk of prefixes' needles in the sorted syndromes of all singles
    (`scaled_syndromes`) finds each later single that completes a word.  A shift and a scalar
    move any word of a cyclic code (one with a defining set) to one with c_0 = 1 (Grassl 2006),
    so its words start at 0.  With `lookups`, the search stops after the prefixes whose needles
    fit in it: every prefix formed is counted.  A chunk's needles fit `_CHUNK_BYTES`."""
    f, n, H = code.field, code.n, code.parity
    nz, starts = f.nonzero_elements(), range(1 if code.defining_set is not None else n)
    if w == 1:  # a zero column
        yield from (tuple(int(i == j) for i in range(n)) for j in starts if not H[:, j].any())
        return
    add, q1 = digit_adder(f.p, f.dim_over_prime * len(H)), len(nz)
    single = scaled_syndromes(f, H, nz).ravel()
    neg = single.reshape(n, q1)[:, [f.neg(c) - 1 for c in nz]].ravel()  # -s(j, c) = s(j, -c)
    order, at = np.argsort(single, kind="stable"), np.arange(n * q1) // q1  # at: k's position
    table, nexts = single[order], np.arange(n * q1) if w > 2 else np.array(starts) * q1
    prefixes = iter([()]) if w == 2 else (
        (j * q1, *(a * q1 + c for a, c in zip(ats, cs))) for j in starts
        for ats in itertools.combinations(range(j + 1, n), w - 3)
        for cs in itertools.product(range(q1), repeat=w - 3))
    if lookups is not None:  # zip, as islice takes no count past sys.maxsize
        prefixes = (prefix for _, prefix in zip(range(lookups // len(nexts)), prefixes))
    size = max(1, _CHUNK_BYTES // (32 * len(nexts)))
    for chunk in iter(lambda: list(itertools.islice(prefixes, size)), []):
        pre = np.array(chunk, dtype=np.int64).reshape(len(chunk), w - 2)
        syn = functools.reduce(add, neg[pre].T, np.zeros(len(pre), neg.dtype))
        needles, last = add(syn[:, None], neg[nexts]).ravel(), at[pre].max(axis=1, initial=-1)
        first, stop = table.searchsorted(needles, "left"), table.searchsorted(needles, "right")
        for i in np.flatnonzero(stop > first):
            (r, b), ks = divmod(int(i), len(nexts)), order[first[i]:stop[i]]
            for k in ks[(at[ks] > at[nexts[b]]) & (at[nexts[b]] > last[r])]:
                word = [0] * n
                for s in (*chunk[r], nexts[b], k):
                    word[s // q1] = nz[s % q1]
                yield tuple(word)


def min_distance(code: LinearCode, budgets: Budgets = Budgets()) -> SrDistance:
    """The support search for d <= 4, read by `certify` after the DP and enumeration, from the
    weight the structure proves (`LinearCode.proven`), as no lighter word exists: at each
    weight w, `LinearCode.first_word` within the enum budget.  A word is the witness of d = w; a
    search that ends within it proves d >= w + 1, and one that `LinearCode.search_stop` says
    the budget cuts short gives [w, Singleton] with that stop; [5, Singleton] when d > 4.
    A lower end at Singleton is a point, witnessed by `first_row`, which weighs at most that."""
    if code.k == 0:
        raise ValueError("the zero code has no nonzero codeword")
    lo, singleton, stops = 5, code.singleton, ()
    for w in range(max(1, code.proven.d_lo), 5):
        if (witness := code.first_word(w, budgets)) is not None:
            return SrDistance(w, w, "support_test", witness)
        if stop := code.search_stop(budgets, w):
            lo, stops = w, (stop,)
            break
    return SrDistance(lo, singleton, "support_test", code.first_row if lo == singleton else None,
                      stops)


# ----------------------------------------------------------------------
# designed-distance bounds for cyclic codes
# ----------------------------------------------------------------------

def bch_bound(T, n: int) -> tuple[int, str]:
    """The Hartmann-Tzeng bound of the defining set T mod n, and its source, "bch" when a run
    alone attains it: d >= L + 1 + s if T holds a + i + jb for all i < L and j <= s, with
    gcd(b, n) <= L (Hartmann and Tzeng, Inform. Control 20, 1972); BCH is its case s = 0.
    With run[x] the length of T's run from x, each start a and step b in T - a walk j = 1, 2,
    ... once while L = min(run[a + ib] : i <= j) >= gcd(b, n), each L + 1 + j a bound, and j
    stays below the order of b unless T is every residue: the cost does not grow with n."""
    Ts = {x % n for x in T}
    if len(Ts) == n:
        return n + 1, "bch"
    z, run = next(x for x in range(n) if x not in Ts), {}
    for x in sorted(Ts, key=lambda x: (z - x) % n):  # backwards from z, which T misses
        run[x] = run.get((x + 1) % n, 0) + 1
    bch, ht = 1 + max(run.values(), default=0), 1
    for a, b in {(a, (x - a) % n) for a in Ts for x in Ts}:  # x = a: step 0, gcd n > L
        L, j = run[a], 1
        while (L := min(L, run.get((a + j * b) % n, 0))) >= gcd(b, n):
            ht, j = max(ht, L + 1 + j), j + 1
    return (bch, "bch") if bch >= ht else (ht, "hartmann-tzeng")


def bch_covering_radius_interval(e: int, n: int):
    """Interval [2e-1, 2e] for the covering radius of BCH(e, n), or None.

    Applies only where 2^n >= (2e-1)^(4e+2).  With 2^(b-1) <= 2e - 1 < 2^b, that holds when
    n >= b(4e + 2) and fails when n < (b - 1)(4e + 2); only in between are the powers formed.
    """
    if e < 1 or n < 1:
        raise UsageError("need positive e and n")
    b, k = (2 * e - 1).bit_length(), 4 * e + 2
    if n < (b - 1) * k or (n < b * k and 2 ** n < (2 * e - 1) ** k):
        return None
    return (2 * e - 1, 2 * e)


# ----------------------------------------------------------------------
# low-weight pools and the quasi-perfect [6,3,4] ingredient
# ----------------------------------------------------------------------

def low_weight_pool(code: LinearCode, wmax: int, cap: int = 512) -> list[tuple[int, ...]]:
    """Up to `cap` words of `iter_low_weight` of weight <= wmax (wmax <= 4), lightest first."""
    words = (iter_low_weight(code, w) for w in range(1, min(wmax, 4) + 1))
    return list(itertools.islice(itertools.chain.from_iterable(words), cap))


def search_634_ingredient(field4: Field) -> LinearCode:
    """The hexacode, a [6,3,4] code over GF(4) of covering radius 2.

    The generator is [I | A] with A = [[1, 1, 1], [1, w, w^2], [1, w^2, w]],
    w = 2.  The rows are fixed data, not searched for.
    """
    if field4.order != 4:
        raise ValueError("the hexacode lives over GF(4)")
    rows = ((1, 0, 0, 1, 1, 1), (0, 1, 0, 1, 2, 3), (0, 0, 1, 1, 3, 2))
    return from_generator(field4, rows, family="explicit", designed_distance=4)
