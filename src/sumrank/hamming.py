"""Hamming-metric linear codes over extension fields.

Covers the ingredient-code machinery: cyclic codes from cyclotomic
cosets, standard families (Hamming, Reed-Solomon, BCH, trivial codes), the
support search for d <= 4, and the covering radius read from the code's
syndrome-space DP pass.  A `LinearCode` is a `SumRankCode` of n blocks of
1 x 1, whose rank is [a != 0], so exact d of any code comes from
`certify.sr_min_distance`, the same dispatch as in the sum-rank metric.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field as dc_field
from math import comb, gcd

# rref, nullspace, array_mul and INT16_ORDER live in `gf` and stay reachable here
from .gf import INT16_ORDER, Field, array_mul, digit_add, nullspace, rref
from .spaces import MatrixProfile
from .syndrome import (ENUM_BUDGET, SYNDROME_BUDGET, WORK_BUDGET, BudgetExceeded,
                       SrDistance, SumRankCode, SyndromeDP, dp_budget_stop)


@dataclass
class LinearCode(SumRankCode):
    """An [n, k] linear code over an extension field: n blocks of 1 x 1.

    G rows are a basis; H rows span the dual.  A symbol is its own packed
    1 x 1 block, so G and H are also the packed generator rows and the flat
    parity-check rows.  Cyclic metadata is attached when the code was built
    from a defining set.
    """

    field: Field
    n: int
    generator: tuple[tuple[int, ...], ...]
    parity: tuple[tuple[int, ...], ...]
    family: str = "explicit"
    designed_distance: int | None = None
    defining_set: tuple[int, ...] | None = None
    notes: dict = dc_field(default_factory=dict)
    _codeword_cache: list | None = None

    @property
    def dim(self) -> int:
        return len(self.generator)

    k = dim

    @property
    def base(self) -> Field:
        return self.field

    @functools.cached_property
    def profile(self) -> MatrixProfile:
        return MatrixProfile(self.field, ((1, 1),) * self.n)

    @property
    def flat_parity(self) -> tuple[tuple[int, ...], ...]:
        return self.parity

    def _generator_rows_packed(self):
        return self.generator

    def __repr__(self) -> str:
        d = self.designed_distance
        tail = f",{d}" if d is not None else ""
        return f"[{self.n},{self.k}{tail}]_{self.field.order}"

    def codewords(self, budget: int = ENUM_BUDGET):
        """Stream every codeword exactly once (streaming span walk)."""
        if self.size > budget:
            raise BudgetExceeded(f"enumerating {self.size} codewords exceeds {budget}")
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
                   designed_distance: int | None = None, **meta) -> LinearCode:
    rows = [tuple(field.check(x) for x in r) for r in rows]
    if not rows:
        raise ValueError("use zero_code for the trivial {0} code")
    n = len(rows[0])
    red, _ = rref(field, rows)
    if len(red) != len(rows):
        raise ValueError("generator matrix rows are dependent")
    parity = tuple(nullspace(field, red, n, reduced=True))
    return LinearCode(field, n, tuple(red), parity, family=family,
                      designed_distance=designed_distance, **meta)


def zero_code(field: Field, t: int) -> LinearCode:
    """The trivial {0} code of length t."""
    parity = tuple(tuple(1 if j == i else 0 for j in range(t)) for i in range(t))
    return LinearCode(field, t, (), parity, family="zero")


# ----------------------------------------------------------------------
# cyclotomic cosets and cyclic codes
# ----------------------------------------------------------------------

# The largest k * n of a dense systematic generator that `cyclic_code` builds
# (2^24).  Past it the code is refused before any table or matrix exists: a
# length-32767 ingredient would need about 10^9 cells of Python ints, far past
# a desk machine's memory.
DENSE_CELL_LIMIT = 1 << 24


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


def all_cyclotomic_cosets(Q: int, n: int) -> list[tuple[int, ...]]:
    seen: set[int] = set()
    cosets = []
    for i in range(n):
        if i not in seen:
            c = cyclotomic_coset(i, Q, n)
            seen.update(c)
            cosets.append(c)
    return cosets


def _multiplicative_order(Q: int, n: int) -> int:
    if gcd(Q, n) != 1:
        raise ValueError(f"gcd({n}, {Q}) must be 1 for a cyclic code")
    e, v = 1, Q % n
    while v != 1:
        v = (v * Q) % n
        e += 1
    return e


def cyclic_code(n: int, field: Field, generators) -> LinearCode:
    """Cyclic code of length n over the field with the given defining set.

    `generators` lists residues; the defining set is the union of their
    Q-cyclotomic cosets.  The primitive n-th root beta is g**((Q^l - 1)/n)
    for the designated generator g of GF(Q^l), l = ord_n(Q).
    """
    Q = field.order
    if n < 1:
        raise ValueError("length must be positive")
    ell = _multiplicative_order(Q, n)  # also validates gcd(n, Q) = 1
    T: set[int] = set()
    for g in generators:
        T.update(cyclotomic_coset(g, Q, n))
    T_sorted = tuple(sorted(T))
    r = len(T_sorted)
    k = n - r
    if k == 0:
        raise ValueError("defining set covers all residues; code is trivial {0}")
    if k * n > DENSE_CELL_LIMIT:
        raise ValueError(f"size gate: the {k} x {n} generator has k*n = {k * n} cells, "
                         f"above DENSE_CELL_LIMIT = {DENSE_CELL_LIMIT}")
    ext = field.extension(ell)
    beta = ext.pow(ext.generator, (ext.order - 1) // n)
    if ext.pow(beta, n) != 1 or (n > 1 and beta == 1):
        raise ValueError("failed to construct a primitive n-th root of unity")
    # g(x) = prod_{i in T} (x - beta^i), expanded over the extension
    gpoly = [1]
    for i in T_sorted:
        root = ext.pow(beta, i)
        shifted = [0] + gpoly
        scaled = [ext.mul(ext.neg(root), c) for c in gpoly] + [0]
        gpoly = [ext.add(a, b) for a, b in zip(shifted, scaled)]
    # project coefficients to the base field
    if ell == 1:
        gcoeffs = list(gpoly)
    else:
        gcoeffs = [_project_to(field, ext, c) for c in gpoly]
    # Systematic form [I_k | P]: row j is x^j - x^k (x^(r+j) mod g(x)), a
    # multiple of g(x) modulo x^n - 1 that is e_j on the first k positions,
    # so [I_k | P] is the unique RREF of the code and [-P^T | I_r] its
    # nullspace basis.  rems[j] holds the coefficients of x^(r+j) mod g(x).
    rem = [field.neg(c) for c in gcoeffs[:r]]
    rems = []
    for _ in range(k):
        rems.append(rem)
        top = rem[-1] if r else 0
        rem = [field.sub(rem[i - 1] if i else 0, field.mul(top, gcoeffs[i]))
               for i in range(r)]
    gen = tuple(tuple(1 if c == j else 0 for c in range(k))
                + tuple(field.neg(x) for x in rems[j]) for j in range(k))
    parity = tuple(tuple(rj[i] for rj in rems) + tuple(1 if c == i else 0 for c in range(r))
                   for i in range(r))
    code = LinearCode(field, n, gen, parity, family="cyclic")
    code.defining_set = T_sorted
    code.notes["generator_polynomial"] = gcoeffs
    return code


def _project_to(field: Field, ext: Field, value: int) -> int:
    """Map an element of a tower extension back into `field`."""
    cur = ext
    v = value
    while cur != field:
        v = cur.project(v)
        cur = cur.subfield
        if cur is None:
            raise ValueError("field is not below the extension")
    return v


# ----------------------------------------------------------------------
# standard families
# ----------------------------------------------------------------------

def hamming_code(field: Field, u: int) -> LinearCode:
    """Hamming code of redundancy u: columns are the projective points."""
    if u < 2:
        raise ValueError("redundancy must be at least 2")
    Q = field.order
    t = (Q ** u - 1) // (Q - 1)
    cols = []
    for packed in range(1, Q ** u):
        vec, v = [], packed
        for _ in range(u):
            v, r = divmod(v, Q)
            vec.append(r)
        first = next(x for x in vec if x)
        if first == 1:
            cols.append(tuple(vec))
    assert len(cols) == t
    parity = tuple(tuple(col[r] for col in cols) for r in range(u))
    gen = tuple(nullspace(field, parity, t))
    code = LinearCode(field, t, gen, parity, family="hamming", designed_distance=3)
    return code


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
    return from_generator(field, [(1,) * t], family="repetition", designed_distance=t)


def parity_check_code(field: Field, t: int) -> LinearCode:
    """Single-parity [t, t-1, 2]; cyclic with defining set {0} when gcd(t,Q)=1."""
    if t < 2:
        raise ValueError("length must be at least 2")
    # rows e_i - e_{t-1} are already in RREF; the dual is spanned by all-ones
    minus_one = field.neg(1)
    gen = tuple(tuple(1 if j == i else minus_one if j == t - 1 else 0 for j in range(t))
                for i in range(t - 1))
    return LinearCode(field, t, gen, ((1,) * t,), family="parity", designed_distance=2,
                      defining_set=(0,) if gcd(t, field.order) == 1 else None)


def full_code(field: Field, t: int) -> LinearCode:
    rows = [tuple(1 if j == i else 0 for j in range(t)) for i in range(t)]
    code = from_generator(field, rows, family="full", designed_distance=1)
    if gcd(t, field.order) == 1:
        code.defining_set = ()
    return code


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


def field_extension_of_code(code: LinearCode, target: Field) -> LinearCode:
    """Read the generator matrix over a larger field of the same tower."""
    if not target.contains_field(code.field):
        raise ValueError(f"{target!r} does not extend {code.field!r}")
    return from_generator(target, code.generator, family="extension",
                          designed_distance=code.designed_distance)


# ----------------------------------------------------------------------
# minimum distance
# ----------------------------------------------------------------------

def low_weight_search(code: LinearCode, w: int):
    """First codeword of Hamming weight exactly w (w <= 4), or None.

    Searches parity-check column dependencies (`iter_low_weight`), so it
    does not enumerate the code.
    """
    return next(iter_low_weight(code, w, cap=1), None)


def iter_low_weight(code: LinearCode, w: int, cap: int = 1 << 30):
    """Yield up to `cap` codewords of weight exactly w, for w <= 4, each once.

    Meet in the middle: a word of weight w is a codeword exactly when the
    syndromes of its low half (its first w // 2 nonzero positions) and its
    high half cancel.  The syndromes of every low half are tabulated; each
    high half whose first coefficient is 1 looks up the negation of its own
    syndrome among the low halves that end before it starts, and every
    nonzero multiple of a match is yielded.  Syndromes are packed base-p
    ints, sums of the weight-1 syndromes lam * h_j, each computed once.
    """
    if not 1 <= w <= 4:
        raise ValueError("support search handles weights 1..4 only")
    f, n, nz = code.field, code.n, code.field.nonzero_elements()
    add = functools.partial(digit_add, f.p)
    single = [[sum(f.mul(lam, row[j]) * f.order ** i for i, row in enumerate(code.parity))
               for lam in f.elements()] for j in range(n)]
    negated = [[syn[f.neg(lam)] for lam in f.elements()] for syn in single]

    def halves(size, heads, table):
        """(positions, coefficients, syndrome from `table`) of every half."""
        out = [((), (), 0)]
        for k in range(size):
            out = [(pos + (j,), cs + (c,), add(syn, table[j][c]))
                   for pos, cs, syn in out for j in range(pos[-1] + 1 if pos else 0, n)
                   for c in (heads if k == 0 else nz)]
        return out

    low: dict[int, list] = {}
    for pos, cs, syn in halves(w // 2, nz, single):
        low.setdefault(syn, []).append((pos, cs))
    emitted = 0
    for pos, cs, syn in halves(w - w // 2, (1,), negated):
        for lpos, lcs in low.get(syn, ()):
            if lpos and lpos[-1] >= pos[0]:
                continue
            for mu in nz:
                vec = [0] * n
                for j, c in zip(lpos + pos, lcs + cs):
                    vec[j] = f.mul(mu, c)
                yield tuple(vec)
                emitted += 1
                if emitted >= cap:
                    return


def _half_words(code: LinearCode, w: int) -> int:
    """Entries of the larger of the two half tables `iter_low_weight` lists at weight w."""
    n, nz, lo, hi = code.n, code.field.order - 1, w // 2, w - w // 2
    return max(comb(n, lo) * nz ** lo, comb(n, hi) * nz ** (hi - 1))


def min_distance(code: LinearCode, budget: int = ENUM_BUDGET) -> SrDistance:
    """Minimum distance by the support search, for d <= 4.

    Certifies d >= w + 1 by the absence of dependent column sets of size
    <= w and exhibits a weight witness.  When d > 4 the result is the
    interval [5, Singleton].  The search lists its half-words only while
    they fit `budget`; past it the result is the interval [w, Singleton],
    with a note naming the budget.
    """
    if code.k == 0:
        raise ValueError("the zero code has no nonzero codeword")
    for w in range(1, 5):
        need = _half_words(code, w)
        if need > budget:
            return SrDistance(w, code.n - code.k + 1, "support_test", None,
                              note=f"enum budget {budget} < {need} half-words "
                                   f"of the weight-{w} support search")
        witness = low_weight_search(code, w)
        if witness is not None:
            return SrDistance(w, w, "support_test", witness)
    return SrDistance(5, code.n - code.k + 1, "support_test", None)


# ----------------------------------------------------------------------
# covering radius
# ----------------------------------------------------------------------

def covering_radius(code: LinearCode, *, syndrome_budget: int = SYNDROME_BUDGET,
                    work_budget: int = WORK_BUDGET) -> tuple[int, SyndromeDP]:
    """Exact covering radius and the code's cached syndrome-DP pass.

    Each coordinate is a 1 x 1 block, whose rank is [a != 0]; the same pass
    holds d and its witness.  Raises BudgetExceeded, naming the budget,
    when the DP does not fit.
    """
    stop = dp_budget_stop(code.base, code.codim, code.profile.blocks,
                          syndrome_budget, work_budget)
    if stop is not None:
        raise BudgetExceeded(stop)
    dp = code.syndrome_dp
    return dp.radius, dp


# ----------------------------------------------------------------------
# designed-distance bounds for cyclic codes
# ----------------------------------------------------------------------

def bch_bound(T, n: int) -> int:
    """Largest run of consecutive residues in T, plus one."""
    Ts = set(x % n for x in T)
    if len(Ts) == n:
        return n + 1
    best = 0
    for start in Ts:
        if (start - 1) % n in Ts:
            continue
        run, cur = 1, start
        while (cur + 1) % n in Ts:
            run += 1
            cur = (cur + 1) % n
        best = max(best, run)
    return best + 1


def hartmann_tzeng_bound(T, n: int, A, B, b: int, s: int) -> int:
    """Certified bound delta + s after verifying every hypothesis."""
    Ts = set(x % n for x in T)
    A = sorted(x % n for x in A)
    delta = len(A) + 1
    for prev, cur in zip(A, A[1:]):
        if (prev + 1) % n != cur % n:
            raise ValueError(f"A = {A} is not a consecutive run modulo {n}")
    if not set(A) <= Ts:
        raise ValueError(f"A = {A} is not contained in the defining set")
    expected_B = sorted({(j * b) % n for j in range(s + 1)})
    if sorted(set(x % n for x in B)) != expected_B:
        raise ValueError(f"B = {sorted(B)} does not equal {{jb mod n : 0<=j<={s}}}")
    if gcd(b, n) >= delta:
        raise ValueError(f"gcd({b}, {n}) = {gcd(b, n)} is not below delta = {delta}")
    sums = {(a + x) % n for a in A for x in expected_B}
    if not sums <= Ts:
        raise ValueError(f"A + B has elements outside the defining set: "
                         f"{sorted(sums - Ts)}")
    return delta + s


def bch_covering_radius_interval(e: int, n: int):
    """Interval [2e-1, 2e] for the covering radius of BCH(e, n), or None.

    Applies only under the exact big-integer hypothesis 2^n >= (2e-1)^(4e+2).
    """
    if e < 1 or n < 1:
        raise ValueError("need positive e and n")
    if 2 ** n < (2 * e - 1) ** (4 * e + 2):
        return None
    return (2 * e - 1, 2 * e)


# ----------------------------------------------------------------------
# low-weight pools and the quasi-perfect [6,3,4] ingredient
# ----------------------------------------------------------------------

def low_weight_pool(code: LinearCode, wmax: int, cap: int = 512) -> list[tuple[int, ...]]:
    """Up to `cap` codewords of weight <= wmax (wmax <= 4), by support search."""
    pool: list[tuple[int, ...]] = []
    for w in range(1, min(wmax, 4) + 1):
        if len(pool) < cap:
            pool += iter_low_weight(code, w, cap=cap - len(pool))
    return pool


def search_634_ingredient(field4: Field) -> LinearCode:
    """The hexacode, a [6,3,4] code over GF(4) of covering radius 2.

    The generator is [I | A] with A = [[1, 1, 1], [1, w, w^2], [1, w^2, w]],
    w = 2.  The rows are fixed data, not searched for: the
    `quasi-perfect-2x2` gate certifies d = 4 and R = 2 on the code it receives.
    """
    if field4.order != 4:
        raise ValueError("the hexacode lives over GF(4)")
    rows = ((1, 0, 0, 1, 1, 1), (0, 1, 0, 1, 2, 3), (0, 0, 1, 1, 3, 2))
    return from_generator(field4, rows, family="explicit", designed_distance=4)
