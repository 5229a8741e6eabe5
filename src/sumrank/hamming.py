"""Hamming-metric linear codes over extension fields.

Covers the ingredient-code machinery: cyclic codes from cyclotomic
cosets, standard families (Hamming, Reed-Solomon, BCH, trivial codes),
exact minimum distance by enumeration or support testing, and exact
covering radius by the syndrome-space DP of `sumrank.syndrome`.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field as dc_field
from math import gcd

import numpy as np

from .gf import Field, digit_add
from .syndrome import (ENUM_BUDGET, SYNDROME_BUDGET, WORK_BUDGET, BudgetExceeded,
                       CosetLeaderTable, digit_adder, dp_budget_stop,
                       least_weight_word, syndrome_dp)


# ----------------------------------------------------------------------
# generic linear algebra over a field
# ----------------------------------------------------------------------

def array_mul(field: Field, dtype=np.int64):
    """Elementwise product of `dtype` arrays of field elements.

    The products a * b of a prime field and the log sums of a log-table
    field are formed in `dtype` too, so it must hold them.
    """
    if field.is_prime_field and field.p < 1 << 31:
        p = field.p
        return lambda a, b: a * b % p
    if field.has_log_tables:
        exp, log = (field.np_table(kind).astype(dtype) for kind in ("exp", "log"))
        return lambda a, b: exp[log[a] + log[b]]
    mul = np.frompyfunc(field.mul, 2, 1)
    return lambda a, b: mul(a, b).astype(dtype)


INT16_ORDER = 181  # largest order whose products, log and digit sums fit int16


def rref(field: Field, rows):
    """Reduced row echelon form; returns (rows-without-zeros, pivot cols).

    One numpy elimination: for each column the first nonzero row at or
    below the current one is swapped up and scaled to a leading 1, and
    every other row nonzero in that column is cleared in one update,
    row_i + (-f_i) * pivot_row, on the columns from the pivot on (the pivot
    row is zero before it).  Products come from `array_mul`; sums are
    digit-wise mod p on the packed base-p values.  Fields of order at most
    `INT16_ORDER` are eliminated in int16, larger ones in int64.
    """
    dtype = np.int16 if field.order <= INT16_ORDER else np.int64
    mat = np.array(rows, dtype=dtype)
    if not len(mat):
        return [], []
    mul, add = array_mul(field, dtype), digit_adder(field.p, field.dim_over_prime)
    minus_one = field.p - 1  # -1 of the prime field, as a packed element
    pivots = []
    r = 0
    for c in range(mat.shape[1]):
        below = np.flatnonzero(mat[r:, c])
        if not len(below):
            continue
        piv = r + int(below[0])
        if piv != r:
            mat[[r, piv]] = mat[[piv, r]]
        row = mul(mat[r, c:], field.inv(int(mat[r, c])))
        mat[r, c:] = row
        others = np.flatnonzero(mat[:, c])
        others = others[others != r]
        if len(others):
            f = mul(mat[others, c], minus_one)
            mat[others, c:] = add(mat[others, c:], mul(f[:, None], row[None, :]))
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return [tuple(row) for row in mat[:r].tolist()], pivots


def nullspace(field: Field, rows, ncols: int, *, reduced: bool = False):
    """Basis of {h : row . h = 0 for every row}, one vector per free column.

    With red the RREF of rows: H[:, free] = I and H[:, pivots] = -red[:, free]^T.
    With `reduced`, `rows` are already that RREF and are not eliminated again.
    """
    red, pivots = (rows, None) if reduced else rref(field, rows)
    red = np.array(red, dtype=np.int64).reshape(len(red), ncols)
    if reduced:
        pivots = (red != 0).argmax(axis=1).tolist()
    is_free = np.ones(ncols, dtype=bool)
    is_free[pivots] = False
    free = np.flatnonzero(is_free)
    basis = np.zeros((len(free), ncols), dtype=np.int64)
    basis[np.arange(len(free)), free] = 1
    if len(red):
        basis[:, pivots] = array_mul(field)(red[:, free].T, field.p - 1)
    return [tuple(row) for row in basis.tolist()]


@dataclass
class LinearCode:
    """An [n, k] linear code over an extension field.

    G rows are a basis; H rows span the dual.  Cyclic metadata is attached
    when the code was built from a defining set.
    """

    field: Field
    n: int
    generator: tuple[tuple[int, ...], ...]
    parity: tuple[tuple[int, ...], ...]
    family: str = "explicit"
    designed_distance: int | None = None
    defining_set: tuple[int, ...] | None = None
    beta_extension_degree: int | None = None
    beta: int | None = None
    notes: dict = dc_field(default_factory=dict)
    _codeword_cache: list | None = None

    @property
    def k(self) -> int:
        return len(self.generator)

    @property
    def codim(self) -> int:
        return self.n - self.k

    @property
    def size(self) -> int:
        return self.field.order ** self.k

    def __repr__(self) -> str:
        d = self.designed_distance
        tail = f",{d}" if d is not None else ""
        return f"[{self.n},{self.k}{tail}]_{self.field.order}"

    def syndrome(self, vec) -> tuple[int, ...]:
        f = self.field
        out = []
        for row in self.parity:
            acc = 0
            for h, v in zip(row, vec):
                if v and h:
                    acc = f.add(acc, f.mul(h, v))
            out.append(acc)
        return tuple(out)

    def contains(self, vec) -> bool:
        return not any(self.syndrome(vec))

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
            "defining_set": list(self.defining_set) if self.defining_set else None,
            "generator": [list(r) for r in self.generator],
        }

    def export_matrices(self) -> dict:
        """Generator and parity-check matrices as plain integer lists."""
        return {"generator": [list(r) for r in self.generator],
                "parity_check": [list(r) for r in self.parity]}


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


def hamming_weight(vec) -> int:
    return sum(1 for v in vec if v)


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
    code.beta_extension_degree = ell
    code.beta = beta
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
    ext = from_generator(target, code.generator, family="extension",
                         designed_distance=code.designed_distance)
    ext.notes["base_field_order"] = code.field.order
    return ext


# ----------------------------------------------------------------------
# minimum distance
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class DistanceResult:
    lo: int
    hi: int
    method: str
    witness: tuple[int, ...] | None = None

    @property
    def exact(self) -> bool:
        return self.lo == self.hi

    @property
    def value(self) -> int:
        if not self.exact:
            raise ValueError(f"distance only known to lie in [{self.lo}, {self.hi}]")
        return self.lo


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


def _symbol_blocks(code: LinearCode) -> list:
    """Each coordinate as a one-symbol block of weight [a != 0]."""
    weight = (np.arange(code.field.order) != 0).astype(np.int8)
    return [(1, weight)] * code.n


def min_distance(code: LinearCode, method: str = "auto",
                 budget: int = ENUM_BUDGET) -> DistanceResult:
    """Exact minimum distance with a proof tag.

    'enumerate' weighs every codeword with `syndrome.least_weight_word`
    (requires Q^k <= budget) and returns the first of least weight in
    `codewords` order;
    'support' certifies d >= w+1 by the absence of dependent column sets
    of size <= w and exhibits a weight witness, for d <= 4.  When neither
    settles the value, an interval [5, Singleton] is returned.
    """
    if code.k == 0:
        raise ValueError("the zero code has no nonzero codeword")
    if method == "auto":
        method = "enumerate" if code.size <= min(budget, 1 << 16) else "support"
    if method == "enumerate":
        if code.size > budget:
            raise BudgetExceeded(f"{code.size} codewords exceed budget {budget}")
        best, witness = least_weight_word(code.field, code.generator, _symbol_blocks(code))
        return DistanceResult(best, best, "enumerate", witness)
    if method == "support":
        for w in range(1, 5):
            witness = low_weight_search(code, w)
            if witness is not None:
                return DistanceResult(w, w, "support_test", witness)
        return DistanceResult(5, code.n - code.k + 1, "support_test", None)
    raise ValueError(f"unknown method {method!r}")


# ----------------------------------------------------------------------
# covering radius
# ----------------------------------------------------------------------

def covering_radius(code: LinearCode, *, syndrome_budget: int = SYNDROME_BUDGET,
                    work_budget: int = WORK_BUDGET) -> tuple[int, CosetLeaderTable]:
    """Exact covering radius and coset-leader table from the syndrome DP.

    Each coordinate is a 1 x 1 block, whose rank is [a != 0].  Raises
    BudgetExceeded, naming the budget, when the DP does not fit.
    """
    shapes = [(1, 1)] * code.n
    stop = dp_budget_stop(code.field, code.codim, shapes, syndrome_budget, work_budget)
    if stop is not None:
        raise BudgetExceeded(stop)
    dp = syndrome_dp(code.field, code.parity, shapes, witness=False)
    return dp.radius, dp.table("hamming")


def covering_radius_sweep(code: LinearCode, budget: int = 1 << 20) -> int:
    """Independent oracle: full ambient max-min distance sweep."""
    f = code.field
    total = f.order ** code.n
    if total > budget:
        raise BudgetExceeded(f"ambient of {total} words exceeds budget {budget}")
    words = code.codeword_list()
    worst = 0
    for vec in itertools.product(f.elements(), repeat=code.n):
        best = min(sum(1 for a, b in zip(vec, cw) if a != b) for cw in words)
        worst = max(worst, best)
    return worst


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
# low-weight pools and the quasi-perfect [6,3,4] ingredient search
# ----------------------------------------------------------------------

def low_weight_pool(code: LinearCode, wmax: int, cap: int = 512) -> list[tuple[int, ...]]:
    """Up to `cap` codewords of weight <= wmax (wmax <= 4), by support search."""
    if code.size <= 1 << 14:
        out = [cw for cw in code.codeword_list()
               if 0 < hamming_weight(cw) <= wmax]
        out.sort(key=lambda v: (hamming_weight(v), v))
        return out[:cap]
    pool: list[tuple[int, ...]] = []
    for w in range(1, min(wmax, 4) + 1):
        for cw in iter_low_weight(code, w, cap=cap - len(pool)):
            pool.append(cw)
            if len(pool) >= cap:
                return pool
    return pool


def search_634_ingredient(field4: Field) -> LinearCode:
    """Deterministic search for a [6,3,4] code over GF(4) of covering radius 2.

    Scans generator matrices [I | A] with A Hermitian-unitary and entrywise
    nonzero (the self-dual shape), verifying d = 4 by enumeration and the
    covering radius by the syndrome DP; widens to all entrywise-nonzero A
    if needed.
    """
    if field4.order != 4:
        raise ValueError("the search runs over GF(4)")
    f = field4

    def candidates():
        nz = (1, 2, 3)
        for entries in itertools.product(nz, repeat=9):
            A = [entries[0:3], entries[3:6], entries[6:9]]
            ok = True
            for i in range(3):
                for j in range(3):
                    acc = 0
                    for l in range(3):
                        acc = f.add(acc, f.mul(A[i][l], f.mul(A[j][l], A[j][l])))
                    if acc != (1 if i == j else 0):
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                yield A
        for entries in itertools.product(nz, repeat=9):
            yield [entries[0:3], entries[3:6], entries[6:9]]

    seen = set()
    for A in candidates():
        key = tuple(map(tuple, A))
        if key in seen:
            continue
        seen.add(key)
        rows = [tuple((1 if j == i else 0) for j in range(3)) + tuple(A[i])
                for i in range(3)]
        code = from_generator(f, rows, family="explicit")
        dres = min_distance(code, "enumerate")
        if dres.value != 4:
            continue
        radius, _ = covering_radius(code)
        if radius == 2:
            code.designed_distance = 4
            code.notes["covering_radius"] = 2
            return code
    raise RuntimeError("no [6,3,4]_4 code of covering radius 2 found")
