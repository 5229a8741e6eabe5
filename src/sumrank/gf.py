"""Exact arithmetic in finite-field towers GF(p) < GF(q) < GF(q^m).

Elements of a field of order Q are plain ints in range(Q).  For an
extension of degree m over a subfield of order q, the int is read as the
little-endian base-q digit string of the coordinate vector in the power
basis {1, alpha, ..., alpha^(m-1)}, where alpha is a root of the defining
polynomial.  Nested towers flatten consistently: the same int is also the
little-endian base-p string of the coordinates over the prime field.
`digits` and `undigits` are the one scalar codec of such packed ints.

Defining polynomials may be supplied explicitly; otherwise the
lexicographically smallest monic irreducible of the required degree is
selected (candidates ordered by the packed int of their non-leading
coefficients), so field construction is deterministic.

An extension field of order at most 2^16 multiplies and inverts through one
exp/log table pair built with the field; a larger one multiplies polynomials
directly (`_mul_raw`).

The same packed ints fill numpy arrays: `array_mul` and `digit_adder`
multiply and add them elementwise, `linear_map` applies any GF(p)-linear
map of them (a product by g, a block's syndrome, a block map), and `rref` /
`nullspace` are the one Gaussian elimination the constructions and engines use:
`rref` returns its rows as one int64 array, `nullspace` its basis as row tuples.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

# exp/log tables are built for every extension field up to this order.
_LOG_LIMIT = 1 << 16
# Automatic irreducible-polynomial search is offered up to this order.
_AUTO_POLY_LIMIT = 1 << 20
_CHUNK_BYTES = 1 << 20  # live bytes of one chunk of words, block values or ambient words
# Miller-Rabin on the first thirteen primes decides primality below the limit (Sorenson and
# Webster, psi_13; the first twelve decide only below 3.18e23).
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_WITNESS_LIMIT = 3317044064679887385961981


class UsageError(ValueError):
    """A value, input file or size limit refused: the caller's to change (CLI exit 4)."""


def _prime_factors(n: int) -> list[int]:
    """The distinct primes dividing n, ascending: [n] exactly when n is prime, [] for n < 2."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


def is_prime(n: int) -> bool:
    """Whether n is prime, by Miller-Rabin on `_WITNESSES`, which decides every n below
    `_WITNESS_LIMIT` (3.3e24).  Past it base 2 alone runs, one modular power: a failure
    proves n composite, and a pass leaves n undecided, a UsageError."""
    if n < 2 or any(n % a == 0 for a in _WITNESSES):
        return n in _WITNESSES
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d 2^s with d odd
    for a in _WITNESSES if n < _WITNESS_LIMIT else _WITNESSES[:1]:
        x = pow(a, (n - 1) >> s, n)
        if x == 1:
            continue
        for _ in range(s):
            if x == n - 1:
                break
            x = x * x % n
        else:
            return False
    if n >= _WITNESS_LIMIT:
        raise UsageError(f"whether {n} is prime is not decided past {_WITNESS_LIMIT}")
    return True


def _root(n: int, e: int) -> int:
    """floor(n^(1/e)) for n >= 1, by integer Newton steps down from a start at or above it: a
    float estimate while the root is below 2^1000, else 2^ceil(bits/e), within twice it."""
    bits = n.bit_length()
    r = int(math.exp(math.log(n) / e) * (1 + 1e-9)) + 1 if bits < 1000 * e else 1 << -(-bits // e)
    while (s := ((e - 1) * r + n // r ** (e - 1)) // e) < r:
        r = s
    return r


def prime_power(q: int) -> tuple[int, int]:
    """(p, e) with q = p^e; any other q is a UsageError.  Trial division finds a prime factor
    p below 2^10.  Without one, every r with q = r^e exceeds 2^10, so e < bits/10; at the
    largest such e, q is a prime power exactly when r is prime, which `is_prime` decides."""
    if q < 2:
        raise UsageError("field order must be at least 2")
    p = next((d for d in range(2, 1 << 10) if q % d == 0), None)
    if p is None:
        e = next(e for e in range(q.bit_length() // 10, 0, -1) if _root(q, e) ** e == q)
        p = _root(q, e)
    else:
        e = round(math.log(q, p))
    if p ** e != q or not is_prime(p):
        raise UsageError(f"{q} is not a prime power")
    return p, e


def int_text(value: int) -> str:
    """An int in full decimal past CPython's int->str cap, which `str` obeys: how sumrank prints
    an integer that can be that long and is not a power of q.  Decimal loads when called."""
    from decimal import Decimal
    return str(Decimal(value))


def digits(value: int, base: int, count: int) -> list[int]:
    """The `count` little-endian base-`base` digits of value: the one scalar
    expansion of a packed int (a field element, a block, a polynomial)."""
    out = []
    for _ in range(count):
        value, r = divmod(value, base)
        out.append(r)
    return out


def undigits(digs, base: int) -> int:
    """The int whose little-endian base-`base` digits are digs; inverts `digits`."""
    v = 0
    for d in reversed(digs):
        v = v * base + d
    return v


def digit_add(p: int, a: int, b: int) -> int:
    """Digit-wise sum mod p of two packed base-p ints: XOR for p = 2.

    This is addition in every field of characteristic p, and in any vector
    of GF(q) cells packed into one int, since both pack base-p digits.
    """
    if p == 2:
        return a ^ b
    v, pw = 0, 1
    while a or b:
        v += (a % p + b % p) % p * pw
        a //= p
        b //= p
        pw *= p
    return v


class Field:
    """A finite field, either GF(p) or an extension of another Field.

    Do not instantiate directly; use :func:`make_field` or
    :meth:`Field.extension` so that construction-time validation and
    caching apply.  Each field is built once, a prime field by `_prime_field`
    and an extension by its parent's per-(degree, modulus) cache, so two equal
    fields are the same object and a field's identity is its equality.
    """

    def __init__(self, p: int, subfield: Field | None = None,
                 degree: int = 1, modulus: tuple[int, ...] | None = None):
        self.p = p
        self.subfield = subfield
        self.degree = degree
        if subfield is None:
            self.order = p
            self.modulus = None
            self.dim_over_prime = 1
        else:
            self.order = subfield.order ** degree
            self.modulus = modulus
            self.dim_over_prime = subfield.dim_over_prime * degree
        self._ext_cache: dict[tuple, Field] = {}
        self._generator: int | None = None
        self._exp: list[int] | None = None
        self._log: list[int] | None = None
        self._np_tables: dict[str, np.ndarray] = {}
        if subfield is not None and self.order <= _LOG_LIMIT:
            self._build_log_tables()

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------

    @property
    def is_prime_field(self) -> bool:
        return self.subfield is None

    @property
    def has_log_tables(self) -> bool:
        return self._exp is not None

    def __repr__(self) -> str:
        return f"GF({self.order})"

    def describe(self) -> dict:
        """Serializable description: characteristic, degrees, moduli."""
        degs, mods = [], []
        f = self
        while f.subfield is not None:
            degs.append(f.degree)
            mods.append(list(f.modulus))
            f = f.subfield
        return {
            "characteristic": self.p,
            "degrees": list(reversed(degs)) or [1],
            "moduli": list(reversed(mods)),
        }

    def elements(self) -> range:
        return range(self.order)

    def nonzero_elements(self) -> range:
        return range(1, self.order)

    def check(self, a: int) -> int:
        if not isinstance(a, (int, np.integer)) or not 0 <= a < self.order:
            raise ValueError(f"{a!r} is not an element of {self!r}")
        return int(a)

    # ------------------------------------------------------------------
    # element arithmetic on ints
    # ------------------------------------------------------------------

    def digits(self, a: int) -> list[int]:
        """Little-endian coordinates of a over the immediate subfield."""
        if self.subfield is None:
            return [a]
        return digits(a, self.subfield.order, self.degree)

    def add(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        if self.subfield is None:
            return (a + b) % self.p
        return digit_add(self.p, a, b)

    def neg(self, a: int) -> int:
        return self.mul(self.p - 1, a)  # p - 1 packs -1 of the prime field

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def _mul_raw(self, a: int, b: int) -> int:
        """Polynomial multiply-and-reduce over the subfield (extension fields only); no tables."""
        sub = self.subfield
        da, db = self.digits(a), self.digits(b)
        prod = [0] * (2 * self.degree - 1)
        for i, x in enumerate(da):
            if x == 0:
                continue
            for j, y in enumerate(db):
                if y:
                    prod[i + j] = sub.add(prod[i + j], sub.mul(x, y))
        return undigits(poly_mod(sub, prod, [*self.modulus, 1]), sub.order)

    def mul(self, a: int, b: int) -> int:
        if self._exp is not None:
            return self._exp[self._log[a] + self._log[b]]
        if self.subfield is None:
            return (a * b) % self.p
        return self._mul_raw(a, b)

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            return self.pow(self.inv(a), -e)
        if a == 0:
            return 0 if e else 1
        e %= self.order - 1
        result, base = 1, a
        while e:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
        return result

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError(f"zero has no inverse in {self!r}")
        if self.subfield is None:
            return pow(a, self.p - 2, self.p)
        if self._exp is not None:
            return self._exp[self.order - 1 - self._log[a]]
        return self.pow(a, self.order - 2)

    def frobenius(self, a: int, e: int = 1) -> int:
        """a ** (q ** e) where q is the order of the immediate subfield."""
        q = self.subfield.order if self.subfield is not None else self.p
        return self.pow(a, pow(q, e, self.order - 1) if self.order > 2 else 1)

    # ------------------------------------------------------------------
    # generator / tables
    # ------------------------------------------------------------------

    @property
    def generator(self) -> int:
        """Smallest element (by int value) of multiplicative order Q-1."""
        if self._generator is None:
            n = self.order - 1
            primes = _prime_factors(n)
            for g in range(1, self.order):
                if all(self.pow(g, n // pr) != 1 for pr in primes):
                    self._generator = g
                    break
            else:  # order 2
                self._generator = 1
        return self._generator

    def _build_log_tables(self) -> None:
        """exp[i] = g^i for i < 2(Q-1) and 0 beyond; log[0] = 2(Q-1).

        So mul indexes exp[log a + log b] with no modulo and no zero test.
        The generator search runs before the tables exist, so its products
        come from _mul_raw.  The powers double: given g^0 .. g^(k-1) and the
        images of the base-p unit digits under v -> v g^k, `linear_map`
        gives g^k .. g^(2k-1) as the images of those powers, and the unit
        images of v -> v g^(2k) as the images of its own.  log is exp's
        inverse permutation.
        """
        g, n, p, width = self.generator, self.order - 1, self.p, self.dim_over_prime
        exp = np.ones(1, dtype=np.int64)
        times = np.array([self._mul_raw(g, p ** i) for i in range(width)])  # v -> v g^len(exp)
        while len(exp) < n:
            exp = np.append(exp, linear_map(p, times, width, exp[:n - len(exp)]))
            times = linear_map(p, times, width, times)
        log = np.full(self.order, 2 * n, dtype=np.int64)
        log[exp] = np.arange(n)
        self._exp, self._log = exp.tolist() * 2 + [0] * (2 * n + 1), log.tolist()

    def np_table(self, kind: str) -> np.ndarray:
        """Vectorizable op tables: 'add'/'mul' are QxQ, and
        'exp'/'log' are the exp/log pair of a field that has one."""
        if kind not in self._np_tables:
            a = np.arange(self.order, dtype=np.int64)
            if kind == "add":
                t = digit_adder(self.p, self.dim_over_prime)(a[:, None], a[None, :])
            elif kind == "mul":
                t = array_mul(self)(a[:, None], a[None, :])
            elif kind in ("exp", "log") and self.has_log_tables:
                t = np.array(self._exp if kind == "exp" else self._log, dtype=np.int64)
            else:
                raise ValueError(f"unknown table kind {kind!r}")
            self._np_tables[kind] = t
        return self._np_tables[kind]

    # ------------------------------------------------------------------
    # coordinates over the immediate subfield
    # ------------------------------------------------------------------

    def power_basis(self) -> tuple[int, ...]:
        if self.subfield is None:
            return (1,)
        q = self.subfield.order
        return tuple(q ** i for i in range(self.degree))

    def coords(self, a: int) -> tuple[int, ...]:
        """Coordinates of a over the immediate subfield in the power basis:
        the base-q digits of the int encoding."""
        return tuple(self.digits(self.check(a)))

    def project(self, a: int) -> int:
        """a as an element of the immediate subfield, whose elements keep their int
        encoding in the extension; error if a is not in the subfield."""
        digs = self.digits(a)
        if any(digs[1:]):
            raise ValueError(f"{a} of {self!r} does not lie in the subfield")
        return digs[0]

    # ------------------------------------------------------------------
    # extensions
    # ------------------------------------------------------------------

    def extension(self, degree: int, modulus: tuple[int, ...] | None = None) -> Field:
        """Degree-`degree` extension of this field (degree 1 returns self)."""
        if degree < 1:
            raise UsageError("extension degree must be positive")
        if degree == 1:
            return self
        if modulus is None:
            if self.order ** degree > _AUTO_POLY_LIMIT:
                raise UsageError(
                    f"order {int_text(self.order ** degree)} exceeds the built-in polynomial "
                    "table; supply an explicit irreducible modulus")
            modulus = smallest_irreducible(self, degree)
        modulus = tuple(self.check(c) for c in modulus)
        if len(modulus) != degree:
            raise ValueError(
                "modulus must list the degree-many non-leading coefficients "
                "(little-endian) of a monic polynomial")
        key = (degree, modulus)
        if key not in self._ext_cache:
            if not is_irreducible(self, modulus):
                poly = list(modulus) + [1]
                raise ValueError(f"polynomial {poly} is reducible over {self!r}")
            self._ext_cache[key] = Field(self.p, self, degree, modulus)
        return self._ext_cache[key]


# ----------------------------------------------------------------------
# polynomials over a Field (little-endian coefficient lists)
# ----------------------------------------------------------------------

def poly_mod(field: Field, a, b) -> list[int]:
    """The remainder of a modulo b, little-endian coefficient lists ([0] for none)."""
    a, b = list(a), list(b)
    while b and b[-1] == 0:
        b.pop()
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    db, inv_lead = len(b) - 1, field.inv(b[-1])
    for k in range(len(a) - 1, db - 1, -1):
        if a[k]:
            f = field.mul(a[k], inv_lead)
            for j in range(db + 1):
                a[k - db + j] = field.sub(a[k - db + j], field.mul(f, b[j]))
    return a[:db] or [0]


def is_irreducible(field: Field, modulus: tuple[int, ...]) -> bool:
    """Exhaustive check that x^d + modulus(x) is irreducible over field.

    Trial division by every monic polynomial of degree 1..d//2 (desk scale
    only); a degree-1 divisor x - c is a root c.
    """
    d = len(modulus)
    poly = list(modulus) + [1]
    if d == 0:
        return False
    q = field.order
    for deg in range(1, d // 2 + 1):
        for packed in range(q ** deg):
            if not any(poly_mod(field, poly, digits(packed, q, deg) + [1])):
                return False
    return True


def smallest_irreducible(field: Field, degree: int) -> tuple[int, ...]:
    """Non-leading coefficients of the first monic irreducible of `degree`.

    Candidates are ordered by the packed little-endian int of their
    coefficient vector, so the choice is deterministic.
    """
    q = field.order
    for packed in range(q ** degree):
        coeffs = tuple(digits(packed, q, degree))
        if is_irreducible(field, coeffs):
            return coeffs
    raise RuntimeError(f"no irreducible of degree {degree} over {field!r}")


# ----------------------------------------------------------------------
# construction entry points
# ----------------------------------------------------------------------

@lru_cache(maxsize=None)
def _prime_field(p: int) -> Field:
    return Field(p)


def make_field(p: int, tower_degrees, polynomials=None) -> Field:
    """Build GF(p) then successive extensions of the given degrees.

    polynomials, when given, lists for each extension step the non-leading
    coefficients (little-endian ints over the subfield) of a monic
    irreducible; omitted steps use the deterministic built-in choice.
    """
    if not is_prime(p):
        raise ValueError(f"characteristic {p} is not prime")
    degrees = list(tower_degrees)
    if not degrees or any(d < 1 for d in degrees):
        raise ValueError("tower degrees must be positive integers")
    if polynomials is not None and len(polynomials) != len(degrees):
        raise ValueError("one polynomial (or None) per tower degree expected")
    field = _prime_field(p)
    for i, d in enumerate(degrees):
        modulus = None
        if polynomials is not None and polynomials[i] is not None:
            modulus = tuple(polynomials[i])
        field = field.extension(d, modulus)
    return field


def parse_field(desc: dict) -> Field:
    mods = desc.get("moduli") or None
    degrees = [d for d in desc["degrees"] if d > 1] or [1]
    if mods is not None:
        mods = [tuple(m) for m in mods]
        if len(mods) != len(degrees):
            raise ValueError(f"field description lists {len(mods)} moduli "
                             f"for {len(degrees)} extension degrees {degrees}")
    return make_field(desc["characteristic"], degrees, mods)


# ----------------------------------------------------------------------
# numpy arrays of packed elements: products, sums, elimination
# ----------------------------------------------------------------------

def digit_adder(p: int, digits: int):
    """Digit-wise addition mod p of packed value arrays: XOR for p = 2."""
    if p == 2:
        return np.bitwise_xor
    if digits == 1:
        return lambda a, b: (a + b) % p
    powers = [p ** i for i in range(digits)]

    def add(a, b):
        out = np.zeros(np.broadcast_shapes(a.shape, b.shape), dtype=a.dtype)
        for pw in powers:
            out += (a // pw % p + b // pw % p) % p * pw
        return out

    return add


def place_values(base: int, count: int) -> np.ndarray:
    """base^0 .. base^(count - 1): int64 while base^count <= 2^63, so no packed
    value wraps, else Python ints in an object array.  Packed arrays take this dtype."""
    dtype = np.int64 if base ** count <= 1 << 63 else object
    return np.array([base ** j for j in range(count)], dtype=dtype)


def array_digits(values, base: int, count: int) -> np.ndarray:
    """The array twin of `digits`: D[..., j] = values // base^j % base, j < count, over
    `place_values`, so int64 values keep int64 while base^count fits it."""
    return np.asarray(values)[..., None] // place_values(base, count) % base


def linear_map(p: int, images, width: int, values) -> np.ndarray:
    """The GF(p)-linear map of packed base-p values with unit images `images`, at `values`.

    `images[i]` is the packed image, of `width` base-p digits, of the unit
    digit p^i; `values` is a range or an int64 array of packed inputs of
    len(images) digits.  One integer matrix product per chunk of values
    applies the map, each chunk's int64 digits and products within
    `_CHUNK_BYTES`, so a range is never held whole.  The images take the
    dtype of `place_values(p, width)`.
    """
    units = np.array([digits(x, p, width) for x in images],
                     dtype=np.int64).reshape(len(images), width)
    out_powers = place_values(p, width)
    out = np.empty(len(values), dtype=out_powers.dtype)
    step = max(1, _CHUNK_BYTES // (8 * (2 + len(images) + 2 * width)))
    for lo in range(0, len(values), step):
        chunk = values[lo:lo + step]
        if isinstance(chunk, range):
            chunk = np.arange(chunk.start, chunk.stop, dtype=np.int64)
        out[lo:lo + len(chunk)] = array_digits(chunk, p, len(images)) @ units % p @ out_powers
    return out


def array_mul(field: Field):
    """Elementwise product of int64 arrays of field elements, as an int64 array.

    A prime field below 2^31 multiplies mod p, whose products fit int64; a
    log-table field adds logs in its int64 exp/log tables; a larger field
    calls `Field.mul` on each pair.
    """
    if field.is_prime_field and field.p < 1 << 31:
        p = field.p
        return lambda a, b: a * b % p
    if field.has_log_tables:
        exp, log = field.np_table("exp"), field.np_table("log")
        return lambda a, b: exp[log[a] + log[b]]
    mul = np.frompyfunc(field.mul, 2, 1)
    return lambda a, b: mul(a, b).astype(np.int64)


def rref(field: Field, rows):
    """Reduced row echelon form: (nonzero rows as one 2-D int64 array, pivot cols).

    One numpy elimination in int64: for each column the first nonzero row at
    or below the current one is swapped up and scaled to a leading 1, and
    every other row nonzero in that column is cleared in one update,
    row_i + (-f_i) * pivot_row, on the columns from the pivot on (the pivot
    row is zero before it).  Products come from `array_mul`; sums are
    digit-wise mod p on the packed base-p values.  `rows`
    may be any 2-D sequence, an ndarray included; it is copied, not changed.
    """
    mat = np.array(rows, dtype=np.int64, ndmin=2)
    mul, add = array_mul(field), digit_adder(field.p, field.dim_over_prime)
    minus_one = field.p - 1  # -1 of the prime field, as a packed element
    pivots = []
    r = 0
    for c in range(mat.shape[1]):
        if r == len(mat):
            break
        below = mat[r:, c].nonzero()[0]
        if not len(below):
            continue
        piv = r + int(below[0])
        if piv != r:
            mat[[r, piv]] = mat[[piv, r]]
        row = mul(mat[r, c:], field.inv(int(mat[r, c])))
        mat[r, c:] = row
        others = mat[:, c].nonzero()[0]
        others = others[others != r]
        if len(others):
            f = mul(mat[others, c], minus_one)
            mat[others, c:] = add(mat[others, c:], mul(f[:, None], row[None, :]))
        pivots.append(c)
        r += 1
    return mat[:r], pivots


def nullspace(field: Field, rows, ncols: int, *, pivots=None):
    """Basis of {h : row . h = 0 for every row}, one vector per free column.

    With red the RREF of rows: H[:, free] = I and H[:, pivots] = -red[:, free]^T.
    Given `pivots`, `rows` are red as they stand: row j is e_j at column pivots[j].
    The basis is row tuples, the form a descriptor serializes.
    """
    red, pivots = (rows, pivots) if pivots is not None else rref(field, rows)
    red = np.asarray(red, dtype=np.int64).reshape(len(red), ncols)
    is_free = np.ones(ncols, dtype=bool)
    is_free[pivots] = False
    free = np.flatnonzero(is_free)
    basis = []
    for f, column in zip(free.tolist(), array_mul(field)(red[:, free].T, field.p - 1).tolist()):
        row = [0] * ncols
        row[f] = 1
        for c, x in zip(pivots, column):
            row[c] = x
        basis.append(tuple(row))
    return basis
