"""Exact arithmetic in finite-field towers GF(p) < GF(q) < GF(q^m).

Elements of a field of order Q are plain ints in range(Q).  For an
extension of degree m over a subfield of order q, the int is read as the
little-endian base-q digit string of the coordinate vector in the power
basis {1, alpha, ..., alpha^(m-1)}, where alpha is a root of the defining
polynomial.  Nested towers flatten consistently: the same int is also the
little-endian base-p string of the coordinates over the prime field.

Defining polynomials may be supplied explicitly; otherwise the
lexicographically smallest monic irreducible of the required degree is
selected (candidates ordered by the packed int of their non-leading
coefficients), so field construction is deterministic.

An extension field of order at most 2^16 multiplies and inverts through one
exp/log table pair built with the field; a larger one multiplies polynomials
directly (`_mul_raw`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

# exp/log tables are built for every extension field up to this order.
_LOG_LIMIT = 1 << 16
# Automatic irreducible-polynomial search is offered up to this order.
_AUTO_POLY_LIMIT = 1 << 20


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def _prime_factors(n: int) -> list[int]:
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
    caching apply.
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
        self._basis_cache: dict[tuple[int, ...], list[list[int]]] = {}
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

    def cache_key(self) -> tuple:
        if self.subfield is None:
            return (self.p,)
        return self.subfield.cache_key() + (self.degree, self.modulus)

    def __eq__(self, other) -> bool:
        return isinstance(other, Field) and self.cache_key() == other.cache_key()

    def __hash__(self) -> int:
        return hash(self.cache_key())

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

    def contains_field(self, other: Field) -> bool:
        f = self
        while f is not None:
            if f == other:
                return True
            f = f.subfield
        return False

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
        q = self.subfield.order
        out = []
        for _ in range(self.degree):
            a, r = divmod(a, q)
            out.append(r)
        return out

    def from_digits(self, digs) -> int:
        if self.subfield is None:
            return digs[0] % self.p
        q = self.subfield.order
        v = 0
        for d in reversed(list(digs)):
            v = v * q + d
        return v

    def add(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        if self.subfield is None:
            return (a + b) % self.p
        return digit_add(self.p, a, b)

    def neg(self, a: int) -> int:
        if self.p == 2:
            return a
        if self.subfield is None:
            return (-a) % self.p
        p = self.p
        v, pw = 0, 1
        while a:
            v += (-a) % p * pw
            a //= p
            pw *= p
        return v

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def _mul_raw(self, a: int, b: int) -> int:
        """Polynomial multiply-and-reduce; no tables."""
        if self.subfield is None:
            return (a * b) % self.p
        sub = self.subfield
        da, db = self.digits(a), self.digits(b)
        prod = [0] * (2 * self.degree - 1)
        for i, x in enumerate(da):
            if x == 0:
                continue
            for j, y in enumerate(db):
                if y:
                    prod[i + j] = sub.add(prod[i + j], sub.mul(x, y))
        # reduce by the monic modulus
        mod = self.modulus
        for k in range(len(prod) - 1, self.degree - 1, -1):
            c = prod[k]
            if c == 0:
                continue
            prod[k] = 0
            for j in range(self.degree):
                prod[k - self.degree + j] = sub.sub(
                    prod[k - self.degree + j], sub.mul(c, mod[j]))
        return self.from_digits(prod[:self.degree])

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

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

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
        come from _mul_raw.
        """
        g = self.generator
        n = self.order - 1
        exp = [1] * (2 * n) + [0] * (2 * n + 1)
        log = [2 * n] * self.order
        v = 1
        for i in range(n):
            exp[i] = exp[i + n] = v
            log[v] = i
            v = self._mul_raw(v, g)
        self._exp, self._log = exp, log

    def np_table(self, kind: str) -> np.ndarray:
        """Vectorizable op tables: 'add'/'mul' are QxQ, 'neg' is Q, and
        'exp'/'log' are the exp/log pair of a field that has one."""
        if kind not in self._np_tables:
            q = self.order
            if kind == "add":
                t = np.fromiter((self.add(a, b) for a in range(q) for b in range(q)),
                                dtype=np.int64, count=q * q).reshape(q, q)
            elif kind == "mul":
                t = np.fromiter((self.mul(a, b) for a in range(q) for b in range(q)),
                                dtype=np.int64, count=q * q).reshape(q, q)
            elif kind == "neg":
                t = np.fromiter((self.neg(a) for a in range(q)), dtype=np.int64, count=q)
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

    def _basis_solver(self, basis: tuple[int, ...]) -> list[list[int]]:
        """Inverse of the basis matrix over the subfield (cached)."""
        if basis in self._basis_cache:
            return self._basis_cache[basis]
        sub = self.subfield
        m = self.degree
        if len(basis) != m:
            raise ValueError("basis must have one element per extension degree")
        rows = [self.digits(self.check(b)) for b in basis]
        # invert the m x m matrix over the subfield by Gauss-Jordan
        aug = [rows[i] + [1 if j == i else 0 for j in range(m)] for i in range(m)]
        r = 0
        for c in range(m):
            piv = next((i for i in range(r, m) if aug[i][c] != 0), None)
            if piv is None:
                continue
            aug[r], aug[piv] = aug[piv], aug[r]
            inv = sub.inv(aug[r][c])
            aug[r] = [sub.mul(inv, x) for x in aug[r]]
            for i in range(m):
                if i != r and aug[i][c] != 0:
                    f = aug[i][c]
                    aug[i] = [sub.sub(aug[i][j], sub.mul(f, aug[r][j]))
                              for j in range(2 * m)]
            r += 1
        if r < m:
            raise ValueError("basis elements are linearly dependent over the subfield")
        inv_rows = [row[m:] for row in aug]
        self._basis_cache[basis] = inv_rows
        return inv_rows

    def coords(self, a: int, basis: tuple[int, ...] | None = None) -> tuple[int, ...]:
        """Coordinates of a over the immediate subfield w.r.t. basis.

        Default basis is the power basis, for which the coordinates are
        just the base-q digits of the int encoding.
        """
        self.check(a)
        if self.subfield is None:
            return (a,)
        if basis is None or tuple(basis) == self.power_basis():
            return tuple(self.digits(a))
        basis = tuple(basis)
        inv = self._basis_solver(basis)
        sub = self.subfield
        digs = self.digits(a)
        out = []
        for col in range(self.degree):
            acc = 0
            for i, d in enumerate(digs):
                if d:
                    acc = sub.add(acc, sub.mul(d, inv[i][col]))
            out.append(acc)
        return tuple(out)

    def from_coords(self, coords, basis: tuple[int, ...] | None = None) -> int:
        if self.subfield is None:
            return self.check(coords[0])
        if basis is None:
            basis = self.power_basis()
        if len(coords) != self.degree:
            raise ValueError("coordinate vector length must equal the extension degree")
        acc = 0
        for c, b in zip(coords, basis):
            self.subfield.check(c)
            acc = self.add(acc, self.mul(self.embed(c), b))
        return acc

    def embed(self, a: int) -> int:
        """Embed a subfield element: the int encoding is unchanged."""
        if self.subfield is None:
            return self.check(a)
        self.subfield.check(a)
        return a

    def project(self, a: int) -> int:
        """Inverse of embed; error if a is not in the immediate subfield."""
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
            raise ValueError("extension degree must be positive")
        if degree == 1:
            return self
        if modulus is None:
            if self.order ** degree > _AUTO_POLY_LIMIT:
                raise ValueError(
                    f"order {self.order ** degree} exceeds the built-in polynomial "
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

def poly_eval(field: Field, coeffs, x: int) -> int:
    acc = 0
    for c in reversed(list(coeffs)):
        acc = field.add(field.mul(acc, x), c)
    return acc


def poly_divmod(field: Field, a, b) -> tuple[list[int], list[int]]:
    a = list(a)
    db = len(b) - 1
    while len(b) > 1 and b[-1] == 0:
        b = b[:-1]
        db -= 1
    if b == [0] or not b:
        raise ZeroDivisionError("polynomial division by zero")
    inv_lead = field.inv(b[-1])
    quot = [0] * max(1, len(a) - db)
    for k in range(len(a) - 1, db - 1, -1):
        c = a[k]
        if c == 0:
            continue
        f = field.mul(c, inv_lead)
        quot[k - db] = f
        for j in range(db + 1):
            a[k - db + j] = field.sub(a[k - db + j], field.mul(f, b[j]))
    rem = a[:db] if db else [0]
    return quot, (rem or [0])


def poly_mod(field: Field, a, b) -> list[int]:
    return poly_divmod(field, a, b)[1]


def is_irreducible(field: Field, modulus: tuple[int, ...]) -> bool:
    """Exhaustive check that x^d + modulus(x) is irreducible over field.

    Root check rules out degree <= 3; higher degrees are trial-divided by
    every monic polynomial of degree 2..d//2 (desk scale only).
    """
    d = len(modulus)
    poly = list(modulus) + [1]
    if d == 0:
        return False
    if d == 1:
        return True
    for x in field.elements():
        if poly_eval(field, poly, x) == 0:
            return False
    if d <= 3:
        return True
    q = field.order
    for deg in range(2, d // 2 + 1):
        for packed in range(q ** deg):
            cand, v = [], packed
            for _ in range(deg):
                v, r = divmod(v, q)
                cand.append(r)
            cand.append(1)
            if all(c == 0 for c in poly_mod(field, poly, cand)):
                return False
    return True


def smallest_irreducible(field: Field, degree: int) -> tuple[int, ...]:
    """Non-leading coefficients of the first monic irreducible of `degree`.

    Candidates are ordered by the packed little-endian int of their
    coefficient vector, so the choice is deterministic.
    """
    q = field.order
    for packed in range(q ** degree):
        coeffs, v = [], packed
        for _ in range(degree):
            v, r = divmod(v, q)
            coeffs.append(r)
        if is_irreducible(field, tuple(coeffs)):
            return tuple(coeffs)
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
            mods = None
    return make_field(desc["characteristic"], degrees, mods)


# ----------------------------------------------------------------------
# ergonomic element wrapper
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class FieldElement:
    """Thin wrapper pairing an element int with its owning field."""

    field: Field
    value: int

    def __post_init__(self):
        self.field.check(self.value)

    def _coerce(self, other) -> int:
        if isinstance(other, FieldElement):
            if other.field != self.field:
                raise ValueError("elements of different fields cannot be combined")
            return other.value
        return self.field.check(other)

    def __add__(self, other):
        return FieldElement(self.field, self.field.add(self.value, self._coerce(other)))

    def __sub__(self, other):
        return FieldElement(self.field, self.field.sub(self.value, self._coerce(other)))

    def __mul__(self, other):
        return FieldElement(self.field, self.field.mul(self.value, self._coerce(other)))

    def __truediv__(self, other):
        return FieldElement(self.field, self.field.div(self.value, self._coerce(other)))

    def __neg__(self):
        return FieldElement(self.field, self.field.neg(self.value))

    def __pow__(self, e: int):
        return FieldElement(self.field, self.field.pow(self.value, e))

    def inverse(self) -> FieldElement:
        return FieldElement(self.field, self.field.inv(self.value))

    def frobenius(self, e: int = 1) -> FieldElement:
        return FieldElement(self.field, self.field.frobenius(self.value, e))

    @property
    def coords(self) -> tuple[int, ...]:
        return self.field.coords(self.value)

    def __int__(self) -> int:
        return self.value
