"""Sum-rank code constructions from Hamming-metric ingredient codes.

Two ingredient-based constructions are provided:

* the row-matrix covering construction, where block r of a codeword is the
  m x m matrix whose i-th row is the coordinate vector of the r-th symbol
  of the i-th ingredient codeword; and
* the linearized-polynomial construction, where block r is the matrix of
  x -> sum_j c_jr * phi(x**(q**(j-1))) acting on GF(q^n), n the number of
  ingredients.

Both write blocks in the power bases of GF(q^n) and GF(q^m) over GF(q), and
phi is the power-basis digit embedding of GF(q^n) in GF(q^m): it keeps the
digits, so it is the identity on element ints.  The base field GF(q) is the
subfield of the ingredients' symbol field.

On top of those sit the full-block extension and the Plotkin sum, plus the
named parameterized recipes used by the CLI.
"""

from __future__ import annotations

import inspect
import itertools
from functools import cached_property

import numpy as np

from .gf import Field, digit_add, is_prime, make_field
from . import hamming as hm
from .spaces import MatrixProfile, SumRankWord, pack_matrix
from .syndrome import ENUM_BUDGET, SumRankCode, least_weight_word


def field_of_order(q: int) -> Field:
    """GF(q) for a prime power q, as a one-step tower over its prime field."""
    if q < 2:
        raise ValueError("field order must be at least 2")
    p = next((d for d in range(2, q + 1) if q % d == 0), q)
    e = 0
    v = q
    while v % p == 0 and v > 1:
        v //= p
        e += 1
    if v != 1 or not is_prime(p):
        raise ValueError(f"{q} is not a prime power")
    return make_field(p, [e] if e > 1 else [1])


def _pack_symbols(symbols, Q: int) -> int:
    v = 0
    for s in reversed(symbols):
        v = v * Q + s
    return v


class IngredientSumRankCode(SumRankCode):
    """Covering or linearized construction from Hamming ingredient codes.

    The ingredients share the symbol field GF(q^m), and the base field
    GF(q) is its subfield.
    """

    def __init__(self, construction: str, ingredients, *,
                 designed_distance: int | None = None,
                 recipe: str | None = None, params: dict | None = None):
        if construction not in ("covering", "linearized"):
            raise ValueError("construction must be 'covering' or 'linearized'")
        ingredients = tuple(ingredients)
        if not ingredients:
            raise ValueError("at least one ingredient code is required")
        ext = ingredients[0].field
        if ext.subfield is None:
            raise ValueError(f"ingredients over the prime field {ext!r} have no base "
                             "field: the symbol field must be an extension GF(q^m)")
        base = ext.subfield
        t = ingredients[0].n
        for c in ingredients:
            if c.field != ext:
                raise ValueError("ingredient alphabets must all equal the symbol field")
            if c.n != t:
                raise ValueError("ingredient lengths must agree")
        m = ext.degree
        rows = len(ingredients)
        if construction == "covering":
            if rows != m:
                raise ValueError(f"the covering construction needs exactly {m} ingredients")
            shape = (m, m)
        else:
            if rows > m:
                raise ValueError("the linearized construction needs at most m ingredients")
            shape = (rows, m)
        super().__init__(base, MatrixProfile(base, tuple(shape for _ in range(t))))
        self.construction = construction
        self.ext = ext
        self.ingredients = ingredients
        self.t = t
        self.m = m
        self.rows = rows
        self.designed_distance = designed_distance
        self.recipe = recipe
        self.params = dict(params or {})

    # -- construction of a single block -------------------------------

    @cached_property
    def _frobenius_images(self) -> list[list[int]]:
        """[k][j]: phi((x^k)^(q^j)) for the power basis x^k = q^k of GF(q^n).

        phi places GF(q^n) in GF(q^m) by its power-basis digits, which is
        the identity on element ints.
        """
        dom, q = self.base.extension(self.rows), self.base.order
        return [[dom.frobenius(q ** k, j) for j in range(self.rows)] for k in range(self.rows)]

    def block_matrix(self, symbols) -> tuple[tuple[int, ...], ...]:
        """The block contributed by one position's ingredient symbols."""
        ext = self.ext
        if self.construction == "covering":
            return tuple(ext.coords(s) for s in symbols)
        rows = []
        for images in self._frobenius_images:
            acc = 0
            for c, img in zip(symbols, images):
                if c:
                    acc = ext.add(acc, ext.mul(c, img))
            rows.append(ext.coords(acc))
        return tuple(rows)

    @cached_property
    def _block_pack_table(self):
        """Packed block for every packed symbol tuple (small alphabets only)."""
        Q = self.ext.order
        total = Q ** self.rows
        if total > 1 << 18:
            return None
        table = []
        for packed in range(total):
            syms, v = [], packed
            for _ in range(self.rows):
                v, r = divmod(v, Q)
                syms.append(r)
            table.append(pack_matrix(self.base, self.block_matrix(syms)))
        return table

    def packed_from_symbols(self, symbol_rows) -> tuple[int, ...]:
        """Packed word from the tuple of ingredient codewords."""
        Q = self.ext.order
        table = self._block_pack_table
        out = []
        for pos in range(self.t):
            syms = [symbol_rows[i][pos] for i in range(self.rows)]
            if table is not None:
                out.append(table[_pack_symbols(syms, Q)])
            else:
                out.append(pack_matrix(self.base, self.block_matrix(syms)))
        return tuple(out)

    def encode(self, messages) -> SumRankWord:
        """Encode one message vector per ingredient code."""
        if len(messages) != self.rows:
            raise ValueError(f"expected {self.rows} message vectors")
        ext = self.ext
        symbol_rows = []
        for msg, code in zip(messages, self.ingredients):
            if len(msg) != code.k:
                raise ValueError("message length does not match the ingredient dimension")
            word = [0] * self.t
            for coef, grow in zip(msg, code.generator):
                if coef:
                    for p in range(self.t):
                        if grow[p]:
                            word[p] = ext.add(word[p], ext.mul(coef, grow[p]))
            symbol_rows.append(tuple(word))
        return self.to_word(self.packed_from_symbols(symbol_rows))

    @property
    def dim(self) -> int:
        return self.m * sum(c.k for c in self.ingredients)

    def enumerate_packed(self, budget: int = ENUM_BUDGET):
        if self.size > budget:
            raise hm.BudgetExceeded(f"{self.size} codewords exceed budget {budget}")
        streams = [c.codeword_list(budget) for c in self.ingredients]
        for combo in itertools.product(*streams):
            yield self.packed_from_symbols(combo)

    def _generator_rows_packed(self):
        # beta * g over the power basis from high to low, the digit order of
        # the symbol coefficients that `enumerate_packed` counts up
        mul = hm.array_mul(self.ext)
        betas = np.array(self.ext.power_basis()[::-1], dtype=np.int64)[:, None, None]
        dtype = np.int64 if self.base.order ** (self.rows * self.m) < 1 << 63 else object
        rows = []
        for i, code in enumerate(self.ingredients):
            gen = np.array(code.generator, dtype=np.int64).reshape(code.k, self.t)
            symbols, at = np.unique(mul(betas, gen[None]), return_inverse=True)
            zeros = [0] * self.rows
            # the packed block of each symbol alone in ingredient row i
            blocks = np.array([pack_matrix(self.base, self.block_matrix(
                zeros[:i] + [s] + zeros[i + 1:])) for s in symbols.tolist()], dtype=dtype)
            rows.append(blocks[at.reshape(len(betas), code.k, self.t)]
                        .transpose(1, 0, 2).reshape(-1, self.t))
        return [tuple(row) for row in np.concatenate(rows).tolist()]

    def composition_lower_bound(self) -> int:
        """Distance lower bound from the ingredient distances."""
        dists = [_ingredient_distance(c) for c in self.ingredients]
        if self.construction == "linearized":
            return min((i + 1) * d for i, d in enumerate(dists))
        return min(dists)

    def describe(self) -> dict:
        return {
            "construction": self.construction,
            "recipe": self.recipe,
            "params": self.params,
            "base_field": self.base.describe(),
            "extension_degree": self.m,
            "profile": self.profile.describe(),
            "dimension": self.dim,
            "designed_distance": self.designed_distance,
            "ingredients": [c.describe() for c in self.ingredients],
        }


def _ingredient_distance(code: hm.LinearCode) -> int:
    """Exact d by enumeration up to 2^16 codewords, else by the support search."""
    if code.k == 0:
        return code.n + 1
    if code.size <= 1 << 16:
        value = least_weight_word(code.field, code.generator, code.weight_blocks)[0]
    else:
        res = hm.min_distance(code)
        if not res.exact:
            raise ValueError("ingredient distance could not be settled exactly")
        value = res.value
    if code.designed_distance is not None and code.designed_distance != value:
        raise RuntimeError(f"designed distance {code.designed_distance} "
                           f"contradicts the exact value {value}")
    return value


def sr_covering(ingredients, **meta) -> IngredientSumRankCode:
    """Row-matrix covering construction from m codes over GF(q^m)."""
    return IngredientSumRankCode("covering", ingredients, **meta)


def sr_linearized(ingredients, **meta) -> IngredientSumRankCode:
    """Linearized-polynomial construction from n <= m codes over GF(q^m)."""
    return IngredientSumRankCode("linearized", ingredients, **meta)


class ExtendedSumRankCode(SumRankCode):
    """Direct sum with extra full matrix blocks; covering radius unchanged."""

    construction = "extended"

    def __init__(self, inner: SumRankCode, extra: int):
        if extra <= 0:
            raise ValueError("the number of extra blocks must be positive")
        shapes = set(inner.profile.blocks)
        if len(shapes) != 1 or len({s[0] for s in shapes} | {s[1] for s in shapes}) != 1:
            raise ValueError("full-block extension needs a homogeneous m x m profile")
        (n, m) = inner.profile.blocks[0]
        super().__init__(inner.base,
                         MatrixProfile(inner.base, inner.profile.blocks + ((n, m),) * extra))
        self.inner = inner
        self.extra = extra
        self.block_shape = (n, m)

    @property
    def dim(self) -> int:
        n, m = self.block_shape
        return self.inner.dim + self.extra * n * m

    def enumerate_packed(self, budget: int = ENUM_BUDGET):
        if self.size > budget:
            raise hm.BudgetExceeded(f"{self.size} codewords exceed budget {budget}")
        n, m = self.block_shape
        bs = self.base.order ** (n * m)
        for inner_packed in self.inner.enumerate_packed(budget):
            for tail in itertools.product(range(bs), repeat=self.extra):
                yield inner_packed + tail

    def _generator_rows_packed(self):
        n, m = self.block_shape
        zero_tail = (0,) * self.extra
        rows = [p + zero_tail for p in self.inner._generator_rows_packed()]
        zeros_head = (0,) * self.inner.profile.t
        q = self.base.order
        for b in range(self.extra):
            for cell in reversed(range(n * m)):  # enumeration order
                tail = [0] * self.extra
                tail[b] = q ** cell
                rows.append(zeros_head + tuple(tail))
        return rows

    def describe(self) -> dict:
        return {
            "construction": "extended",
            "extra_blocks": self.extra,
            "profile": self.profile.describe(),
            "dimension": self.dim,
            "inner": self.inner.describe(),
        }


def extend_full_blocks(code: SumRankCode, extra: int) -> ExtendedSumRankCode:
    return ExtendedSumRankCode(code, extra)


class PlotkinSumRankCode(SumRankCode):
    """(c1 | c1 + c2) over a shared profile; block length doubles."""

    construction = "plotkin"

    def __init__(self, first: SumRankCode, second: SumRankCode):
        if first.profile != second.profile:
            raise ValueError("Plotkin summands must share a profile")
        super().__init__(first.base,
                         MatrixProfile(first.base, first.profile.blocks * 2))
        self.first = first
        self.second = second

    @property
    def dim(self) -> int:
        return self.first.dim + self.second.dim

    def enumerate_packed(self, budget: int = ENUM_BUDGET):
        if self.size > budget:
            raise hm.BudgetExceeded(f"{self.size} codewords exceed budget {budget}")
        seconds = list(self.second.enumerate_packed(budget))
        p = self.base.p
        for c1 in self.first.enumerate_packed(budget):
            for c2 in seconds:
                yield c1 + tuple(digit_add(p, a, b) for a, b in zip(c1, c2))

    def _generator_rows_packed(self):
        t = self.first.profile.t
        zeros = (0,) * t
        rows = [p + p for p in self.first._generator_rows_packed()]
        rows.extend(zeros + p for p in self.second._generator_rows_packed())
        return rows

    def describe(self) -> dict:
        return {
            "construction": "plotkin",
            "profile": self.profile.describe(),
            "dimension": self.dim,
            "first": self.first.describe(),
            "second": self.second.describe(),
        }


def plotkin(first: SumRankCode, second: SumRankCode) -> PlotkinSumRankCode:
    return PlotkinSumRankCode(first, second)


# ----------------------------------------------------------------------
# named recipes
# ----------------------------------------------------------------------

def quasi_perfect_2xm(q: int, m: int, u: int) -> IngredientSumRankCode:
    """2 x m quasi-perfect family: Hamming plus single-parity ingredients."""
    if u < 2:
        raise ValueError("gate failed: Hamming redundancy u must be at least 2")
    if m < 2:
        raise ValueError("gate failed: column size m must be at least 2")
    base = field_of_order(q)
    ext = base.extension(m)
    t = (ext.order ** u - 1) // (ext.order - 1)
    c1 = hm.hamming_code(ext, u)
    c2 = hm.parity_check_code(ext, t)
    code = sr_linearized([c1, c2], designed_distance=3,
                         recipe="quasi-perfect-2xm", params={"q": q, "m": m, "u": u})
    return code


def quasi_perfect_2x2(t: int = 6, ingredient: hm.LinearCode | None = None
                      ) -> IngredientSumRankCode:
    """Binary 2 x 2 quasi-perfect family from a [t,k,4]_4 covering-2 code."""
    base = make_field(2, [1])
    ext = base.extension(2)
    if ingredient is None:
        if t != 6:
            raise ValueError("gate failed: the built-in ingredient search covers t = 6; "
                             "pass an explicit [t,k,4]_4 code of covering radius 2")
        ingredient = hm.search_634_ingredient(ext)
    if ingredient.field != ext or ingredient.n != t:
        raise ValueError("gate failed: ingredient must be a length-t code over GF(4)")
    radius, dp = hm.covering_radius(ingredient)
    if dp.distance != 4:
        raise ValueError("gate failed: ingredient minimum distance must be 4")
    if radius != 2:
        raise ValueError("gate failed: ingredient covering radius must be 2")
    c1 = hm.parity_check_code(ext, t)
    return sr_linearized([c1, ingredient], designed_distance=4,
                         recipe="quasi-perfect-2x2", params={"t": t})


def cyclic_d4(q: int, m: int, lam: int = 1) -> hm.LinearCode:
    """Distance-4 cyclic family over GF(q), defining set C0 u C1 u C2."""
    base = field_of_order(q)
    if lam < 1 or (q ** m - 1) % lam != 0:
        raise ValueError(f"gate failed: {lam} does not divide q^m - 1 = {q ** m - 1}")
    n = (q ** m - 1) // lam
    code = hm.cyclic_code(n, base, [0, 1, 2])
    code.designed_distance = 4 if hm.bch_bound(code.defining_set, n) >= 4 else None
    return code


def cyclic_d4_alt(q: int, m: int) -> hm.LinearCode:
    """Distance-4 ternary/quinary cyclic family with split defining sets."""
    if q == 3:
        gens = [0, 1, 5]
    elif q == 5:
        gens = [0, 1, 3]
    else:
        raise ValueError("gate failed: this family is defined for q in {3, 5}")
    base = field_of_order(q)
    n = q ** m - 1
    if n <= max(gens):
        raise ValueError(f"gate failed: length {n} is too short for the defining set")
    code = hm.cyclic_code(n, base, gens)
    code.designed_distance = 4
    return code


def distance_optimal_sxs(q: int, s: int, m: int, lam: int = 1) -> IngredientSumRankCode:
    """s x s distance-4 family from a cyclic code plus trivial ingredients."""
    if s < 2:
        raise ValueError("gate failed: matrix size s must be at least 2")
    base = field_of_order(q)
    ext = base.extension(s)
    Q = ext.order
    if lam < 1 or (Q ** m - 1) % lam != 0:
        raise ValueError(f"gate failed: {lam} does not divide q^(sm) - 1 = {Q ** m - 1}")
    t = (Q ** m - 1) // lam
    c1 = hm.cyclic_code(t, ext, [0, 1, 2])
    c1.designed_distance = 4 if hm.bch_bound(c1.defining_set, t) >= 4 else None
    ingredients = [c1]
    for _ in range(min(2, s - 1)):
        ingredients.append(hm.parity_check_code(ext, t))
    while len(ingredients) < s:
        ingredients.append(hm.full_code(ext, t))
    return sr_linearized(ingredients, designed_distance=4,
                         recipe="distance-optimal-sxs",
                         params={"q": q, "s": s, "m": m, "lam": lam})


def distance_optimal_rect(q: int, s1: int, s2: int, m: int,
                          lam: int = 1) -> IngredientSumRankCode:
    """s1 x s2 (s1 < s2) distance-4 family over GF(q^(s2))."""
    if not 1 < s1 < s2:
        raise ValueError("gate failed: need 1 < s1 < s2")
    base = field_of_order(q)
    ext = base.extension(s2)
    Q = ext.order
    if lam < 1 or (Q ** m - 1) % lam != 0:
        raise ValueError(f"gate failed: {lam} does not divide q^(s2 m) - 1")
    t = (Q ** m - 1) // lam
    c1 = hm.cyclic_code(t, ext, [0, 1, 2])
    ingredients = [c1]
    for _ in range(min(2, s1 - 1)):
        ingredients.append(hm.parity_check_code(ext, t))
    while len(ingredients) < s1:
        ingredients.append(hm.full_code(ext, t))
    return sr_linearized(ingredients, designed_distance=4,
                         recipe="distance-optimal-rect",
                         params={"q": q, "s1": s1, "s2": s2, "m": m, "lam": lam})


def distance_optimal_2x2(q: int) -> IngredientSumRankCode:
    """2 x 2 distance-4 family of block length q^4 - 1."""
    base = field_of_order(q)
    ext = base.extension(2)
    Q = ext.order
    t = q ** 4 - 1
    c1 = hm.cyclic_code(t, ext, [0, 1, Q + 1])
    c1.designed_distance = 4
    c2 = hm.parity_check_code(ext, t)
    return sr_linearized([c1, c2], designed_distance=4,
                         recipe="distance-optimal-2x2", params={"q": q})


def almost_msrd_2x2(q: int, t: int) -> IngredientSumRankCode:
    """2 x 2 almost-MSRD family from a [t, t-3, 4] Reed-Solomon ingredient."""
    base = field_of_order(q)
    ext = base.extension(2)
    if t > ext.order:
        raise ValueError(f"gate failed: block length {t} exceeds q^2 = {ext.order}")
    if t < 4:
        raise ValueError("gate failed: block length must be at least 4")
    c1 = hm.reed_solomon(ext, t, t - 3)
    c2 = hm.parity_check_code(ext, t)
    return sr_linearized([c1, c2], designed_distance=4,
                         recipe="almost-msrd-2x2", params={"q": q, "t": t})


def plotkin_distance_optimal(s: int, m: int) -> PlotkinSumRankCode:
    """Binary s x s distance-4 family by doubling the block length."""
    if s < 2:
        raise ValueError("gate failed: matrix size s must be at least 2")
    base = make_field(2, [1])
    ext = base.extension(s)
    t = 2 ** (s * m) - 1
    ingredients = [hm.parity_check_code(ext, t)]
    while len(ingredients) < s:
        ingredients.append(hm.full_code(ext, t))
    first = sr_linearized(ingredients, designed_distance=2)
    second = distance_optimal_sxs(2, s, m, 1)
    code = PlotkinSumRankCode(first, second)
    code.recipe = "plotkin-distance-optimal"
    code.params = {"s": s, "m": m}
    return code


def covering_repetition(q: int, m: int, t: int) -> IngredientSumRankCode:
    """Covering construction from m copies of the [t,1,t] repetition code."""
    base = field_of_order(q)
    ext = base.extension(m)
    ingredients = [hm.repetition_code(ext, t) for _ in range(m)]
    return sr_covering(ingredients, recipe="covering-repetition",
                       params={"q": q, "m": m, "t": t})


RECIPES: dict = {
    "quasi-perfect-2xm": (quasi_perfect_2xm, ("q", "m", "u")),
    "quasi-perfect-2x2": (quasi_perfect_2x2, ("t",)),
    "cyclic-d4": (cyclic_d4, ("q", "m", "lam")),
    "cyclic-d4-alt": (cyclic_d4_alt, ("q", "m")),
    "distance-optimal-sxs": (distance_optimal_sxs, ("q", "s", "m", "lam")),
    "distance-optimal-rect": (distance_optimal_rect, ("q", "s1", "s2", "m", "lam")),
    "distance-optimal-2x2": (distance_optimal_2x2, ("q",)),
    "almost-msrd-2x2": (almost_msrd_2x2, ("q", "t")),
    "plotkin-distance-optimal": (plotkin_distance_optimal, ("s", "m")),
    "covering-repetition": (covering_repetition, ("q", "m", "t")),
}


def build_recipe(name: str, **params):
    if name not in RECIPES:
        raise ValueError(f"unknown recipe {name!r}; known: {sorted(RECIPES)}")
    fn, argnames = RECIPES[name]
    unknown = set(params) - set(argnames)
    if unknown:
        raise ValueError(f"unexpected parameters {sorted(unknown)} for recipe {name!r}")
    missing = [p.name for p in inspect.signature(fn).parameters.values()
               if p.default is p.empty and p.name not in params]
    if missing:
        raise ValueError(f"missing parameters {missing} for recipe {name!r}")
    return fn(**params)
