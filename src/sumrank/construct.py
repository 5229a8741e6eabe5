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
subfield of the ingredients' symbol field.  The block map is GF(q)-linear,
so `gf.linear_map` gives the block of any symbols alone in an ingredient
row from the blocks of its base-p unit symbols: for the packed generator
rows, for the unit images the parity checks invert, and for per-row tables
of all q^m symbols, whose digit-wise sums make a position's block.

On top of those sit the full-block extension and the Plotkin sum, plus the
named recipes of the CLI, some built from their `FAMILIES` entry.  Each
construction states its parity checks through its parts' (`_parity_rows`),
so the engines never need the code's generator.
"""

from __future__ import annotations

import inspect
import itertools
from functools import cached_property, reduce, wraps
from typing import NamedTuple

import numpy as np

from .gf import (Field, UsageError, array_digits, array_mul, digit_add, digit_adder, int_text,
                 linear_map, make_field, place_values, prime_power, rref)
from . import hamming as hm
from .spaces import MatrixProfile, pack_matrix
from .syndrome import Budgets, SrDistance, SumRankCode


def field_of_order(q: int) -> Field:
    """GF(q) for a prime power q, as a one-step tower over its prime field."""
    p, e = prime_power(q)
    return make_field(p, [e])


class IngredientSumRankCode(SumRankCode):
    """Covering or linearized construction from Hamming ingredient codes.

    The ingredients share the symbol field GF(q^m), and the base field
    GF(q) is its subfield.
    """

    def __init__(self, construction: str, ingredients, *,
                 designed_distance: int | None = None):
        if construction not in ("covering", "linearized"):
            raise ValueError("construction must be 'covering' or 'linearized'")
        ingredients = tuple(ingredients)
        if not ingredients:
            raise ValueError("at least one ingredient code is required")
        ext = ingredients[0].field
        if ext.subfield is None:
            raise UsageError(f"ingredients over the prime field {ext!r} have no base "
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
        return tuple(
            ext.coords(reduce(ext.add, (ext.mul(c, x) for c, x in zip(symbols, images) if c), 0))
            for images in self._frobenius_images)

    def _lone_blocks(self, i: int, symbols) -> np.ndarray:
        """The packed block of each of `symbols` alone in ingredient row i.

        The block map is GF(q)-linear, so `linear_map` applies it from the
        blocks of the base-p unit symbols: int64 while q^(nm) fits, else
        Python ints in an object array.
        """
        base, n, p = self.base, self.rows, self.base.p
        units = [pack_matrix(base, self.block_matrix([p ** j * (r == i) for r in range(n)]))
                 for j in range(self.ext.dim_over_prime)]
        return linear_map(p, units, n * self.m * base.dim_over_prime, symbols)

    @cached_property
    def _lone_tables(self) -> list[np.ndarray]:
        """[i][s]: the packed block of symbol s alone in ingredient row i, for all q^m symbols."""
        return [self._lone_blocks(i, range(self.ext.order)) for i in range(self.rows)]

    def packed_from_symbols(self, symbol_rows) -> tuple[int, ...]:
        """Packed word from the ingredient codewords: the digit-wise sum of their lone blocks."""
        add = digit_adder(self.base.p, self.rows * self.m * self.base.dim_over_prime)
        return tuple(reduce(add, [table[np.asarray(row, dtype=np.int64)]
                                  for table, row in zip(self._lone_tables, symbol_rows)]).tolist())

    @property
    def dim(self) -> int:
        return self.m * sum(c.k for c in self.ingredients)

    def enumerate_packed(self, budget: int = Budgets().enum):
        if stop := self.enum_stop(budget):
            raise hm.BudgetExceeded(stop)
        streams = [c.codeword_list(budget) for c in self.ingredients]
        for combo in itertools.product(*streams):
            yield self.packed_from_symbols(combo)

    def _generator_rows_packed(self):
        # beta * g over the power basis from high to low, the digit order of
        # the symbol coefficients that `enumerate_packed` counts up
        mul = array_mul(self.ext)
        betas = np.array(self.ext.power_basis()[::-1], dtype=np.int64)[:, None]
        rows = []
        for i, code in enumerate(self.ingredients):
            gen = np.array(code.generator, dtype=np.int64).reshape(code.k, 1, self.t)
            rows.append(self._lone_blocks(i, mul(gen, betas).ravel()).reshape(-1, self.t))
        return [tuple(row) for row in np.concatenate(rows).tolist()]

    @cached_property
    def _cell_preimages(self) -> np.ndarray:
        """U[i, c]: symbol i of L^-1(e_c), for every unit cell e_c of a block.

        L maps one position's ingredient symbols to its block.  It is
        GF(q)-linear; row (i, a) of its matrix is the block of x^a alone in
        symbol i (`_lone_blocks`), so the rows of its inverse, read as digits
        over the power basis, are the preimages.  L must be invertible, or
        the construction would not be injective.
        """
        base, n, m, q = self.base, self.rows, self.m, self.base.order
        cells = n * m
        blocks = np.concatenate([self._lone_blocks(i, q ** np.arange(m)) for i in range(n)])
        red, pivots = rref(base, np.hstack([array_digits(blocks, q, cells),
                                            np.eye(cells, dtype=np.int64)]))
        if pivots != list(range(cells)):
            raise RuntimeError("construction is not injective: the block map is singular")
        inverse = red[:, cells:].reshape(cells, n, m)
        return (inverse @ q ** np.arange(m, dtype=np.int64)).T

    def _parity_rows(self) -> np.ndarray:
        # row (i, j, k), column (block r, cell c): coordinate k over GF(q) of
        # H_i[j, r] * U[i, c], since L^-1 of a block is sum_c b_c U[:, c]
        mul, q = array_mul(self.ext), self.base.order
        rows = []
        for code, preimages in zip(self.ingredients, self._cell_preimages):
            coords = array_digits(mul(code.parity[:, :, None], preimages), q, self.m)
            rows.append(np.moveaxis(coords, -1, 1).reshape(-1, self.ambient_dim))
        return np.concatenate(rows)

    def is_codeword(self, packed) -> bool:
        """Whether each ingredient word is a codeword, no flat parity formed: block r's symbol i,
        sum_c b_rc U[i, c] (`_cell_preimages`), is GF(p)-linear in the packed block, so
        `linear_map` takes it from the images of the block's base-p unit digits."""
        p, e, size = self.base.p, self.base.dim_over_prime, self.rows * self.m
        blocks = np.array(packed, dtype=place_values(self.base.order, size).dtype)
        for code, pre in zip(self.ingredients, self._cell_preimages):
            images = [self.ext.mul(p ** j, int(u)) for u in pre for j in range(e)]
            symbols = linear_map(p, images, self.ext.dim_over_prime, blocks)
            if not code.is_codeword(tuple(symbols.tolist())):
                return False
        return True

    def composition_lower_bound(self, dists) -> int:
        """d >= this, from lower ends `dists` of the ingredients' distances (inf when k = 0).

        A word comes from ingredient words c_i, and block r is L(c_0r, ..., c_(n-1)r).  Let P
        be the i with c_i != 0 (a k = 0 ingredient has none) and S the union of their
        supports: |S| >= max_(i in P) d_i, and L is injective, so each block in S has rank >= 1.
        * Covering: row i of block r holds c_ir, so the weight is >= |S|: d >= min_i d_i.
        * Linearized: for P = {i}, block r is z -> c_ir phi(z^(q^i)), of full rank n, so the
          weight is >= n d_i; for |P| >= 2 it is >= |S| >= max(d_i, d_j), i < j in P.  When
          n = m, block r is the q-polynomial sum_i c_ir x^(q^i), whose kernel has dimension
          <= max P - min P (root bound, Lidl and Niederreiter, Finite Fields, ch. 3), so the
          weight is >= max_P d_i (m - max P + min P): over P of extremes i < j, least at {i, j}.
        """
        if self.construction == "covering":
            return min(dists)
        n, m, pairs = self.rows, self.m, itertools.combinations(enumerate(dists), 2)
        return min([n * d for d in dists]
                   + [max(a, b) * (m - (j - i) if n == m else 1) for (i, a), (j, b) in pairs])

    def distance_bounds(self, distance, budgets: Budgets = Budgets()):
        """The composition bound, up to the lightest word c of one ingredient i alone, of weight
        n wt_H(c) (z -> c_r phi(z^(q^i)) is injective) or, covering, wt_H(c) (one row)."""
        ends = [_ingredient_end(code, distance) for code in self.ingredients]
        stops = _part_stops((f"ingredient {i} ({code.family})", end[2])  # each one's stops
                            for i, (code, end) in enumerate(zip(self.ingredients, ends)))
        lo = self.composition_lower_bound([d for d, *_ in ends])
        sources = ", ".join(f"{d} {source}" for d, source, *_ in ends)
        rank = self.rows if self.construction == "linearized" else 1
        hi, i, word = min((rank * (len(word) - word.count(0)), i, word)  # i breaks every tie
                          for i, (*_, word) in enumerate(ends) if word)
        yield SrDistance(lo, hi, f"composition({self.construction}: {sources})",
                         tuple(self._lone_blocks(i, word).tolist()), stops)

    def radius_bounds(self):
        """R <= this rule from any upper ends of the ingredients' R_H (`LinearCode.proven`).  A
        word of blocks L(a_0r, ..., a_(n-1)r) is at distance sum_r rank L(e_0r, ..., e_(n-1)r)
        from the codeword of any c_i in C_i, e_i = a_i - c_i.  Covering: row i of block r is
        e_ir, so R <= sum_i R_H(C_i).  Linearized: the distance is at most n |U|, U the union of
        the supports.  Each general C_i has an e_i of support <= R_H(C_i); with their union
        listed first, each MDS C_i, of redundancy rho_i = t - k_i, has one in the first rho_i:
        R <= n max(sum_gen R_H, max_MDS rho_i).  An MDS code with a lower end counts as general."""
        ends = [c.proven.radius_hi for c in self.ingredients]
        rhos = [end for c, end in zip(self.ingredients, ends) if c.proven.mds and end == c.n - c.k]
        hi = sum(ends) if self.construction == "covering" else self.rows * max(
            [sum(ends) - sum(rhos), *rhos])  # sum_general R_H, max_MDS rho_i
        sources = ", ".join(f"{end} {c.family}" for end, c in zip(ends, self.ingredients))
        yield SrDistance(0, hi, f"composition({self.construction}: {sources})")

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


def _part_stops(parts) -> tuple[str, ...]:
    """The budget stops of (part, stops) pairs, each prefixed by its part's name."""
    return tuple(f"{part}: {stop}" for part, stops in parts for stop in stops)


def _ingredient_end(code: hm.LinearCode, distance) -> tuple[float, str, tuple, tuple | None]:
    """A lower end of an ingredient's d (inf if k = 0), its source, its stops and a word: what
    its structure proves (`LinearCode.proven`), or, below the stamped design or without one, its
    engines' end, which includes that; the word is their witness, else `first_row`."""
    lo, source, design = code.proven.d_lo, code.proven.source, code.designed_distance
    if design is not None and lo >= design:
        return lo, source, (), code.first_row
    res = distance(code)
    if res.exact and design is not None and res.value != design:
        raise RuntimeError(f"designed distance {design} contradicts the exact value {res.value}")
    return res.lo, source if lo == res.lo else res.method, res.stops, res.witness or code.first_row


def sr_covering(ingredients, **meta) -> IngredientSumRankCode:
    """Row-matrix covering construction from m codes over GF(q^m)."""
    return IngredientSumRankCode("covering", ingredients, **meta)


def sr_linearized(ingredients, **meta) -> IngredientSumRankCode:
    """Linearized-polynomial construction from n <= m codes over GF(q^m)."""
    return IngredientSumRankCode("linearized", ingredients, **meta)


class ExtendedSumRankCode(SumRankCode):
    """Direct sum with extra full matrix blocks; covering radius unchanged."""

    def __init__(self, inner: SumRankCode, extra: int):
        if extra <= 0:
            raise ValueError("the number of extra blocks must be positive")
        shapes = inner.profile.shape_counts()
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

    def enumerate_packed(self, budget: int = Budgets().enum):
        if stop := self.enum_stop(budget):
            raise hm.BudgetExceeded(stop)
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

    def _parity_rows(self) -> np.ndarray:
        inner = self.inner.flat_parity
        return np.pad(inner, ((0, 0), (0, self.ambient_dim - inner.shape[1])))

    def is_codeword(self, packed) -> bool:  # the extra blocks are free
        return self.inner.is_codeword(packed[:self.inner.profile.t])

    def distance_bounds(self, distance, budgets: Budgets = Budgets()):
        # d = 1: a single 1 at entry (0, 0) of an extra block, packed as 1, has rank 1
        yield SrDistance(1, 1, "composition(extension)",
                         (0,) * self.inner.profile.t + (1,) + (0,) * (self.extra - 1))

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

    def enumerate_packed(self, budget: int = Budgets().enum):
        if stop := self.enum_stop(budget):
            raise hm.BudgetExceeded(stop)
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

    def _parity_rows(self) -> np.ndarray:
        # (x | y) is (c1 | c1 + c2) exactly when H1 x = 0 and H2 (y - x) = 0
        h1, h2 = self.first.flat_parity, self.second.flat_parity
        return np.block([[h1, np.zeros_like(h1)],
                         [array_mul(self.base)(h2, self.base.p - 1), h2]])

    def is_codeword(self, packed) -> bool:  # as `_parity_rows`: x in the first, y - x in the second
        t, p = self.first.profile.t, self.base.p
        minus = [reduce(lambda v, _: digit_add(p, v, a), range(p - 1), b)  # y + (p - 1) x
                 for a, b in zip(packed[:t], packed[t:])]
        return self.first.is_codeword(packed[:t]) and self.second.is_codeword(tuple(minus))

    def distance_bounds(self, distance, budgets: Budgets = Budgets()):
        # d = min(2 d1, d2), witnessed by (c1 | c1) or (0 | c2); a zero part's d is inf
        d1, d2 = distance(self.first), distance(self.second)
        ends = [(2 * d1.lo, 2 * d1.hi, d1.witness and d1.witness * 2),
                (d2.lo, d2.hi, d2.witness and (0,) * self.first.profile.t + d2.witness)]
        hi, witness = min(ends, key=lambda end: end[1])[1:]
        yield SrDistance(min(end[0] for end in ends), hi, "composition(plotkin)", witness,
                         _part_stops((("first part", d1.stops), ("second part", d2.stops))))

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

# What a parameter of each annotation takes (a str one: a number as its text), and its name
_TAKES = {"int": ((int,), "an integer"), "float": ((int, float), "a number"),
          "str": ((str, int, float), "text")}


def signature_params(fn) -> list[inspect.Parameter]:
    """`fn`'s positional-or-keyword arguments, each annotated `int`, `float` or `str`."""
    return [a for a in inspect.signature(fn).parameters.values()
            if a.kind is a.POSITIONAL_OR_KEYWORD]


def bind_params(where: str, declared, params: dict) -> dict:
    """The keyword arguments `params` gives the `declared` parameters; an unknown name, a
    missing required one, a mistyped value or a non-finite float is a UsageError after `where`."""
    names = [a.name for a in declared]
    unknown = sorted(set(params) - set(names))
    if unknown:
        raise UsageError(f"{where}: unknown parameters {unknown}; it reads {', '.join(names)}")
    for a in declared:
        takes, type_name = _TAKES[a.annotation]
        if a.name not in params and a.default is a.empty:
            raise UsageError(f"{where}: missing parameter {a.name}=")
        if a.name in params and type(params[a.name]) not in takes:
            raise UsageError(f"{where}: parameter {a.name}={params[a.name]!r} is not {type_name}")
        if a.annotation == "float" and not abs(params.get(a.name, 0)) < float("inf"):  # nan or inf
            raise UsageError(f"{where}: parameter {a.name}={params[a.name]!r} is not finite")
    return {a.name: str(params[a.name]) if a.annotation == "str" else params[a.name]
            for a in declared if a.name in params}


RECIPES: dict = {}


def _recipe(fn):
    """Register the decorated recipe in RECIPES, named as `fn` with hyphens for underscores.

    Every code it returns, built through RECIPES or called directly, carries
    `recipe`, that name, and `params`, its `signature_params` with defaults applied.
    """
    name = fn.__name__.replace("_", "-")
    names = [a.name for a in signature_params(fn)]

    @wraps(fn)
    def build(*args, **kwargs):
        bound = inspect.signature(fn).bind(*args, **kwargs)
        bound.apply_defaults()
        code = fn(*args, **kwargs)
        code.recipe = name
        code.params = {a: bound.arguments[a] for a in names}
        return code

    RECIPES[name] = build
    return build


def _gate(holds: bool, failure: str) -> None:
    """A recipe's hypothesis: a UsageError naming the `failure` unless it holds."""
    if not holds:
        raise UsageError(f"gate failed: {failure}")


class Family(NamedTuple):
    """A condition family's code, code-free: t blocks of one shape over `base`, the codim the
    recipe builds over it, and the paper's lambda-condition at epsilon = 0, (holds, text)."""
    base: Field
    shape: tuple[int, int]
    t: int
    codim: int
    condition: tuple[bool, str]


def _cyclic_length(q: int, e: int, lam: int, power: str, k: int = 1) -> tuple[Field, int, int]:
    """GF(q), the block length n = (q^e - 1)/lam (`power` names q^e) and |T|, the codim over
    GF(q^k) of the cyclic ingredient, whose defining set T = C_0 u C_1 u C_2 misses a residue."""
    base = field_of_order(q)
    _gate(e >= 1, f"block length ({power} - 1)/lam must be positive")
    Q = q ** e
    if lam < 1 or (Q - 1) % lam:  # int_text loads decimal: form the text only on refusal
        _gate(False, f"{lam} does not divide {power} - 1 = {int_text(Q - 1)}")
    n = (Q - 1) // lam
    words = (1 + 2 * (e // k)) * -(-n.bit_length() // 64)  # (q^k)^(e/k) = 1: 1 + 2e/k residues
    _gate(words <= hm.DENSE_CELL_LIMIT, f"the cosets of T may hold {words} 64-bit words of "
          f"residues, above DENSE_CELL_LIMIT = {hm.DENSE_CELL_LIMIT}")
    size = len({r for g in (0, 1, 2) for r in hm.cyclotomic_coset(g, q ** k, n)})
    _gate(size < n, "defining set covers all residues; code is trivial {0}")
    return base, n, size


def _parity_count(count: int, parities: int = 2) -> int:
    """How many of `_trivial_codes`' codes are parity checks (codim 1; a full code has 0)."""
    return min(parities, count)


def _trivial_codes(ext, t: int, count: int, parities: int = 2) -> list[hm.LinearCode]:
    """Up to `parities` parity-check codes, then full codes: `count` codes of length t."""
    parities = _parity_count(count, parities)
    return ([hm.parity_check_code(ext, t) for _ in range(parities)]
            + [hm.full_code(ext, t) for _ in range(count - parities)])


def _quasi_perfect_2xm_family(q: int, m: int, u: int) -> Family:
    _gate(u >= 2, "Hamming redundancy u must be at least 2")
    _gate(m >= 2, "column size m must be at least 2")
    # a Hamming code of redundancy u and one parity check over GF(q^m)
    return Family(field_of_order(q), (2, m), (q ** (m * u) - 1) // (q ** m - 1), m * (u + 1),
                  (True, "none (no lambda condition)"))


@_recipe
def quasi_perfect_2xm(q: int, m: int, u: int) -> IngredientSumRankCode:
    """2 x m quasi-perfect family: Hamming plus single-parity ingredients."""
    fam = _quasi_perfect_2xm_family(q, m, u)
    ext = fam.base.extension(m)
    return sr_linearized([hm.hamming_code(ext, u), hm.parity_check_code(ext, fam.t)],
                         designed_distance=3)


@_recipe
def quasi_perfect_2x2(t: int = 6) -> IngredientSumRankCode:
    """Binary 2 x 2 quasi-perfect family from the hexacode, a [6,3,4]_4 covering-2 code."""
    _gate(t == 6, "the hexacode ingredient has length 6, so t must be 6")
    ext = make_field(2, [1]).extension(2)
    return sr_linearized([hm.parity_check_code(ext, t), hm.search_634_ingredient(ext)],
                         designed_distance=4)


def _cyclic_d4_code(n: int, field: Field, generators=(0, 1, 2)) -> hm.LinearCode:
    """The cyclic code of the cosets of `generators`, stamped 4 where its proven end is 4."""
    code = hm.cyclic_code(n, field, generators)
    code.designed_distance = 4 if code.proven.d_lo >= 4 else None
    return code


def _cyclic_d4_family(q: int, m: int, lam: int = 1) -> Family:
    base, n, size = _cyclic_length(q, m, lam, "q^m")
    return Family(base, (1, 1), n, size,
                  (2 * q * lam * lam < (q - 1) ** 2, f"2*{q}*{lam}^2 < ({q}-1)^2"))


@_recipe
def cyclic_d4(q: int, m: int, lam: int = 1) -> hm.LinearCode:
    """Distance-4 cyclic family over GF(q), defining set C0 u C1 u C2."""
    fam = _cyclic_d4_family(q, m, lam)
    return _cyclic_d4_code(fam.t, fam.base)


@_recipe
def cyclic_d4_alt(q: int, m: int) -> hm.LinearCode:
    """Distance-4 ternary/quinary cyclic family with split defining sets."""
    _gate(q in (3, 5), "this family is defined for q in {3, 5}")
    gens = [0, 1, 5] if q == 3 else [0, 1, 3]
    base = field_of_order(q)
    n = q ** m - 1
    if n <= max(gens):
        _gate(False, f"length {int_text(n)} is too short for the defining set")
    code = hm.cyclic_code(n, base, gens)
    code.designed_distance = 4
    return code


def _distance_optimal_sxs_family(q: int, s: int, m: int, lam: int = 1) -> Family:
    _gate(s >= 2, "matrix size s must be at least 2")
    base, t, size = _cyclic_length(q, s * m, lam, "q^(sm)", s)
    return Family(base, (s, s), t, s * (size + _parity_count(s - 1)),
                  (2 * (q - 1) ** 2 * lam * lam < q ** s - 1, f"2*({q}-1)^2*{lam}^2 < {q}^{s} - 1"))


@_recipe
def distance_optimal_sxs(q: int, s: int, m: int, lam: int = 1) -> IngredientSumRankCode:
    """s x s distance-4 family from a cyclic code plus trivial ingredients."""
    fam = _distance_optimal_sxs_family(q, s, m, lam)
    ext = fam.base.extension(s)
    return sr_linearized([_cyclic_d4_code(fam.t, ext), *_trivial_codes(ext, fam.t, s - 1)],
                         designed_distance=4)


def _distance_optimal_rect_family(q: int, s1: int, s2: int, m: int, lam: int = 1) -> Family:
    _gate(1 < s1 < s2, "need 1 < s1 < s2")
    base, t, size = _cyclic_length(q, s2 * m, lam, "q^(s2 m)", s2)
    return Family(base, (s1, s2), t, s2 * (size + _parity_count(s1 - 1)),
                  (2 * q ** s2 * (q - 1) ** 2 * lam * lam < (q ** s1 - 1) ** 2,
                   f"2*{q}^{s2}*({q}-1)^2*{lam}^2 < ({q}^{s1}-1)^2"))


@_recipe
def distance_optimal_rect(q: int, s1: int, s2: int, m: int,
                          lam: int = 1) -> IngredientSumRankCode:
    """s1 x s2 (s1 < s2) distance-4 family over GF(q^(s2))."""
    fam = _distance_optimal_rect_family(q, s1, s2, m, lam)
    ext = fam.base.extension(s2)
    return sr_linearized([_cyclic_d4_code(fam.t, ext), *_trivial_codes(ext, fam.t, s1 - 1)],
                         designed_distance=4)


@_recipe
def distance_optimal_2x2(q: int) -> IngredientSumRankCode:
    """2 x 2 distance-4 family of block length q^4 - 1."""
    ext = field_of_order(q).extension(2)
    t = q ** 4 - 1
    return sr_linearized([_cyclic_d4_code(t, ext, [0, 1, ext.order + 1]),
                          hm.parity_check_code(ext, t)], designed_distance=4)


@_recipe
def almost_msrd_2x2(q: int, t: int) -> IngredientSumRankCode:
    """2 x 2 almost-MSRD family from a [t, t-3, 4] Reed-Solomon ingredient."""
    base = field_of_order(q)
    ext = base.extension(2)
    _gate(t <= ext.order, f"block length {t} exceeds q^2 = {ext.order}")
    _gate(t >= 4, "block length must be at least 4")
    c1 = hm.reed_solomon(ext, t, t - 3)
    c2 = hm.parity_check_code(ext, t)
    return sr_linearized([c1, c2], designed_distance=4)


def _plotkin_distance_optimal_family(s: int, m: int) -> Family:
    half = _distance_optimal_sxs_family(2, s, m)  # the gates and blocks of the second part
    # the first part, s trivial codes of which one is a parity check, adds its codimension
    return half._replace(t=2 * half.t, codim=half.codim + s * _parity_count(s, parities=1),
                         condition=(2 * (2 ** s - 1) ** 4 >= 2 ** (4 * s),
                                    f"2*(1 - 2^-{s})^4 >= 1"))


@_recipe
def plotkin_distance_optimal(s: int, m: int) -> PlotkinSumRankCode:
    """Binary s x s distance-4 family by doubling the block length."""
    half = _distance_optimal_sxs_family(2, s, m)
    first = _trivial_codes(half.base.extension(s), half.t, s, parities=1)
    # the second part is a recipe of its own and describes itself as one
    return PlotkinSumRankCode(sr_linearized(first, designed_distance=2),
                              distance_optimal_sxs(2, s, m))


@_recipe
def covering_repetition(q: int, m: int, t: int) -> IngredientSumRankCode:
    """Covering construction from m copies of the [t,1,t] repetition code."""
    base = field_of_order(q)
    ext = base.extension(m)
    ingredients = [hm.repetition_code(ext, t) for _ in range(m)]
    return sr_covering(ingredients)


# each condition family's `Family`, called with its recipe's parameters
FAMILIES = {"cyclic-d4": _cyclic_d4_family, "quasi-perfect-2xm": _quasi_perfect_2xm_family,
            "distance-optimal-sxs": _distance_optimal_sxs_family,
            "distance-optimal-rect": _distance_optimal_rect_family,
            "plotkin-distance-optimal": _plotkin_distance_optimal_family}


def condition_family(where: str, name: str):
    """The `FAMILIES` entry `name`; any other name is a UsageError after `where`."""
    if name not in FAMILIES:
        raise UsageError(f"{where}: no checks for family {name!r}; it checks {', '.join(FAMILIES)}")
    return FAMILIES[name]


def build_recipe(name: str, **params):
    if name not in RECIPES:
        raise UsageError(f"unknown recipe {name!r}; known: {sorted(RECIPES)}")
    fn = RECIPES[name]
    return fn(**bind_params(f"recipe {name}", signature_params(fn), params))
