"""Brute-force oracles shared by the test modules."""

import math
from fractions import Fraction
from functools import reduce
from math import gcd

import numpy as np

from sumrank.certify import BoundRecord, sr_min_distance
from sumrank.gf import array_mul, digit_adder, nullspace, rref
from sumrank.spaces import SumRankWord, brute_rank_array, brute_weight_array, rank_distribution


def brute_rank_counts(field, n: int, m: int) -> list[int]:
    """The number of n x m matrices of each rank, counted from the elimination table."""
    ranks = brute_rank_array(field, n, m)
    return [int((ranks == r).sum()) for r in range(min(n, m) + 1)]


def matrix_sub(field, a, b):
    """The difference a - b of two block matrices, cell by cell."""
    return tuple(tuple(field.sub(x, y) for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def word_sub(x, y):
    """The difference x - y of two words of one profile, block by block."""
    if x.profile != y.profile:
        raise ValueError("profile mismatch")
    f = x.profile.field
    return SumRankWord(x.profile,
                       tuple(matrix_sub(f, a, b) for a, b in zip(x.matrices, y.matrices)))


def brute_ball_volume(profile, r: int) -> int:
    """Ball volume by full ambient enumeration (oracle for the DP path)."""
    return int((brute_weight_array(profile) <= r).sum())


def convolved_weight_counts(profile) -> list[int]:
    """The number of words of each sum-rank weight 0 .. N, by convolving the rank
    distributions one block at a time (the reference for `spaces.weight_counts`)."""
    counts = [1]
    for n, m in profile.blocks:
        dist = rank_distribution(n, m, profile.q)
        counts = [sum(dist[k] * counts[w - k] for k in range(len(dist)) if 0 <= w - k < len(counts))
                  for w in range(len(counts) + len(dist) - 1)]
    return counts


def singleton_walk(blocks, d: int) -> int:
    """The Singleton-like exponent by a walk over the blocks one at a time (the reference
    for `certify.singleton_like_exponent`): sorted by m, then n, both descending,
    d = n_1 + ... + n_j + delta + 1 with delta < n_(j+1) decides it as the area of the
    blocks from j + 1 on less m_(j+1) delta."""
    if not 1 <= d <= sum(n for n, _ in blocks):
        raise ValueError(f"distance {d} out of range")
    blocks = sorted(blocks, key=lambda nm: (-nm[1], -nm[0]))
    prefix = 0
    for j, (n, m) in enumerate(blocks):
        delta = d - 1 - prefix
        if delta <= n - 1:
            return sum(ni * mi for ni, mi in blocks[j:]) - m * delta
        prefix += n
    raise AssertionError("unreachable for d <= N")


def dp_work(field, codim: int, blocks) -> int:
    """The syndrome DP's work units, charged block by block (the reference for the sweep
    stop of `SumRankCode.dp_stop`): ((n - 1) L m e ceil(log2 p) + 1) q^codim + q^(nm) for an
    n x m block, L = (q^n - 1)/(q - 1) its rank-1 lines."""
    q, p, e = field.order, field.p, field.dim_over_prime
    return sum(((n - 1) * (q ** n - 1) // (q - 1) * m * e * math.ceil(math.log2(p)) + 1)
               * q ** codim + q ** (n * m) for n, m in blocks)


def counting(code) -> tuple:
    """What the counting checks read of a code: q, its block shape counts and its codim."""
    return code.profile.q, code.profile.shape_counts(), code.codim


def code_size(code) -> int:
    """|C| = q^dim, formed in full."""
    return code.base.order ** code.dim


def sphere_packing_full(profile, size: int, d: int) -> bool:
    """Sphere packing in its full-size form, |C| V_sr(floor((d - 1)/2)) <= q^N, the ball
    counted by convolution (the reference for `certify.sphere_packing_check`)."""
    return size * sum(convolved_weight_counts(profile)[:(d - 1) // 2 + 1]) <= profile.ambient_size


def singleton_full(profile, size: int, d: int) -> bool:
    """The Singleton-like bound in its full-size form, |C| <= q^e, with e by the block walk
    (the reference for the `singleton` rule's exponent comparison)."""
    return size <= profile.q ** singleton_walk(profile.blocks, d)


def scalar_op_table(field, kind: str) -> np.ndarray:
    """The Q x Q table of `field.add` or `field.mul`, one scalar call per cell
    (the reference for `Field.np_table`)."""
    op, q = getattr(field, kind), field.order
    return np.array([[op(a, b) for b in range(q)] for a in range(q)], dtype=np.int64)


def hamming_weight(vec) -> int:
    """Number of nonzero entries of a vector."""
    return sum(1 for v in vec if v)


def generator_parity(code) -> np.ndarray:
    """The flat parity by the generator path: nullspace(RREF(flat generator rows)).

    The generator rows must be independent; the result is in the nullspace
    form that `SumRankCode.flat_parity` reproduces from the parity checks,
    and in its format, an int64 array of shape (codim, N).
    """
    rows = code.flat_rows(code._generator_rows_packed())
    red, pivots = rref(code.base, rows)
    assert len(red) == len(rows), "dependent generator rows"
    basis = nullspace(code.base, red, code.ambient_dim, pivots=pivots)
    return np.array(basis, dtype=np.int64).reshape(len(basis), code.ambient_dim)


def generator_polynomial(code) -> list[int]:
    """g(x) = prod_(i in T) (x - beta^i) of a cyclic code, little-endian, from its defining
    set T alone: beta = gamma^((Q^l - 1)/n) for the generator gamma of GF(Q^l), l = ord_n(Q)."""
    f, n = code.field, code.n
    ext = f.extension(next(ell for ell in range(1, n + 1) if (f.order ** ell - 1) % n == 0))
    beta = ext.pow(ext.generator, (ext.order - 1) // n)
    g = [1]
    for i in code.defining_set:  # g(x) (x - beta^i), coefficient j: g_(j-1) - beta^i g_j
        g = [ext.sub(a, ext.mul(ext.pow(beta, i), b)) for a, b in zip([0] + g, g + [0])]
    return g if ext is f else [ext.project(c) for c in g]


def unit_syndromes(field, parity, n: int) -> np.ndarray:
    """U[j, i]: the syndrome index of the unit digit p^i alone at position j of n.

    The per-position formula sum_k mul(p^i, H[k][j]) q^k, one field product
    at a time, in Python ints; a parity with no rows gives n zero columns.
    """
    p, q = field.p, field.order
    columns = list(zip(*parity)) or [()] * n
    units = [[sum(field.mul(p ** i, int(h)) * q ** k for k, h in enumerate(col))
              for i in range(field.dim_over_prime)] for col in columns]
    return np.array(units, dtype=object).reshape(n, field.dim_over_prime)


def contains_packed(code, packed) -> bool:
    """Whether a packed word is a codeword: flat_rows(word) @ H^T = 0.

    Products come from the field's tables; a GF(p^e) sum is digit-wise mod
    p, so every base-p digit of every product is summed mod p.
    """
    f = code.base
    word = code.flat_rows([packed])
    parity = np.array(code.flat_parity, dtype=np.int64).reshape(-1, code.ambient_dim)
    products = array_mul(f)(word, parity)
    digits = products[:, :, None] // f.p ** np.arange(f.dim_over_prime) % f.p
    return not (digits.sum(axis=1) % f.p).any()


def encode(code, messages) -> tuple[int, ...]:
    """The packed word of an ingredient code (`construct.IngredientSumRankCode`)
    from one message vector per ingredient, each encoded by its generator."""
    assert list(map(len, messages)) == [c.k for c in code.ingredients]
    mul, add = array_mul(code.ext), digit_adder(code.base.p, code.ext.dim_over_prime)
    symbol_rows = []
    for msg, ingredient in zip(messages, code.ingredients):
        gen = np.array(ingredient.generator, dtype=np.int64).reshape(ingredient.k, code.t)
        terms = mul(np.array(msg, dtype=np.int64)[:, None], gen)
        symbol_rows.append(reduce(add, terms, np.zeros(code.t, dtype=np.int64)))
    return code.packed_from_symbols(symbol_rows)


def composition_source(code):
    """The composition source's interval of d for an ingredient code: its ingredients'
    ends from their theorems or from `sr_min_distance`, and no engine on the code itself."""
    return next(s for s in code.distance_bounds(sr_min_distance)
                if not isinstance(s, str))


def radius2_ball_lower_bound(t: int, s: int, q: int) -> Fraction:
    """Lower bound t(t-1)(q^s-1)^4 / (2(q-1)^2) for the radius-2 ball."""
    if t < 2:
        raise ValueError("block count must be at least 2")
    if s < 1:
        raise ValueError("matrix size must be positive")
    return Fraction(t * (t - 1) * (q ** s - 1) ** 4, 2 * (q - 1) ** 2)


def hartmann_tzeng_bound(T, n: int, A, B, b: int, s: int) -> int:
    """Certified bound delta + s after verifying every hypothesis; A is listed in run order,
    so a run may wrap past n - 1 to 0."""
    Ts = set(x % n for x in T)
    A = [x % n for x in A]
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


def blf_relation_check(q: int, m: int, r: int, R: int) -> BoundRecord:
    """Divisibility-gated reduction of the block length function."""
    if r % (m * m) != 0:
        raise ValueError(f"divisibility gate failed: {m}^2 does not divide r = {r}")
    if R % m != 0:
        raise ValueError(f"divisibility gate failed: {m} does not divide R = {R}")
    return BoundRecord(
        f"blf(q={q},m={m},{r},{R}) <= blf(q^{m},{r // (m * m)},{R // m})", True,
        ("reduction to the Hamming-metric length function",))


def blf_witness(code, radius: int) -> BoundRecord:
    """A constructed covering code witnesses blf(codim, radius) <= t."""
    ms = {m for _, m in code.profile.blocks}
    ns = {n for n, _ in code.profile.blocks}
    if len(ms) != 1 or ms != ns:
        raise ValueError("block length functions concern homogeneous m x m profiles")
    m = ms.pop()
    return BoundRecord(
        f"blf(q={code.base.order},m={m},{code.codim},{radius}) <= {code.profile.t}",
        code.profile.t,
        (f"witnessed by a constructed code of codimension {code.codim} "
         f"with exact covering radius {radius}",))


def size_bound_from_witness(q: int, m: int, t: int, R: int, hamming_K: int) -> BoundRecord:
    """K_{q,m}(t, R) <= K_{q^m}(t, R/m)^m given a witnessed Hamming value."""
    if R % m != 0:
        raise ValueError(f"divisibility gate failed: {m} does not divide R = {R}")
    return BoundRecord(f"K(q={q},m={m};t={t},R={R})", hamming_K ** m,
                       (f"from a Hamming covering code witnessing "
                        f"K_(q^m)(t,{R // m}) <= {hamming_K}",))


def low_weight_words(code, w: int) -> set:
    """The codewords of Hamming weight w whose first nonzero entry is 1, at position 0 for a
    code with a defining set: what `hamming.iter_low_weight` yields, from `codeword_list`."""
    return {v for v in code.codeword_list() if hamming_weight(v) == w
            and next(x for x in v if x) == 1 and (code.defining_set is None or v[0])}
