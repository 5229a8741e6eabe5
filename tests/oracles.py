"""Brute-force oracles shared by the test modules."""

import numpy as np

from sumrank.gf import array_mul, nullspace, rref


def hamming_weight(vec) -> int:
    """Number of nonzero entries of a vector."""
    return sum(1 for v in vec if v)


def generator_parity(code) -> tuple[tuple[int, ...], ...]:
    """The flat parity by the generator path: nullspace(RREF(flat generator rows)).

    The generator rows must be independent; the result is in the nullspace
    form that `SumRankCode.flat_parity` reproduces from the parity checks.
    """
    rows = code.flat_rows(code._generator_rows_packed())
    red, _ = rref(code.base, rows)
    assert len(red) == len(rows), "dependent generator rows"
    return tuple(nullspace(code.base, red, code.ambient_dim, reduced=True))


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
