"""Brute-force oracles shared by the test modules."""


def hamming_weight(vec) -> int:
    """Number of nonzero entries of a vector."""
    return sum(1 for v in vec if v)
