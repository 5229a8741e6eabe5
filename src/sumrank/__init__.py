"""Exact construction and certification of sum-rank-metric codes.

The package works at desk scale: every reported invariant is either an
exact enumeration result with a stated method, or a bound evaluation
whose hypotheses were verified before the number was produced.
"""

__version__ = "0.1.0"

import os

# sumrank does only integer arithmetic: no code path calls BLAS, and the one
# integer `@` (syndrome.block_syndromes) runs numpy's own loop.  Without this,
# OpenBLAS starts a worker thread at `import numpy` that spins for about 0.13 s
# of CPU per process and is never used.  It must precede the first numpy
# import; a value the user has set is kept.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .gf import Field, FieldElement, make_field
from .spaces import (MatrixProfile, SumRankWord, ball_volume_exact,
                     count_rank_matrices, hamming_ball_volume, rank,
                     sum_rank_distance, sum_rank_weight)
from .hamming import (LinearCode, covering_radius, cyclic_code,
                      cyclotomic_coset, min_distance)
from .construct import (SumRankCode, build_recipe, extend_full_blocks,
                        plotkin, sr_covering, sr_linearized)
from .certify import (Certificate, certify_code, perfection_verdict,
                      singleton_defect, singleton_like_bound,
                      sphere_packing_check, sr_covering_radius,
                      sr_min_distance)

__all__ = [
    "Field", "FieldElement", "make_field",
    "MatrixProfile", "SumRankWord", "ball_volume_exact", "count_rank_matrices",
    "hamming_ball_volume", "rank", "sum_rank_distance", "sum_rank_weight",
    "LinearCode", "covering_radius", "cyclic_code", "cyclotomic_coset",
    "min_distance",
    "SumRankCode", "build_recipe", "extend_full_blocks", "plotkin",
    "sr_covering", "sr_linearized",
    "Certificate", "certify_code", "perfection_verdict", "singleton_defect",
    "singleton_like_bound", "sphere_packing_check", "sr_covering_radius",
    "sr_min_distance",
]
