"""The benchmark's job grids: one list of `sumrank` CLI argument vectors per workload.

The constructions are deterministic, so a workload seed only permutes job
order.  Each job is run as `python -m sumrank.cli <argv> --out FILE`.
"""

from __future__ import annotations

import random

WORKLOADS: dict[str, tuple[tuple[str, ...], ...]] = {
    # The ROADMAP baseline grid.  The composed witness search (d) and the
    # coset-leader walk (R) do most of the work, at codim <= 8; three jobs end
    # inconclusive, so decided_frac can move.
    "certify-paper": (
        ("certify", "quasi-perfect", "--recipe", "quasi-perfect-2xm", "q=2", "m=2", "u=2"),
        ("certify", "quasi-perfect", "--recipe", "quasi-perfect-2x2", "t=6"),
        ("certify", "distance-optimal", "--recipe", "distance-optimal-2x2", "q=3"),
        ("certify", "quasi-perfect", "--recipe", "quasi-perfect-2xm", "q=4", "m=2", "u=2"),
        ("certify", "quasi-perfect", "--recipe", "almost-msrd-2x2", "q=3", "t=9"),
        ("certify", "quasi-perfect", "--recipe", "distance-optimal-sxs", "q=3", "s=2", "m=1"),
        ("certify", "quasi-perfect", "--recipe", "quasi-perfect-2xm", "q=3", "m=2", "u=3"),
        ("certify", "quasi-perfect", "--recipe", "quasi-perfect-2xm", "q=5", "m=2", "u=2"),
    ),
    # The certify layer from the codeword side: every claim needs d only, from
    # exhaustive enumeration of up to 2^16 codewords or the Plotkin rule, at
    # codim 8 to 240.  A syndrome DP or a dispatch change must not move it.
    "certify-enum": (
        ("certify", "singleton", "--recipe", "covering-repetition", "q=2", "m=4", "t=8"),
        ("certify", "msrd", "--recipe", "covering-repetition", "q=2", "m=4", "t=12"),
        ("certify", "sphere-packing", "--recipe", "covering-repetition", "q=2", "m=4", "t=16"),
        ("certify", "msrd", "--recipe", "quasi-perfect-2x2", "t=6"),
        ("certify", "almost-msrd", "--recipe", "almost-msrd-2x2", "q=2", "t=4"),
        ("certify", "distance-optimal", "--recipe", "plotkin-distance-optimal", "s=3", "m=1"),
    ),
    # Construction only: extension-field tables (GF(729), GF(625), GF(256))
    # and ingredient linear algebra; the certify engines never run.
    "construct-paper": (
        ("construct", "quasi-perfect-2xm", "q=3", "m=2", "u=3"),
        ("construct", "quasi-perfect-2xm", "q=5", "m=2", "u=2"),
        ("construct", "distance-optimal-2x2", "q=4"),
        ("construct", "distance-optimal-2x2", "q=3"),
        ("construct", "almost-msrd-2x2", "q=7", "t=49"),
        ("construct", "cyclic-d4", "q=4", "m=3", "lam=1"),
        ("construct", "cyclic-d4-alt", "q=3", "m=3"),
    ),
}


def job_key(argv) -> str:
    """The job's name in the reference table and in the detail rows."""
    return " ".join(argv)


def ordered_jobs(workload: str, seed: int) -> list[tuple[str, ...]]:
    """The workload's jobs in the order the seed gives."""
    jobs = list(WORKLOADS[workload])
    random.Random(seed).shuffle(jobs)
    return jobs
