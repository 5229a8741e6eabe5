"""The reference table's values, reproduced by the repository's oracles.

Only jobs small enough for the oracles are covered: d by Gaussian-elimination
weights (`spaces.sum_rank_weight`) over every codeword of `enumerate_packed`,
R by the full ambient sweep `sr_covering_radius_sweep`.
"""

import json
from pathlib import Path

import pytest

import gate
from make_reference import recipe_of
from workloads import job_key

REFERENCE = json.loads((Path(gate.__file__).parent / "reference.json").read_text())["jobs"]

SMALL_JOBS = [
    ("certify", "quasi-perfect", "--recipe", "quasi-perfect-2xm", "q=2", "m=2", "u=2"),
    ("certify", "almost-msrd", "--recipe", "almost-msrd-2x2", "q=2", "t=4"),
    ("certify", "msrd", "--recipe", "quasi-perfect-2x2", "t=6"),
]


def _code(argv):
    from sumrank.construct import build_recipe

    recipe, params = recipe_of(argv)
    return build_recipe(recipe, **params)


def _elimination_distance(code) -> int:
    from sumrank.spaces import sum_rank_weight

    return min(w for w in (sum_rank_weight(code.to_word(p)) for p in code.enumerate_packed())
               if w)


@pytest.mark.parametrize("argv", SMALL_JOBS, ids=job_key)
def test_distance_matches_elimination_oracle(argv):
    assert _elimination_distance(_code(argv)) == REFERENCE[job_key(argv)]["d"]


def test_covering_radius_matches_ambient_sweep():
    from sumrank.certify import sr_covering_radius_sweep

    argv = SMALL_JOBS[0]
    radius, _ = sr_covering_radius_sweep(_code(argv))
    assert radius == REFERENCE[job_key(argv)]["R"]


@pytest.mark.parametrize("argv", SMALL_JOBS, ids=job_key)
def test_stored_parity_is_the_codes_parity(argv):
    code = _code(argv)
    ref = REFERENCE[job_key(argv)]
    assert ref["parity"] == ["".join(map(str, row)) for row in code.flat_parity]
    assert ref["field"] == code.base.describe()
