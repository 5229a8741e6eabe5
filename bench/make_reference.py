"""Write bench/reference.json: the expected outcome of every benchmark job.

    PYTHONPATH=src python3 bench/make_reference.py

Runs each job once through `sumrank.cli.main` and records its exit code,
verdict and exact values (certify) or descriptor digest (construct), plus,
for certify jobs, the code's base field and flat parity-check matrix, which
the gate uses to check distance witnesses without rebuilding the code.

The table pins the program's answers.  Regenerate it only when a change of
verdict or value is intended and reviewed; never to make a difference go away.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import gate
from workloads import WORKLOADS, job_key

BENCH = Path(__file__).resolve().parent
REFERENCE = BENCH / "reference.json"


def recipe_of(argv):
    """(recipe name, parameters) of a certify job's argv."""
    from sumrank.cli import parse_params

    recipe = argv[argv.index("--recipe") + 1]
    return recipe, parse_params([a for a in argv if "=" in a])


def reference_entry(argv, out_path: str) -> dict:
    from sumrank.cli import main
    from sumrank.construct import build_recipe

    with contextlib.redirect_stdout(io.StringIO()):
        exit_code = main(list(argv) + ["--out", out_path])
    with open(out_path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if argv[0] == "construct":
        return {"exit": exit_code, "descriptor_sha256": gate.digest(doc),
                "dimension": doc["descriptor"].get("dimension")}
    recipe, params = recipe_of(argv)
    code = build_recipe(recipe, **params)
    if code.base.order > 10:
        raise ValueError("parity rows are stored as one decimal digit per entry")
    values = gate.certificate_values(doc)
    return {"exit": exit_code, "verdict": doc["verdict"], "d": values["d"], "R": values["R"],
            "subject_sha256": gate.digest(doc["subject"]),
            "field": code.base.describe(),
            "parity": ["".join(map(str, row)) for row in code.flat_parity]}


def main() -> int:
    jobs = {}
    work = BENCH.parent / ".bench_build"
    work.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as tmp:
        for workload, grid in WORKLOADS.items():
            for argv in grid:
                jobs[job_key(argv)] = reference_entry(argv, str(Path(tmp) / "out.json"))
                print(f"{workload}: {job_key(argv)} -> "
                      f"{ {k: v for k, v in jobs[job_key(argv)].items() if k != 'parity'} }",
                      file=sys.stderr)
    REFERENCE.write_text(json.dumps({"jobs": jobs}, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
