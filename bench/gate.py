"""Correctness gate: each job's exit code and `--out` file against the reference.

The reference table (`reference.json`, written by `make_reference.py`) holds
per job the expected exit code and, for a certify job, the verdict, the exact
d and R (an `[lo, hi]` list for an interval, null when the job never reached
the value), the digest of the certificate subject and the flat parity-check
matrix of that code; for a construct job, the digest of the descriptor JSON.

A job fails when it exits 3 or 4, hits the per-job time cap, or differs from
the reference in any way, with one exception: a job the reference records as
inconclusive that now ends certified or refuted, with values inside the
reference interval, is an improvement.  Every decided d must come with a
`distance_witness` that is a codeword of weight d by Gaussian elimination.

    python3 bench/gate.py MANIFEST

checks the runs a manifest lists (JSON: a list of {"key", "exit", "timed_out",
"out"}) and prints their outcomes as one JSON list.  run.py calls it as a
child process, after the timed work, so that run.py's own process never grows by loading outputs, numpy or sumrank: a child's max-RSS counts
its parent's at the spawn.
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import asdict, dataclass, field as dc_field
from pathlib import Path

DECIDED = ("certified", "refuted")
VERDICT_EXIT = {"certified": 0, "refuted": 1, "inconclusive": 2}
ERROR_EXITS = (3, 4)


@dataclass
class Outcome:
    status: str  # "ok", "improved" or "failed"
    decided: bool
    verdict: str | None = None
    values: dict = dc_field(default_factory=dict)
    reason: str = ""

    @property
    def failed(self) -> bool:
        return self.status == "failed"


def digest(doc) -> str:
    """SHA-256 of the canonical (sorted, compact) JSON text of `doc`."""
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def certificate_values(cert: dict) -> dict:
    """d and R as the certificate states them; R is None when absent."""
    quantities = {q["name"]: q["value"] for q in cert.get("quantities", [])}
    return {"d": quantities.get("min_sum_rank_distance"),
            "R": quantities.get("covering_radius")}


def _inside(value, ref_value) -> bool:
    """An exact value that lies in the reference value or interval."""
    if not isinstance(value, int):
        return False
    if ref_value is None:
        return True
    if isinstance(ref_value, list):
        return ref_value[0] <= value <= ref_value[1]
    return value == ref_value


def witness_error(ref: dict, matrices, d: int) -> str | None:
    """Why `matrices` is not a weight-d codeword of the reference code, or None."""
    from sumrank.gf import parse_field
    from sumrank.spaces import MatrixProfile, SumRankWord, sum_rank_weight

    field = parse_field(ref["field"])
    flat = [x for mat in matrices for row in mat for x in row]
    for row in ref["parity"]:
        if len(row) != len(flat):
            return f"distance witness has {len(flat)} coordinates, not {len(row)}"
        acc = 0
        for h, v in zip(row, flat):
            if h != "0" and v:
                acc = field.add(acc, field.mul(int(h), v))
        if acc:
            return "distance witness is not a codeword"
    blocks = tuple((len(mat), len(mat[0])) for mat in matrices)
    word = SumRankWord(MatrixProfile(field, blocks),
                       tuple(tuple(tuple(row) for row in mat) for mat in matrices))
    weight = sum_rank_weight(word)
    if weight != d:
        return f"distance witness has sum-rank weight {weight}, not {d}"
    return None


def classify(ref: dict, exit_code: int | None, timed_out: bool, doc) -> Outcome:
    """Compare one job run with its reference entry."""
    if timed_out:
        return Outcome("failed", False, reason="hit the per-job time cap")
    if exit_code in ERROR_EXITS:
        return Outcome("failed", False, reason=f"exit code {exit_code}")
    if "descriptor_sha256" in ref:
        return _classify_construct(ref, exit_code, doc)
    return _classify_certify(ref, exit_code, doc)


def _classify_construct(ref: dict, exit_code, doc) -> Outcome:
    if exit_code != ref["exit"]:
        return Outcome("failed", False, reason=f"exit code {exit_code}, expected {ref['exit']}")
    if doc is None:
        return Outcome("failed", False, reason="no descriptor written")
    if digest(doc) != ref["descriptor_sha256"]:
        return Outcome("failed", False, reason="descriptor differs from the reference")
    return Outcome("ok", True, values={"dimension": doc["descriptor"].get("dimension")})


def _classify_certify(ref: dict, exit_code, doc) -> Outcome:
    if doc is None:
        return Outcome("failed", False, reason="no certificate written")
    verdict = doc.get("verdict")
    values = certificate_values(doc)

    def fail(why: str) -> Outcome:
        return Outcome("failed", False, verdict, values, why)

    if digest(doc.get("subject")) != ref["subject_sha256"]:
        return fail("certificate subject differs from the reference")
    if exit_code != VERDICT_EXIT.get(verdict):
        return fail(f"exit code {exit_code} does not match verdict {verdict!r}")
    ref_values = {"d": ref["d"], "R": ref["R"]}
    if verdict == ref["verdict"] and values == ref_values:
        status = "ok"
    elif (ref["verdict"] == "inconclusive" and verdict in DECIDED
          and all(_inside(values[k], ref_values[k]) for k in ("d", "R")
                  if values[k] is not None or ref_values[k] is not None)):
        status = "improved"
    else:
        return fail(f"verdict {verdict} d={values['d']} R={values['R']}, reference "
                    f"{ref['verdict']} d={ref['d']} R={ref['R']}")
    if isinstance(values["d"], int):
        witness = next((q["value"] for q in doc["quantities"]
                        if q["name"] == "distance_witness"), None)
        why = ("decided d without a distance_witness" if witness is None
               else witness_error(ref, witness, values["d"]))
        if why:
            return fail(why)
    return Outcome(status, verdict in DECIDED, verdict, values)


def _load(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


def main(argv: list[str]) -> int:
    reference = json.loads((Path(__file__).resolve().parent / "reference.json").read_text())
    with open(argv[0], encoding="utf-8") as fh:
        items = json.load(fh)
    outcomes = [asdict(classify(reference["jobs"][it["key"]], it["exit"], it["timed_out"],
                                _load(it["out"])))
                for it in items]
    print(json.dumps(outcomes))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
