"""Gate classification of job outcomes against the reference table."""

import contextlib
import copy
import io
import json
from pathlib import Path

import pytest

import gate
from workloads import WORKLOADS, job_key

REFERENCE = json.loads((Path(gate.__file__).parent / "reference.json").read_text())["jobs"]
SMALL_JOB = ("certify", "quasi-perfect", "--recipe", "quasi-perfect-2xm", "q=2", "m=2", "u=2")
CONSTRUCT_JOB = ("construct", "cyclic-d4-alt", "q=3", "m=3")


def _run(argv, tmp_path):
    from sumrank.cli import main

    out = tmp_path / "out.json"
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(list(argv) + ["--out", str(out)])
    return code, json.loads(out.read_text())


@pytest.fixture(scope="module")
def certified(tmp_path_factory):
    return _run(SMALL_JOB, tmp_path_factory.mktemp("cert"))


def test_reference_covers_every_job():
    keys = {job_key(argv) for grid in WORKLOADS.values() for argv in grid}
    assert keys == set(REFERENCE)


def test_matching_run_is_ok_and_decided(certified):
    code, cert = certified
    outcome = gate.classify(REFERENCE[job_key(SMALL_JOB)], code, False, cert)
    assert (outcome.status, outcome.decided) == ("ok", True)
    assert outcome.values == {"d": 3, "R": 2}


def test_wrong_value_fails(certified):
    code, cert = certified
    cert = copy.deepcopy(cert)
    for q in cert["quantities"]:
        if q["name"] == "covering_radius":
            q["value"] = 1
    assert gate.classify(REFERENCE[job_key(SMALL_JOB)], code, False, cert).failed


@pytest.mark.parametrize("exit_code", [3, 4])
def test_error_exit_fails(certified, exit_code):
    _, cert = certified
    outcome = gate.classify(REFERENCE[job_key(SMALL_JOB)], exit_code, False, cert)
    assert outcome.failed and f"exit code {exit_code}" in outcome.reason


def test_time_cap_fails(certified):
    code, cert = certified
    assert gate.classify(REFERENCE[job_key(SMALL_JOB)], code, True, cert).failed


def test_changed_decided_verdict_fails(certified):
    _, cert = certified
    cert = copy.deepcopy(cert)
    cert["verdict"] = "refuted"
    outcome = gate.classify(REFERENCE[job_key(SMALL_JOB)], 1, False, cert)
    assert outcome.failed and "reference certified" in outcome.reason


def _as_inconclusive(ref, d):
    return dict(ref, verdict="inconclusive", exit=2, d=d, R=None)


def test_inconclusive_to_certified_inside_interval_is_improvement(certified):
    code, cert = certified
    ref = _as_inconclusive(REFERENCE[job_key(SMALL_JOB)], [3, 4])
    outcome = gate.classify(ref, code, False, cert)
    assert (outcome.status, outcome.decided) == ("improved", True)


def test_inconclusive_to_certified_outside_interval_fails(certified):
    code, cert = certified
    ref = _as_inconclusive(REFERENCE[job_key(SMALL_JOB)], [4, 5])
    assert gate.classify(ref, code, False, cert).failed


def test_witness_that_is_not_a_codeword_fails(certified):
    code, cert = certified
    cert = copy.deepcopy(cert)
    witness = next(q for q in cert["quantities"] if q["name"] == "distance_witness")
    first = witness["value"][0][0]
    first[0] ^= 1
    outcome = gate.classify(REFERENCE[job_key(SMALL_JOB)], code, False, cert)
    assert outcome.failed and "witness" in outcome.reason


def test_construct_descriptor_is_checked(tmp_path):
    code, doc = _run(CONSTRUCT_JOB, tmp_path)
    ref = REFERENCE[job_key(CONSTRUCT_JOB)]
    assert gate.classify(ref, code, False, doc).status == "ok"
    doc["params"]["m"] = 4
    assert gate.classify(ref, code, False, doc).failed
