"""CLI: subcommands, exit codes, descriptor round trips, config files."""

import hashlib
import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

from sumrank import hamming as hm
from sumrank.cli import main, parse_params

SRC = Path(__file__).resolve().parents[1] / "src"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_selftest(capsys):
    code, out, _ = run(capsys, "selftest")
    assert code == 0
    assert "[PASS]" in out and "[FAIL]" not in out


def test_construct_summary(capsys):
    code, out, _ = run(capsys, "construct", "quasi-perfect-2xm", "q=2", "m=2", "u=2")
    assert code == 0
    assert "t = 5" in out and "dim 14" in out


def test_construct_certify_roundtrip(tmp_path, capsys):
    desc = tmp_path / "code.json"
    cert = tmp_path / "cert.json"
    code, out, _ = run(capsys, "construct", "almost-msrd-2x2", "q=2", "t=4",
                       "--out", str(desc))
    assert code == 0 and desc.exists()
    code, out, _ = run(capsys, "certify", "almost-msrd", "--code", str(desc),
                       "--out", str(cert))
    assert code == 0
    payload = json.loads(cert.read_text())
    assert payload["verdict"] == "certified"
    assert payload["property"] == "almost-msrd"
    # the descriptor reloaded byte-identically
    saved = json.loads(desc.read_text())
    assert saved["recipe"] == "almost-msrd-2x2"


def test_corrupted_descriptor_rejected(tmp_path, capsys):
    desc = tmp_path / "code.json"
    run(capsys, "construct", "almost-msrd-2x2", "q=2", "t=4", "--out", str(desc))
    saved = json.loads(desc.read_text())
    saved["descriptor"]["dimension"] = 99
    desc.write_text(json.dumps(saved))
    code, out, err = run(capsys, "certify", "almost-msrd", "--code", str(desc))
    assert code == 3
    assert "descriptor mismatch" in err


def test_exit_codes_cover_verdicts(capsys):
    certified, _, _ = run(capsys, "certify", "distance-optimal",
                          "--recipe", "distance-optimal-2x2", "q=2")
    assert certified == 0
    refuted, _, _ = run(capsys, "certify", "msrd",
                        "--recipe", "almost-msrd-2x2", "q=2", "t=4")
    assert refuted == 1
    inconclusive, _, _ = run(capsys, "certify", "distance-optimal",
                             "--recipe", "cyclic-d4", "q=4", "m=2", "lam=1")
    assert inconclusive == 2
    usage, _, _ = run(capsys, "certify", "distance-optimal", "--recipe", "nope")
    assert usage == 4


def test_certify_hamming_recipe(capsys):
    code, out, _ = run(capsys, "certify", "distance-optimal",
                       "--recipe", "cyclic-d4", "q=4", "m=3", "lam=1")
    assert code == 0
    assert "min_distance" in out


def test_certify_hamming_budget_stop_is_inconclusive(capsys):
    code, out, _ = run(capsys, "certify", "quasi-perfect", "--recipe", "cyclic-d4",
                       "q=2", "m=3", "--syndrome-budget", "2")
    assert code == 2
    assert "syndrome budget 2 < 16 syndromes (q^codim)" in out


def test_sphere_packing_violation_is_internal_error(capsys, monkeypatch):
    from sumrank import certify as ct
    monkeypatch.setattr(ct, "sphere_packing_check",
                        lambda profile, size, d: ct.SpherePackingRecord(2, 1, False, False))
    code, _, err = run(capsys, "certify", "quasi-perfect", "--recipe",
                       "quasi-perfect-2xm", "q=2", "m=2", "u=2")
    assert code == 3
    assert "sphere packing violated" in err


def test_internal_error_names_the_exception(capsys, monkeypatch):
    from sumrank import construct as cs

    def out_of_memory(*args, **kwargs):
        raise MemoryError()

    monkeypatch.setattr(cs, "build_recipe", out_of_memory)
    code, _, err = run(capsys, "construct", "quasi-perfect-2xm", "q=2", "m=2", "u=2")
    assert code == 3
    assert err == "internal error: MemoryError\n"
    monkeypatch.setattr(cs, "build_recipe", lambda *a, **k: 1 / 0)
    code, _, err = run(capsys, "construct", "quasi-perfect-2xm", "q=2", "m=2", "u=2")
    assert code == 3
    assert err == "internal error: ZeroDivisionError: division by zero\n"


def test_bounds_strong_bch(capsys):
    code, out, _ = run(capsys, "bounds", "strong-bch",
                       "m=2", "t=65535", "e=2", "n=16", "d=33")
    assert code == 0
    assert "case 1" in out and "improves: True" in out
    code, out, _ = run(capsys, "bounds", "strong-bch",
                       "m=2", "t=65535", "e=2", "n=15", "d=33")
    assert code == 2 and "inapplicable" in out


def test_bounds_entropy_and_volume(capsys):
    code, out, _ = run(capsys, "bounds", "entropy", "Q=4", "rho=0.75")
    assert code == 0 and abs(float(out.strip()) - 1.0) < 1e-12
    code, out, _ = run(capsys, "bounds", "volume", "q=2", "blocks=2x2,2x2", "r=2")
    assert code == 0 and out.strip() == "112"


def test_bounds_bch_radius_interval(capsys):
    code, out, _ = run(capsys, "bounds", "bch-radius-interval", "e=2", "n=16")
    assert code == 0 and out.strip() == "[3, 4]"
    code, out, _ = run(capsys, "bounds", "bch-radius-interval", "e=2", "n=15")
    assert code == 2 and "inapplicable" in out


def test_bounds_condition(capsys):
    code, out, _ = run(capsys, "bounds", "condition",
                       "family=cyclic-d4", "q=4", "m=3", "lam=1")
    assert code == 0
    code, out, _ = run(capsys, "bounds", "condition",
                       "family=cyclic-d4", "q=4", "m=2", "lam=1")
    assert code == 2
    assert "991" in out


def test_table_strong_bch(capsys):
    code, out, _ = run(capsys, "table", "strong-bch", "m=2", "e=2", "n=16",
                       "t=65535,70000")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 1 + 2 * (1 + 16)
    assert "n/a" in out and "strong" in out
    code, out, _ = run(capsys, "table", "strong-bch", "m=2", "e=2", "n=16", "t=")
    assert code == 0
    assert len(out.strip().splitlines()) == 1  # header only


def test_config_file(tmp_path, capsys):
    cfg = tmp_path / "job.cfg"
    cfg.write_text("q = 2\nm = 2\nu = 2\n# comment\n")
    code, out, _ = run(capsys, "construct", "quasi-perfect-2xm",
                       "--config", str(cfg))
    assert code == 0 and "dim 14" in out
    # command-line tokens override the file
    code, out, _ = run(capsys, "construct", "quasi-perfect-2xm",
                       "--config", str(cfg), "u=3")
    assert code == 0 and "t = 21" in out


def test_parse_params():
    assert parse_params(["a=1", "b=x", "c=1.5"]) == {"a": 1, "b": "x", "c": 1.5}
    with pytest.raises(ValueError, match="key=value"):
        parse_params(["oops"])


def test_usage_errors(capsys):
    assert run(capsys, "construct", "no-such-recipe")[0] == 4
    assert main(["bogus-command"]) == 4
    assert main([]) == 4


def test_selftest_takes_no_parameters(tmp_path, capsys):
    cfg = tmp_path / "job.cfg"
    cfg.write_text("x = 1\n")
    assert run(capsys, "selftest", "x=1")[0] == 4
    code, _, err = run(capsys, "selftest", "--config", str(cfg))
    assert code == 4 and "--config" in err


def test_missing_recipe_parameter_is_usage_error(capsys):
    code, _, err = run(capsys, "construct", "quasi-perfect-2xm", "q=2", "m=2")
    assert code == 4
    assert "missing parameters ['u']" in err and "internal" not in err


def test_workers_option_removed(tmp_path, capsys):
    code, _, err = run(capsys, "certify", "almost-msrd", "--recipe", "almost-msrd-2x2",
                       "q=2", "t=4", "--workers", "2")
    assert code == 4 and "--workers" in err
    # certificates of repeated runs are byte-identical
    certs = [tmp_path / "a.json", tmp_path / "b.json"]
    for cert in certs:
        code, _, _ = run(capsys, "certify", "almost-msrd", "--recipe", "almost-msrd-2x2",
                         "q=2", "t=4", "--out", str(cert))
        assert code == 0
    assert certs[0].read_bytes() == certs[1].read_bytes()


def test_construct_over_log_table_fields(capsys):
    # the single-parity ingredient of length 273 needs no splitting field, and
    # the cyclic-d4 code multiplies in GF(2048) through its exp/log tables
    code, out, _ = run(capsys, "construct", "quasi-perfect-2xm", "q=4", "m=2", "u=3")
    assert code == 0 and "t = 273 blocks of 2x2" in out
    code, out, _ = run(capsys, "construct", "cyclic-d4", "q=2", "m=11", "lam=23")
    assert code == 0 and "[89,77,4]_2" in out


@pytest.mark.parametrize("params,t,block", [
    (("q=2", "m=4", "t=8"), 8, [[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 0]]),
    (("q=3", "m=2", "t=9"), 9, [[0, 0], [1, 0]]),
])
def test_enumeration_witness_is_pinned(tmp_path, capsys, params, t, block):
    # the witness is the first least-weight word of the enumeration order;
    # another order would pick another weight-t word and change the certificate
    cert = tmp_path / "cert.json"
    code, _, _ = run(capsys, "certify", "singleton", "--recipe", "covering-repetition",
                     *params, "--out", str(cert))
    assert code == 0
    quantities = {q["name"]: q for q in json.loads(cert.read_text())["quantities"]}
    assert quantities["min_sum_rank_distance"]["value"] == t
    assert quantities["min_sum_rank_distance"]["method"] == "exhaustive"
    assert quantities["distance_witness"]["value"] == [block] * t


ZERO_2X2 = [[0, 0], [0, 0]]


@pytest.mark.parametrize("claim,recipe,params,exit_code,d,witness", [
    ("quasi-perfect", "quasi-perfect-2xm", ("q=2", "m=2", "u=2"), 0, 3,
     [[[0, 0], [1, 1]], [[0, 1], [0, 1]], [[1, 0], [0, 0]]] + [ZERO_2X2] * 2),
    ("quasi-perfect", "quasi-perfect-2x2", ("t=6",), 0, 4,
     [[[1, 1], [1, 0]], [[1, 1], [1, 0]]] + [ZERO_2X2] * 4),
    ("quasi-perfect", "almost-msrd-2x2", ("q=3", "t=9"), 1, 4,
     [[[0, 2], [2, 0]], [[0, 1], [1, 0]]] + [ZERO_2X2] * 7),
    ("quasi-perfect", "distance-optimal-sxs", ("q=3", "s=2", "m=1"), 1, 4,
     [[[0, 2], [2, 0]], [[0, 1], [1, 0]]] + [ZERO_2X2] * 6),
], ids=["quasi-perfect-2xm", "quasi-perfect-2x2", "almost-msrd-2x2", "distance-optimal-sxs"])
def test_dp_witness_is_pinned(tmp_path, capsys, claim, recipe, params, exit_code, d,
                              witness):
    # the DP walks back from the last block, taking the smallest block value
    # at each tie; another walk would pick another weight-d word
    cert = tmp_path / "cert.json"
    code, _, _ = run(capsys, "certify", claim, "--recipe", recipe, *params,
                     "--out", str(cert))
    assert code == exit_code
    quantities = {q["name"]: q for q in json.loads(cert.read_text())["quantities"]}
    assert quantities["min_sum_rank_distance"]["value"] == d
    assert quantities["min_sum_rank_distance"]["method"] == "syndrome-dp"
    assert quantities["distance_witness"]["value"] == witness


@pytest.mark.parametrize("argv,sha256", [
    (("construct", "distance-optimal-2x2", "q=3"),
     "c3ed45fcb063272dafedbe3f89622ed3dc77f3cae8c1861caadeab9f8d5984bc"),
    (("certify", "quasi-perfect", "--recipe", "quasi-perfect-2xm", "q=2", "m=2", "u=2"),
     "ad9752e5ff14273cf3e529fd4fe505d942ce6e6a2814531c321e4bff37edae3d"),
], ids=["descriptor", "certificate"])
def test_out_bytes_are_pinned(tmp_path, capsys, argv, sha256):
    # the hashes are those of json.dump(s)(..., sort_keys=True, indent=2),
    # which wrote both kinds of --out file before the streaming writer
    out = tmp_path / "out.json"
    assert run(capsys, *argv, "--out", str(out))[0] == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256


def test_dense_size_gate_refuses_before_building(capsys):
    # the length-32767 cyclic ingredient over GF(8) would need a 32756 x 32767
    # generator; the gate refuses it from k and n alone
    tracemalloc.start()
    start = time.perf_counter()
    try:
        code, _, err = run(capsys, "construct", "distance-optimal-sxs",
                           "q=2", "s=3", "m=5", "lam=1")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 4
    assert f"{32756 * 32767} cells" in err and str(hm.DENSE_CELL_LIMIT) in err
    assert time.perf_counter() - start < 5
    assert peak < 8 << 20


def _fresh_python(code: str, **env) -> str:
    clean = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    clean["PYTHONPATH"] = str(SRC)
    return subprocess.run([sys.executable, "-c", code], env=dict(clean, **env),
                          capture_output=True, text=True, check=True).stdout.split()


def test_no_blas_thread_pool_by_default():
    threads = ("len(os.listdir('/proc/self/task')) if os.path.isdir('/proc/self/task') "
               "else -1")
    env_value, n_threads = _fresh_python(
        "import os, sumrank; value = os.environ['OPENBLAS_NUM_THREADS']; "
        f"import sumrank.cli; print(value, {threads})")
    assert env_value == "1"
    if n_threads == "-1":
        pytest.skip("no /proc/self/task to count threads")
    assert n_threads == "1"


def test_user_blas_setting_is_kept():
    assert _fresh_python("import os, sumrank; print(os.environ['OPENBLAS_NUM_THREADS'])",
                         OPENBLAS_NUM_THREADS="3") == ["3"]
