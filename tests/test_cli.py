"""CLI: subcommands, exit codes, descriptor round trips, config files."""

import json

import pytest

from sumrank.cli import main, parse_params


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
