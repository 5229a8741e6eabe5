"""CLI: subcommands, exit codes, descriptor round trips, config files."""

import errno
import hashlib
import json
import math
import os
import resource
import shlex
import stat
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

import sumrank
from sumrank import certify as ct
from sumrank import cli
from sumrank import construct as cs
from sumrank import hamming as hm
from sumrank import spaces as sp
from sumrank import syndrome as sd
from sumrank.cli import main, parse_params

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


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


def _write_corrupted_descriptor(desc: Path, capsys) -> None:
    run(capsys, "construct", "almost-msrd-2x2", "q=2", "t=4", "--out", str(desc))
    saved = json.loads(desc.read_text())
    saved["descriptor"]["dimension"] = 99
    desc.write_text(json.dumps(saved))


def test_corrupted_descriptor_rejected(tmp_path, capsys):
    desc = tmp_path / "code.json"
    _write_corrupted_descriptor(desc, capsys)
    code, out, err = run(capsys, "certify", "almost-msrd", "--code", str(desc))
    assert code == 3
    assert "descriptor mismatch" in err


def test_descriptor_params_are_the_codes_own(tmp_path, capsys):
    # the top-level recipe and params are the code's, defaults applied, as in
    # the nested descriptor; a file without a default still reloads
    desc = tmp_path / "code.json"
    run(capsys, "construct", "distance-optimal-sxs", "q=3", "s=2", "m=1", "--out", str(desc))
    saved = json.loads(desc.read_text())
    assert saved["recipe"] == saved["descriptor"]["recipe"] == "distance-optimal-sxs"
    assert saved["params"] == saved["descriptor"]["params"] == {"q": 3, "s": 2, "m": 1, "lam": 1}
    direct = run(capsys, "certify", "quasi-perfect", "--recipe", "distance-optimal-sxs",
                 "q=3", "s=2", "m=1")
    del saved["params"]["lam"]
    desc.write_text(json.dumps(saved))
    assert run(capsys, "certify", "quasi-perfect", "--code", str(desc)) == direct
    saved["descriptor"]["params"]["lam"] = 2
    desc.write_text(json.dumps(saved))
    code, _, err = run(capsys, "certify", "quasi-perfect", "--code", str(desc))
    assert code == 3 and "descriptor mismatch" in err


def test_code_takes_no_recipe_or_parameters(tmp_path, capsys, monkeypatch):
    from sumrank import construct as cs

    desc, cfg = tmp_path / "code.json", tmp_path / "job.cfg"
    run(capsys, "construct", "almost-msrd-2x2", "q=2", "t=4", "--out", str(desc))
    cfg.write_text("q = 7\n")

    def build_recipe(*args, **kwargs):
        raise AssertionError("a code was built")

    monkeypatch.setattr(cs, "build_recipe", build_recipe)
    for extra, named in ((("--recipe", "cyclic-d4", "q=7", "bogus=1"),
                          "--recipe cyclic-d4 q=7 bogus=1"),
                         (("q=7",), "q=7"),
                         (("--config", str(cfg)), f"--config {cfg}")):
        code, out, err = run(capsys, "certify", "quasi-perfect", "--code", str(desc), *extra)
        assert code == 4 and out == ""
        assert err == f"error: --code takes no recipe or parameters; got {named}\n"


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


def test_certify_hamming_recipe(tmp_path, capsys):
    cert = tmp_path / "cert.json"
    code, out, _ = run(capsys, "certify", "distance-optimal",
                       "--recipe", "cyclic-d4", "q=4", "m=3", "lam=1", "--out", str(cert))
    assert code == 0
    # the BCH bound, read first, gives d >= 4, and the support search's first word, found
    # before the DP runs, closes d there
    assert "min_sum_rank_distance    = 4   [bch / support_test]" in out
    # the certificate carries the family's checks as `bounds condition` evaluates them
    _, condition, _ = run(capsys, "bounds", "condition",
                          "family=cyclic-d4", "q=4", "m=3", "lam=1")
    assert condition == ("rational condition [2*4*1^2 < (4-1)^2]: True\n"
                         "exact criterion [V_sr(q,2) over 63 blocks 1x1 > q^7]: True "
                         "(17767 vs 16384)\n")
    bounds = {b["name"]: b for b in json.loads(cert.read_text())["bounds"]}
    assert bounds["family_condition[2*4*1^2 < (4-1)^2]"]["value"] is True
    # the exact criterion is the sphere-packing refutation, V_sr(2) against q^codim
    assert not any(name.startswith("family_criterion") for name in bounds)
    assert bounds["sphere_packing_refutation"]["value"] == "17767 > 4^7"


def test_certify_hamming_budget_stop_is_inconclusive(capsys):
    code, out, _ = run(capsys, "certify", "quasi-perfect", "--recipe", "cyclic-d4",
                       "q=2", "m=3", "--syndrome-budget", "2")
    assert code == 2
    assert "syndrome budget 2 < 2^4 syndromes (q^codim)" in out


def test_certify_hamming_support_search_budget_stop(capsys):
    """The BCH bound of the [15,10]_4 code's defining set, read before any engine, gives
    [4, 6], which certifies the Singleton-like bound; the support search starts at weight 4,
    whose 14 * 3 prefixes (c_0 = 1, as the code is cyclic) take 15 * 3 = 45 lookups each, so
    a budget of 44 runs none of them.  V_sr(2) = 991 <= 4^5, so sphere packing leaves the
    upper end."""
    code, out, _ = run(capsys, "certify", "singleton", "--recipe", "cyclic-d4",
                       "q=4", "m=2", "--enum-budget", "44", "--syndrome-budget", "100")
    assert code == 0
    assert "min_sum_rank_distance    = [4, 6]   [bch (interval)]" in out
    # the DP's and enumeration's stops, then the support search's
    assert ("  note: syndrome budget 100 < 4^5 syndromes (q^codim); "
            "enum budget 44 < 4^10 codewords (q^dim); "
            "enum budget 44 < 1890 syndrome lookups of the weight-4 support search\n") in out
    assert 14 * 3 * 45 == 1890


def test_blocks_past_the_rank_table_cap_stop_enumeration(tmp_path, capsys):
    """One 5 x 5 binary block: its 2^25 codewords fit the enum budget, but its
    values do not fit a rank table, so neither the DP nor enumeration runs and d is the
    composition's point 1, witnessed by the [1, 1, 1] repetition word alone in one row, a
    block of rank 1 weighed with no rank table; the check holds at d = 1."""
    cert = tmp_path / "cert.json"
    code, _, err = run(capsys, "certify", "sphere-packing", "--recipe", "covering-repetition",
                       "q=2", "m=5", "t=1", "--enum-budget", str(1 << 26), "--out", str(cert))
    assert (code, err) == (0, "")
    doc = json.loads(cert.read_text())
    quantities = {q["name"]: q for q in doc["quantities"]}
    d = quantities["min_sum_rank_distance"]
    assert (d["value"], d["method"]) == (
        1, "composition(covering: " + ", ".join(["1 repetition"] * 5) + ")")
    (witness,) = quantities["distance_witness"]["value"]
    assert sp.rank(cs.field_of_order(2), witness) == 1
    # a point notes no stop: the cap that stops both engines is the code's own
    built = cs.covering_repetition(2, 5, 1)
    assert sd.rank_table_stop(built.base, built.profile.shape_counts()) == (
        f"rank table cap {1 << 24} < 2^25 values per 5 x 5 block (q^(nm))")
    assert doc["notes"] == []


def test_sphere_packing_is_certified_from_the_interval_of_d(tmp_path, capsys):
    """quasi-perfect-2x2 past every budget: d is known in [2, 4], from the composition of its
    parity ingredient's 2 and its hexacode ingredient's stopped search (2), up to the parity
    word of weight 2 alone in one of 2 rows (the DP's d, 4, lies inside).  No ball up to
    radius (4 - 1)//2 = 1 outgrows 2^8, so the check holds at d = 4, where it is hardest,
    and so for every d in between."""
    cert = tmp_path / "cert.json"
    code, _, err = run(capsys, "certify", "sphere-packing", "--recipe", "quasi-perfect-2x2",
                       "t=6", "--enum-budget", "1", "--syndrome-budget", "1", "--out", str(cert))
    assert (code, err) == (0, "")
    doc = json.loads(cert.read_text())
    d = next(q for q in doc["quantities"] if q["name"] == "min_sum_rank_distance")
    assert (d["value"], d["method"]) == (
        [2, 2 * 2], "composition(linearized: 2 parity, 2 support_test) (interval)")
    assert 2 <= cs.quasi_perfect_2x2(6).syndrome_dp.distance <= 4
    volume = sp.ball_volume_exact(sp.MatrixProfile(cs.field_of_order(2), ((2, 2),) * 6), 1)
    assert volume <= 2 ** 8
    assert doc["bounds"] == [{"name": "sphere_packing", "value": f"{volume} <= 2^8",
                              "assumptions": ["ball volume at radius 1"]}]
    assert doc["notes"][-1] == "certified for every d in [2, 4]"


def _limited_child(*argv) -> tuple[subprocess.CompletedProcess, float]:
    """`python -m sumrank.cli argv` in a child held to 2 GB of address space, and its seconds."""
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "sumrank.cli", *argv], env=_child_env(),
                          capture_output=True, text=True, timeout=60, preexec_fn=limit)
    return proc, time.perf_counter() - start


@pytest.mark.parametrize("argv, d", [
    (("distance-optimal", "--recipe", "distance-optimal-sxs", "q=2", "s=3", "m=5"),
     "[4, 6]   [composition(linearized: 4 bch, 2 parity, 2 parity) (interval)]"),
    (("almost-msrd", "--recipe", "almost-msrd-2x2", "q=7", "t=49"),
     "4   [composition(linearized: 4 reed-solomon, 2 parity)]"),
], ids=["sxs-m5", "almost-msrd-2x2-q7"])
def test_paper_rows_are_certified_from_the_ingredients(argv, d):
    """Past the DP and enumeration, d >= 4 comes from the ingredients' theorems and BCH
    bound, with no engine on them, and d is at most the weight of a parity word of weight 2
    alone in one row: 3 * 2 for sxs (s = 3 rows), whose d <= 4 by sphere packing has no word,
    and 2 * 2 = 4 for almost-msrd-2x2, a point with that word.  Certified at the default
    budgets, quickly, by a child held to 2 GB of address space."""
    proc, seconds = _limited_child("certify", *argv)
    assert proc.returncode == 0, proc.stderr
    assert seconds < 5
    lines = proc.stdout.splitlines()
    assert f"  min_sum_rank_distance    = {d}" in lines
    assert any(line.startswith("  distance_witness ") for line in lines) == d.startswith("4 ")


# (q, m, u) of quasi-perfect-2xm past the DP: 7^6 to 7^12 syndromes, 50 to 117993 blocks
QUASI_PERFECT_ROWS = [(7, 2, 2), (4, 2, 4), (4, 3, 3), (5, 2, 4), (3, 3, 4), (2, 2, 8),
                      (4, 2, 5), (7, 3, 3)]


@pytest.mark.parametrize("claim, q, m, u", [("quasi-perfect", *row) for row in QUASI_PERFECT_ROWS]
                         + [("perfect", 7, 2, 2)],
                         ids=[f"q{q}-m{m}-u{u}" for q, m, u in QUASI_PERFECT_ROWS] + ["perfect"])
def test_quasi_perfect_family_is_certified_from_its_ingredients(claim, q, m, u):
    """The paper's quasi-perfect 2 x m family past the DP: R <= 2 max(1, 1) from the
    Hamming (R_H = 1) and parity (rho = 1) ingredients and R >= 2 by sphere covering,
    V_sr(1) < q^codim; d in [3, 4] from the composition, up to the parity word of weight 2
    alone in one of 2 rows (sphere packing's V_sr(2) > q^codim ties it).  So e = 1 and
    R = e + 1: quasi-perfect, and refuted as perfect, at the default budgets, quickly, by a
    child held to 2 GB of address space."""
    proc, seconds = _limited_child("certify", claim, "--recipe", "quasi-perfect-2xm",
                                   f"q={q}", f"m={m}", f"u={u}")
    assert proc.returncode == {"quasi-perfect": 0, "perfect": 1}[claim], proc.stderr
    assert seconds < 5
    lines = proc.stdout.splitlines()
    assert ("  min_sum_rank_distance    = [3, 4]   [composition(linearized: 3 hamming, "
            "2 parity) (interval)]") in lines
    assert ("  covering_radius          = 2   [sphere covering / composition(linearized: "
            "1 hamming, 1 parity)]") in lines
    assert "  perfection               = quasi-perfect   [exact comparison]" in lines


def test_a_budget_stop_that_no_rule_decides_states_both_intervals(tmp_path, capsys):
    """quasi-perfect-2x2 past every budget: its hexacode ingredient has no theorem and its
    own engines stop, so d is [2, 4] (the composition of 2 and the stopped search's 2, up to
    the parity word of weight 2 alone in one of 2 rows) and R is [2, 6] (sphere covering,
    and the ingredient rule 2 max(3, 1) from the hexacode's n - k = 3 and the parity code's
    rho = 1): nothing decides.  The DP's stop, which stops both, is named once, in the one
    note."""
    cert = tmp_path / "cert.json"
    code, out, _ = run(capsys, "certify", "quasi-perfect", "--recipe", "quasi-perfect-2x2",
                       "t=6", "--syndrome-budget", "1", "--enum-budget", "1", "--out", str(cert))
    assert code == 2
    doc = json.loads(cert.read_text())
    assert doc["quantities"][2:] == [
        {"name": "min_sum_rank_distance", "value": [2, 4],
         "method": "composition(linearized: 2 parity, 2 support_test) (interval)"},
        {"name": "covering_radius", "value": [2, 6],
         "method": "sphere covering / composition(linearized: 1 parity, 3 explicit) (interval)"}]
    assert doc["notes"] == ["syndrome budget 1 < 2^8 syndromes (q^codim); "
                            "enum budget 1 < 2^16 codewords (q^dim); "
                            "ingredient 1 (explicit): syndrome budget 1 < 4^3 syndromes "
                            "(q^codim); "
                            "ingredient 1 (explicit): enum budget 1 < 4^3 codewords (q^dim); "
                            "ingredient 1 (explicit): enum budget 1 < 6 syndrome lookups of "
                            "the weight-2 support search"]
    assert out.count("syndrome budget 1 < 2^8") == 1


@pytest.mark.parametrize("recipe, radius", [
    (("distance-optimal-sxs", "q=5", "s=2", "m=1"), "[2, 6]   [sphere covering / "
     "composition(linearized: 3 cyclic, 1 parity) (interval)]"),
    (("distance-optimal-2x2", "q=5"), "[2, 8]   [sphere covering / "
     "composition(linearized: 4 cyclic, 1 parity) (interval)]"),
], ids=["sxs-q5", "2x2-q5"])
def test_the_ingredient_rule_bounds_r_past_the_dp_for_cyclic_ingredients(capsys, recipe, radius):
    """Past the DP, R <= 2 max(rho_cyc, 1) for the distance-4 families over GF(25): the cyclic
    code of sxs q=5 has T = {0, 1, 2} mod 24, which Hartmann-Tzeng proves MDS, so its
    rho = 3 enters the max; the 2x2 one, of T = {0, 1, 25, 26} mod 624, is general, at
    R_H <= n - k = 4.  Sphere covering gives R >= 2, so nothing decides."""
    code, out, _ = run(capsys, "certify", "quasi-perfect", "--recipe", *recipe)
    assert code == 2
    assert f"  covering_radius          = {radius}" in out.splitlines()


def test_a_misstamped_ingredient_is_an_internal_error(capsys, monkeypatch):
    """A parity ingredient stamped 3 is above its theorem's 2, so its own engines run, find
    d = 2 exactly and contradict the stamp."""
    parity = hm.parity_check_code

    def misstamped(field, t):
        code = parity(field, t)
        code.designed_distance = 3
        return code
    monkeypatch.setattr(hm, "parity_check_code", misstamped)
    assert run(capsys, "certify", "almost-msrd", "--recipe", "almost-msrd-2x2", "q=7",
               "t=49") == (3, "", "internal error: RuntimeError: designed distance 3 "
                               "contradicts the exact value 2\n")


def test_sphere_packing_violation_is_internal_error(capsys, monkeypatch):
    from sumrank import certify as ct
    monkeypatch.setattr(ct, "sphere_packing_check",
                        lambda q, shapes, codim, d: ct.SpherePackingRecord(1, 2, 2, 0, False))
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


def test_rank_deficient_ingredient_parity_is_internal_error(capsys, monkeypatch):
    parity_rows = cs.IngredientSumRankCode._parity_rows
    # one parity row too few: a kernel beyond the code
    monkeypatch.setattr(cs.IngredientSumRankCode, "_parity_rows",
                        lambda code: parity_rows(code)[1:])
    code, _, err = run(capsys, "certify", "quasi-perfect", "--recipe",
                       "quasi-perfect-2xm", "q=2", "m=2", "u=2")
    assert code == 3
    assert err == ("internal error: RuntimeError: parity checks have rank 5, "
                   "not the codimension 6\n")


@pytest.mark.parametrize("exc", [ValueError("The truth value of an array is ambiguous"),
                                 KeyError("levels")], ids=["ValueError", "KeyError"])
def test_engine_value_error_is_internal_error(tmp_path, capsys, monkeypatch, exc):
    """Only a `UsageError` is the user's: the same exception from the DP, a builder step, a
    descriptor or a bound evaluator is an internal error (a ValueError from the last three
    exited 4 while `cli.main` sent every ValueError to 4)."""
    def fail(*args, **kwargs):
        raise exc

    argv = ("certify", "quasi-perfect", "--recipe", "quasi-perfect-2xm", "q=2", "m=2")
    desc = tmp_path / "code.json"
    for owner, name, job in [
            (sd, "syndrome_dp", (*argv, "u=2")),
            (hm, "hamming_code", ("construct", "quasi-perfect-2xm", "q=2", "m=2", "u=2")),
            (cs.IngredientSumRankCode, "describe",
             ("construct", "quasi-perfect-2xm", "q=2", "m=2", "u=2", "--out", str(desc))),
            (ct, "entropy", ("bounds", "entropy", "Q=4", "rho=0.5"))]:
        with monkeypatch.context() as patch:
            patch.setattr(owner, name, fail)
            code, out, err = run(capsys, *job)
        assert code == 3 and err == f"internal error: {type(exc).__name__}: {exc}\n", name
        assert out == ("" if "--out" not in job else  # the summary precedes the descriptor
                       "sum-rank code over GF(2): t = 5 blocks of 2x2, dim 14, |C| = 2^14, "
                       "ambient dim 20\n")
    assert not desc.exists()
    # a bad recipe parameter is still the user's: the code is never built
    code, out, err = run(capsys, *argv, "u=0")
    assert code == 4 and out == "" and err.startswith("error: ")


def test_engine_distance_out_of_range_is_internal_error(capsys, monkeypatch):
    """A d past N from an engine is sumrank's fault: the Singleton-like exponent's range
    check stays a plain ValueError, and only the bounds kinds refuse the user's d."""
    monkeypatch.setattr(ct, "sr_min_distance", lambda *a, **k: sd.SrDistance(11, 11, "bad"))
    code, out, err = run(capsys, "certify", "singleton", "--recipe", "quasi-perfect-2xm",
                         "q=2", "m=2", "u=2")
    assert (code, out) == (3, "")
    assert err == "internal error: ValueError: distance 11 out of range 1..10\n"


@pytest.mark.parametrize("argv", [
    ("construct", "almost-msrd-2x2", "q=2", "t=4"),
    ("certify", "singleton", "--recipe", "almost-msrd-2x2", "q=2", "t=4"),
], ids=["construct", "certify"])
def test_key_error_from_a_builder_is_internal_error(capsys, monkeypatch, argv):
    # no parameter check raises KeyError, so one from past them is a bug, not a usage error
    def build_recipe(name, **params):
        raise KeyError("levels")

    monkeypatch.setattr(cs, "build_recipe", build_recipe)
    assert run(capsys, *argv) == (3, "", "internal error: KeyError: 'levels'\n")


def test_bounds_strong_bch(capsys):
    """Both bounds print as powers of 2, as the README's example states."""
    assert run(capsys, "bounds", "strong-bch", "m=2", "t=65535", "e=2", "n=16", "d=33") == (
        0, "case 1: bound 2^262012\nsingleton-like: 2^262076\nimproves: True\n", "")
    # the failed hypothesis states its power of 2e - 1 the same way
    assert run(capsys, "bounds", "strong-bch", "m=2", "t=65535", "e=2", "n=15", "d=33") == (
        2, "inapplicable: 2^15 < (2e-1)^(4e+2) = 3^10\n", "")


def test_a_large_bch_error_count_is_decided_in_bounded_time():
    """At e = 10^6, (2e-1)^(4e+2) has 8.4 * 10^7 bits; the bit lengths alone refute
    2^2 >= it, so no power is formed.  A child with a 10 s timeout, so a relapse fails fast."""
    proc = subprocess.run([sys.executable, "-m", "sumrank.cli", "bounds", "strong-bch", "m=1",
                           "t=3", "e=1000000", "n=2", "d=1"], env=_child_env(),
                          capture_output=True, text=True, timeout=10)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        2, "inapplicable: 2^2 < (2e-1)^(4e+2) = 1999999^4000002\n", "")


def test_bounds_entropy_and_volume(capsys):
    code, out, _ = run(capsys, "bounds", "entropy", "Q=4", "rho=0.75")
    assert code == 0 and abs(float(out.strip()) - 1.0) < 1e-12
    code, out, _ = run(capsys, "bounds", "volume", "q=2", "blocks=2x2,2x2", "r=2")
    assert code == 0 and out.strip() == "112"


def test_bounds_volume_and_singleton_build_no_field(capsys, monkeypatch):
    """They read q and the block shapes only, so q past the built-in polynomial table
    (2^21, 3^13) and a radius past sys.maxsize are answered; no field is built."""
    def build(*args, **kwargs):
        raise AssertionError("a field was built")

    monkeypatch.setattr(cs, "make_field", build)
    q = 2 ** 21  # V(1) of one 2 x 2 block: 1 + (q^2 - 1)(q^2 - q)/(q - 1)
    assert run(capsys, "bounds", "volume", f"q={q}", "blocks=2x2", "r=1") == (
        0, f"{1 + (q * q - 1) * (q + 1)}\n", "")
    assert (q * q - 1) * (q + 1) + 1 == 9223376434899189760
    assert run(capsys, "bounds", "singleton", "q=1594323", "blocks=2x2", "d=2") == (
        0, "1594323^2\n", "")
    assert run(capsys, "bounds", "volume", "q=65536", "blocks=2x2", "r=1")[:2] == (
        0, f"{1 + (2 ** 32 - 1) * (2 ** 16 + 1)}\n")
    # a ball at or past the largest weight is the whole space
    assert run(capsys, "bounds", "volume", "q=2", "blocks=1x1", f"r={10 ** 20}") == (0, "2\n", "")
    assert run(capsys, "bounds", "volume", "q=3", "blocks=2x2,1x2", "r=3") == (0, f"{3 ** 6}\n", "")


def test_bounds_singleton(capsys):
    assert run(capsys, "bounds", "singleton", "q=4", "blocks=2x2", "d=2") == (0, "4^2\n", "")
    # 2^4000000 as an integer has 1204120 digits, past any int->str cap
    assert run(capsys, "bounds", "singleton", "q=2", "blocks=2000x2000", "d=1") == (
        0, "2^4000000\n", "")
    code, _, err = run(capsys, "bounds", "singleton", "q=4", "blocks=3x2", "d=2")
    assert code == 4 and "violates n <= m" in err


def test_bounds_volume_prints_past_the_str_digit_cap(capsys, int_str_digits):
    """V_sr(75) of one 150 x 150 block over GF(2) has 5081 digits: `bounds volume` prints
    them all while the default cap of 4300, set by the fixture, stays in force."""
    code, out, err = run(capsys, "bounds", "volume", "q=2", "blocks=150x150", "r=75")
    assert sys.get_int_max_str_digits() == int_str_digits == 4300
    assert (code, err, len(out)) == (0, "", 5081 + 1)
    sys.set_int_max_str_digits(0)  # the oracle's own str(); the fixture restores the cap
    assert out == f"{sp.ball_volume(2, {(150, 150): 1}, 75)}\n"


def test_main_leaves_the_str_digit_cap_as_it_found_it(capsys, int_str_digits):
    """No sumrank code sets CPython's int->str cap: every `bounds` and `table` kind and a
    certify job run through `main` at the default of 4300 digits and leave it there."""
    jobs = [(*key[:2], *(f"{k}={v}" for k, v in params.items()))
            for key, params in KIND_PARAMS.items() if key[0] != "construct"]
    jobs.append(("certify", "sphere-packing", "--recipe", "cyclic-d4", "q=2", "m=3", "lam=1"))
    for argv in jobs:
        code, _, err = run(capsys, *argv)
        assert code in (0, 1, 2), (argv, err)
        assert sys.get_int_max_str_digits() == int_str_digits == 4300, argv


@pytest.mark.parametrize("q,code,out,err", [
    (10 ** 18 + 3, 0, "1000000000000000003\n", ""),
    ((10 ** 9 + 7) ** 2, 0, "1000000014000000049\n", ""),
    ((10 ** 9 + 7) * (10 ** 9 + 9), 4, "", "error: 1000000016000000063 is not a prime power\n"),
], ids=["prime", "prime-square", "two-primes"])
def test_a_large_order_is_decided_in_bounded_time(q, code, out, err):
    """V(1) of one 1 x 1 block is q.  Trial division up to sqrt(q) answered none of these; each
    runs in a child with a 10 s timeout, so a relapse fails fast instead of hanging."""
    proc = subprocess.run([sys.executable, "-m", "sumrank.cli", "bounds", "volume", f"q={q}",
                           "blocks=1x1", "r=1"], env=_child_env(), capture_output=True,
                          text=True, timeout=10)
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err)


@pytest.mark.parametrize("argv,missing", [
    (("bounds", "singleton", "blocks=2x2", "d=2"), "bounds singleton: missing parameter q="),
    (("bounds", "condition", "family=cyclic-d4", "q=2"),
     "bounds condition: missing parameter m="),
    (("table", "strong-bch", "m=2", "n=16"), "table strong-bch: missing parameter e="),
])
def test_missing_parameter_is_named(capsys, argv, missing):
    code, out, err = run(capsys, *argv)
    assert code == 4 and out == ""
    assert err == f"error: {missing}\n"


@pytest.mark.parametrize("argv,unknown,reads", [
    (("bounds", "block-length", "q=2", "m=2", "u=4", "R=2", "C=5"),
     "bounds block-length: unknown parameters ['C']", "q, m, u, R, c"),
    (("table", "strong-bch", "m=2", "e=2", "n=16", "T=65535"),
     "table strong-bch: unknown parameters ['T']", "m, e, n, t"),
    (("bounds", "condition", "family=cyclic-d4", "q=4", "m=3", "lam=1", "s=2"),
     "bounds condition: unknown parameters ['s']", "family, q, m, lam"),
])
def test_unknown_parameter_is_named(capsys, argv, unknown, reads):
    code, out, err = run(capsys, *argv)
    assert code == 4 and out == ""
    assert err == f"error: {unknown}; it reads {reads}\n"


# `bounds condition` parameters that the family's recipe refuses, and its message
CONDITION_REFUSALS = [
    (("family=cyclic-d4", "q=4", "m=2", "lam=0"), "gate failed: 0 does not divide q^m - 1 = 15"),
    (("family=cyclic-d4", "q=4", "m=2", "lam=-3"),
     "gate failed: -3 does not divide q^m - 1 = 15"),
    (("family=cyclic-d4", "q=6", "m=2"), "6 is not a prime power"),
    (("family=distance-optimal-sxs", "q=2", "s=3", "m=1", "lam=0"),
     "gate failed: 0 does not divide q^(sm) - 1 = 7"),
    (("family=distance-optimal-rect", "q=2", "s1=2", "s2=3", "m=1", "lam=0"),
     "gate failed: 0 does not divide q^(s2 m) - 1 = 7"),
    (("family=quasi-perfect-2xm", "q=2", "m=2", "u=1"),
     "gate failed: Hamming redundancy u must be at least 2"),
    (("family=plotkin-distance-optimal", "s=1", "m=1"),
     "gate failed: matrix size s must be at least 2"),
    (("family=cyclic-d4", "q=2", "m=2"),
     "gate failed: defining set covers all residues; code is trivial {0}"),
    (("family=distance-optimal-sxs", "q=2", "s=2", "m=1"),
     "gate failed: defining set covers all residues; code is trivial {0}"),
    (("family=cyclic-d4", "q=2", "m=1"),
     "gate failed: defining set covers all residues; code is trivial {0}"),
    (("family=distance-optimal-sxs", "q=2", "s=2", "m=0"),
     "gate failed: block length (q^(sm) - 1)/lam must be positive"),
    (("family=distance-optimal-rect", "q=2", "s1=2", "s2=3", "m=0"),
     "gate failed: block length (q^(s2 m) - 1)/lam must be positive"),
    (("family=plotkin-distance-optimal", "s=2", "m=0"),
     "gate failed: block length (q^(sm) - 1)/lam must be positive"),
]


@pytest.mark.parametrize("argv,error", [
    (("construct", "quasi-perfect-2xm", "q=2", "m=2", "u=2.5"),
     "recipe quasi-perfect-2xm: parameter u=2.5 is not an integer"),
    (("certify", "distance-optimal", "--recipe", "cyclic-d4", "q=two", "m=2"),
     "recipe cyclic-d4: parameter q='two' is not an integer"),
    (("bounds", "entropy", "Q=1", "rho=0"), "alphabet size Q = 1 must be an integer >= 2"),
    (("bounds", "volume", "q=2.5", "blocks=2x2", "r=1"),
     "bounds volume: parameter q=2.5 is not an integer"),
    (("bounds", "bch-radius-interval", "e=1.5", "n=16"),
     "bounds bch-radius-interval: parameter e=1.5 is not an integer"),
    (("bounds", "singleton", "q=4", "blocks=2x2", "d=2.0"),
     "bounds singleton: parameter d=2.0 is not an integer"),
    (("bounds", "strong-bch", "m=2", "t=65535", "e=2", "n=16", "d=33.5"),
     "bounds strong-bch: parameter d=33.5 is not an integer"),
    (("bounds", "entropy", "Q=4", "rho=abc"),
     "bounds entropy: parameter rho='abc' is not a number"),
    (("bounds", "condition", "family=cyclic-d4", "q=2.0", "m=3"),
     "bounds condition: parameter q=2.0 is not an integer"),
    (("bounds", "condition", "family=quasi-perfect-2xm", "q=2", "m=2", "u=2.5"),
     "bounds condition: parameter u=2.5 is not an integer"),
    (("bounds", "strong-blf", "q=2", "m=2", "u=4", "R=0", "t=64"),
     "covering radius R = 0 must be at least 1"),
    (("bounds", "block-length", "q=2", "m=2", "u=4", "R=0"),
     "covering radius R = 0 must be at least 1"),
    (("bounds", "block-length", "q=2", "m=2", "u=4", "R=-2"),
     "covering radius R = -2 must be at least 1"),
    (("table", "strong-bch", "m=0", "e=2", "n=16", "t=5"), "matrix size m = 0 must be at least 1"),
    (("bounds", "volume", "q=4", "blocks=2", "r=1"),
     "parameter blocks='2' is not of the form NxM[,NxM...]"),
    (("bounds", "singleton", "q=4", "blocks=2x2x2", "d=2"),
     "parameter blocks='2x2x2' is not of the form NxM[,NxM...]"),
    (("table", "strong-bch", "m=2", "e=2", "n=16", "t=abc"),
     "parameter t='abc' is not of the form T[,T...]"),
    (("table", "strong-bch", "m=2", "e=2", "n=16", "t=65535,7e4"),
     "parameter t='65535,7e4' is not of the form T[,T...]"),
    (("table", "strong-bch", "m=2", "e=0", "n=16", "t=5"),
     "BCH error count e = 0 must be at least 1"),
    (("bounds", "strong-bch", "m=2", "t=5", "e=1", "n=0", "d=16"),
     "BCH field degree n = 0 must be at least 1"),
    (("bounds", "entropy", "Q=4", "rho=nan"), "bounds entropy: parameter rho=nan is not finite"),
    (("bounds", "strong-blf", "q=2", "m=2", "u=4", "R=2", "t=3", "c=nan"),
     "bounds strong-blf: parameter c=nan is not finite"),
    (("bounds", "block-length", "q=2", "m=2", "u=4", "R=2", "c=inf"),
     "bounds block-length: parameter c=inf is not finite"),
    (("table", "strong-bch", "m=2", "e=2", "n=16", "t="),
     "parameter t='' is not of the form T[,T...]"),
    *[(("bounds", "condition", *params), error) for params, error in CONDITION_REFUSALS],
    (("bounds", "strong-blf", "q=2", "m=2", "u=4", "R=2", "t=3", "c=0"),
     "universal constant c = 0 must be positive"),
    (("bounds", "strong-blf", "q=2", "m=2", "u=4", "R=2", "t=3", "c=-2"),
     "universal constant c = -2 must be positive"),
    (("bounds", "block-length", "q=2", "m=2", "u=4", "R=2", "c=0"),
     "universal constant c = 0 must be positive"),
    (("table", "strong-bch", "m=2", "e=1", "n=4", "t=0"), "block length t = 0 must be at least 1"),
    (("bounds", "strong-bch", "m=2", "t=-1", "e=1", "n=4", "d=17"),
     "block length t = -1 must be at least 1"),
    (("construct", "covering-repetition", "q=2", "m=4", "t=0"), "length must be positive"),
    # a distance past the N = tm rows of the blocks is refused as `bounds singleton` refuses it
    (("bounds", "strong-bch", "m=2", "t=1", "e=1", "n=1", "d=16"), "distance 16 out of range 1..2"),
    # a table refuses its parameters even when no row falls in the d window
    (("table", "strong-bch", "m=2", "e=1", "n=0", "t=1"),
     "BCH field degree n = 0 must be at least 1"),
])
def test_malformed_values_are_usage_errors(capsys, argv, error):
    code, out, err = run(capsys, *argv)
    assert code == 4 and out == ""
    assert err == f"error: {error}\n"


NOT_A_DESCRIPTOR = ("is not a code descriptor: an object with a string 'recipe', an object "
                    "'params' and a 'descriptor'")


@pytest.mark.parametrize("option,content,error", [
    ("--code", "[1, 2]", NOT_A_DESCRIPTOR),
    ("--code", '{"recipe": "almost-msrd-2x2", "params": [1], "descriptor": {}}',
     NOT_A_DESCRIPTOR),
    ("--code", '{"recipe": "almost-msrd-2x2", "descriptor": {}}', NOT_A_DESCRIPTOR),
    ("--code", None, "is a directory, not a file"),
    ("--config", None, "is a directory, not a file"),
    ("--out", None, "is a directory, not a file"),
], ids=["list", "params-list", "no-params", "code-dir", "config-dir", "out-dir"])
def test_malformed_user_files_are_usage_errors(tmp_path, capsys, option, content, error):
    """A file the user names (`content`) or a directory (None) in its place exits 4 and
    names the option, before any code is built."""
    path = tmp_path
    if content is not None:
        path = tmp_path / "file.json"
        path.write_text(content)
    argv = (("certify", "singleton") if option == "--code"
            else ("construct", "almost-msrd-2x2", "q=2", "t=4"))
    code, out, err = run(capsys, *argv, option, str(path))
    assert code == 4 and out == ""
    assert option in err and err.endswith(f"{path} {error}\n")


def test_budget_defaults_are_the_budgets_record():
    """The three budget options default to `Budgets()`, field by field."""
    args = cli.build_parser().parse_args(["certify", "singleton", "--recipe", "cyclic-d4"])
    assert ct.Budgets(args.enum_budget, args.syndrome_budget, args.sweep_budget) == ct.Budgets()


def test_cyclic_d4_q2_m15_decides_d_by_a_lookup_word_in_bounded_time():
    """cyclic-d4 q=2 m=15: 32767 blocks of 1 x 1 at codim 16, past the DP's sweep budget and
    enumeration.  The BCH bound's d >= 4 and a weight-4 word of the support search, found
    before the DP on the first prefixes through c_0 = 1, give d = 4, and V_sr(2) > 2^16
    certifies the claim; the build and the search take about 0.5 s (a child with a 10 s
    timeout)."""
    proc = subprocess.run([sys.executable, "-m", "sumrank.cli", "certify", "distance-optimal",
                           "--recipe", "cyclic-d4", "q=2", "m=15"], env=_child_env(),
                          capture_output=True, text=True, timeout=10)
    assert (proc.returncode, proc.stderr) == (0, "")
    lines = proc.stdout.splitlines()
    assert lines[1] == "verdict  : certified"
    assert "  min_sum_rank_distance    = 4   [bch / support_test]" in lines
    assert not any(line.startswith("  note:") for line in lines)


def test_a_word_search_at_a_high_bch_end_ends_within_the_enum_budget():
    """The [63, 39]_4 cyclic code of defining set 1..10 has BCH end 11, is not MDS, and its
    4^24 syndromes do not fit the DP, so d's structure source searches weight 11 for a word.
    Its prefixes take distinct positions, each one counted against the enum budget: the
    search ends after 2^22 // 189 of them and d stays [11, 18] (a child with a 20 s timeout;
    prefixes that repeated a position, dropped uncounted, ran without bound)."""
    script = ("from sumrank import certify as ct, construct as cs, hamming as hm\n"
              "code = hm.cyclic_code(63, cs.field_of_order(4), range(1, 11))\n"
              "print(code.proven.d_lo, *ct.sr_min_distance(code)[:3])")
    proc = subprocess.run([sys.executable, "-c", script], env=_child_env(),
                          capture_output=True, text=True, timeout=20)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == "11 11 18 bch / sphere packing\n"


def test_a_huge_enum_budget_decides_d_by_the_lookup_in_bounded_memory(capsys):
    """cyclic-d4 q=2 m=13 with the DP off and an enum budget of 10^30, which let the
    half-word search of earlier versions list tables of 4.9 GB: the lookup's memory is one
    prefix's n (q - 1) needles whatever the budget, and its first word closes d = 4."""
    start = time.perf_counter()
    code, out, _ = run(capsys, "certify", "singleton", "--recipe", "cyclic-d4", "q=2", "m=13",
                       "--syndrome-budget", "0", "--enum-budget", str(10 ** 30))
    assert time.perf_counter() - start < 2
    assert code == 0
    assert "  min_sum_rank_distance    = 4   [bch / support_test]" in out.splitlines()


@pytest.mark.parametrize("m", [4000000, 60000])
def test_a_cyclic_length_past_the_coset_gate_is_refused_at_once(capsys, m):
    """cyclic-d4 q=2 m: listing the cosets of T mod 2^m - 1 holds up to 1 + 2m residues of m
    bits.  Past DENSE_CELL_LIMIT 64-bit words it is refused before any coset is listed: m =
    4000000 ran out of memory after 43 s, and m = 60000 took 6.5 s and 495 MB."""
    start = time.perf_counter()
    code, out, err = run(capsys, "bounds", "condition", "family=cyclic-d4", "q=2", f"m={m}",
                         "lam=1")
    assert time.perf_counter() - start < 1
    words = (1 + 2 * m) * -(-m // 64)
    assert (code, out) == (4, "")
    assert err == (f"error: gate failed: the cosets of T may hold {words} 64-bit words of "
                   f"residues, above DENSE_CELL_LIMIT = {hm.DENSE_CELL_LIMIT}\n")


def test_a_cyclic_length_inside_the_coset_gate_keeps_its_output(capsys):
    """cyclic-d4 q=2 m=20000 lists 40001 residues of 20000 bits, inside the gate: its
    condition is evaluated as before (its stdout's sha256 is pinned)."""
    code, out, _ = run(capsys, "bounds", "condition", "family=cyclic-d4", "q=2", "m=20000",
                       "lam=1")
    assert code == 2
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "6a98ecbfead8e59246a41e057954370548667a3cd05e1fb533259e961236fcb5")


def test_a_corrupted_witness_exits_3(capsys, monkeypatch):
    """Every point of d has its word checked (`SumRankCode.word_weight`): a support search
    whose words carry one wrong entry makes `certify` exit 3 instead of certifying."""
    search = hm.iter_low_weight

    def corrupted(code, w, *args, **kwargs):
        for word in search(code, w, *args, **kwargs):
            yield word[:-1] + ((word[-1] + 1) % code.field.order,)
    monkeypatch.setattr(hm, "iter_low_weight", corrupted)
    code, out, err = run(capsys, "certify", "distance-optimal", "--recipe", "cyclic-d4", "q=5",
                         "m=4")
    assert (code, out) == (3, "")
    assert "is not a codeword" in err


@pytest.mark.parametrize("option,value", [("--enum-budget", "-1"), ("--syndrome-budget", "-1"),
                                          ("--sweep-budget", "-7")])
def test_negative_budgets_are_usage_errors(capsys, option, value):
    code, out, err = run(capsys, "certify", "singleton", "--recipe", "covering-repetition",
                         "q=2", "m=4", "t=8", option, value)
    assert code == 4 and out == ""
    assert err.endswith(f"error: argument {option}: budget {value} is negative\n")


def test_zero_budget_switches_its_engine_off(capsys):
    # quasi-perfect-2x2, whose hexacode ingredient has no theorem: no rule decides it with
    # its engines off, so the zero budgets' stops are what the inconclusive verdict names
    code, out, _ = run(capsys, "certify", "quasi-perfect", "--recipe", "quasi-perfect-2x2",
                       "t=6", "--syndrome-budget", "0", "--enum-budget", "0")
    assert code == 2 and "enum budget 0 < 2^16 codewords (q^dim)" in out
    assert "syndrome budget 0 < 2^8 syndromes (q^codim)" in out


@pytest.mark.parametrize("params,error", CONDITION_REFUSALS)
def test_condition_refuses_what_its_recipe_refuses(capsys, params, error):
    family = params[0].removeprefix("family=")
    assert run(capsys, "construct", family, *params[1:]) == (4, "", f"error: {error}\n")


# Complete parameters for every registered kind, all valid but not all in range
KIND_PARAMS = {
    **{("construct", name): params for name, params in {
        "quasi-perfect-2xm": {"q": 2, "m": 2, "u": 2},
        "quasi-perfect-2x2": {"t": 6},
        "cyclic-d4": {"q": 2, "m": 3, "lam": 1},
        "cyclic-d4-alt": {"q": 3, "m": 2},
        "distance-optimal-sxs": {"q": 3, "s": 2, "m": 1, "lam": 1},
        "distance-optimal-rect": {"q": 2, "s1": 2, "s2": 3, "m": 1, "lam": 1},
        "distance-optimal-2x2": {"q": 2},
        "almost-msrd-2x2": {"q": 2, "t": 4},
        "plotkin-distance-optimal": {"s": 3, "m": 1},
        "covering-repetition": {"q": 2, "m": 2, "t": 3},
    }.items()},
    ("bounds", "singleton"): {"q": 4, "blocks": "2x2", "d": 2},
    ("bounds", "strong-bch"): {"m": 2, "t": 65535, "e": 2, "n": 16, "d": 33},
    ("bounds", "strong-blf"): {"q": 2, "m": 2, "u": 4, "R": 2, "t": 64, "c": 1.0},
    ("bounds", "block-length"): {"q": 2, "m": 2, "u": 4, "R": 2, "c": 1.0},
    ("bounds", "entropy"): {"Q": 4, "rho": 0.75},
    ("bounds", "volume"): {"q": 2, "blocks": "2x2,2x2", "r": 2},
    ("bounds", "bch-radius-interval"): {"e": 2, "n": 16},
    **{("bounds", "condition", family): {"family": family, **params} for family, params in {
        "cyclic-d4": {"q": 4, "m": 3, "lam": 1},
        "quasi-perfect-2xm": {"q": 2, "m": 2, "u": 2},
        "distance-optimal-sxs": {"q": 2, "s": 3, "m": 1, "lam": 1},
        "distance-optimal-rect": {"q": 2, "s1": 2, "s2": 3, "m": 1, "lam": 1},
        "plotkin-distance-optimal": {"s": 3, "m": 1},
    }.items()},
    ("table", "strong-bch"): {"m": 2, "e": 2, "n": 16, "t": "65535"},
}


# a value just past a gate of every recipe and every `bounds` or `table` kind, over the
# complete parameters of KIND_PARAMS
REFUSED_VALUES = [
    (("construct", "quasi-perfect-2xm"), {"q": 1}),
    (("construct", "quasi-perfect-2xm"), {"q": 6}),
    (("construct", "quasi-perfect-2xm"), {"u": 1}),
    (("construct", "quasi-perfect-2x2"), {"t": 5}),
    (("construct", "cyclic-d4"), {"lam": 2}),  # 2 does not divide 2^3 - 1
    (("construct", "cyclic-d4-alt"), {"q": 7}),
    (("construct", "distance-optimal-sxs"), {"s": 1}),
    (("construct", "distance-optimal-rect"), {"s1": 3}),  # s1 = s2
    (("construct", "distance-optimal-2x2"), {"q": 6}),
    (("construct", "almost-msrd-2x2"), {"t": 5}),  # past q^2 = 4
    (("construct", "plotkin-distance-optimal"), {"s": 1}),
    (("construct", "covering-repetition"), {"m": 1}),  # the prime field has no subfield
    (("construct", "covering-repetition"), {"m": 0}),
    (("construct", "covering-repetition"), {"t": 0}),
    (("bounds", "singleton"), {"d": 0}),
    (("bounds", "singleton"), {"blocks": "3x2"}),
    (("bounds", "singleton"), {"q": 6}),
    (("bounds", "strong-bch"), {"e": 0}),
    (("bounds", "strong-bch"), {"d": 0}),
    (("bounds", "strong-blf"), {"c": 0}),
    (("bounds", "strong-blf"), {"q": 0}),
    (("bounds", "block-length"), {"c": 0}),
    (("bounds", "block-length"), {"m": 0}),
    (("bounds", "entropy"), {"rho": 0.8}),  # past 1 - 1/Q = 0.75
    (("bounds", "volume"), {"r": -1}),
    (("bounds", "volume"), {"blocks": "3x2"}),
    (("bounds", "volume"), {"q": 1}),
    (("bounds", "bch-radius-interval"), {"e": 0}),
    (("bounds", "condition", "cyclic-d4"), {"lam": 2}),  # 2 does not divide 4^3 - 1
    (("table", "strong-bch"), {"e": 0}),
    (("table", "strong-bch"), {"t": "0"}),
]


def _kind_parameters(command, kind, *family):
    """The declared parameters of a kind, as the CLI binds them."""
    if command == "construct":
        return cs.signature_params(cs.RECIPES[kind])
    return (cs.signature_params(cli.KINDS[command][kind])
            + [a for f in family for a in cs.signature_params(cs.RECIPES[f])])


@pytest.mark.parametrize("recipe", sorted(cs.RECIPES))
def test_every_recipe_round_trips_through_its_descriptor(tmp_path, capsys, recipe):
    """`construct NAME --out F`, then `certify --code F`, prints what `certify --recipe NAME`
    prints, with the same exit code."""
    assert ("construct", recipe) in KIND_PARAMS
    params = [f"{k}={v}" for k, v in KIND_PARAMS["construct", recipe].items()]
    desc = tmp_path / "code.json"
    assert run(capsys, "construct", recipe, *params, "--out", str(desc))[0] == 0
    from_file = run(capsys, "certify", "singleton", "--code", str(desc))
    assert from_file == run(capsys, "certify", "singleton", "--recipe", recipe, *params)
    assert from_file[0] == 0 and "verdict  : certified" in from_file[1]


def test_kind_params_cover_every_registered_kind():
    assert {k[:2] for k in KIND_PARAMS} == {k[:2] for k, _ in REFUSED_VALUES} == (
        {("construct", name) for name in cs.RECIPES}
        | {(command, kind) for command in cli.KINDS for kind in cli.KINDS[command]})
    assert {k[2] for k in KIND_PARAMS if k[1] == "condition"} == set(cs.FAMILIES)
    for key, params in KIND_PARAMS.items():
        declared = _kind_parameters(*key)
        assert [a.name for a in declared] == list(params), key
        assert {a.annotation for a in declared} <= {"int", "float", "str"}, key


@pytest.mark.parametrize("key,name", [
    (key, a.name) for key in KIND_PARAMS for a in _kind_parameters(*key)
    if a.annotation == "int"], ids=lambda v: "-".join(v) if isinstance(v, tuple) else v)
@pytest.mark.parametrize("bad", ["2.5", "abc"])
def test_int_parameters_take_only_integers(capsys, key, name, bad):
    params = {**KIND_PARAMS[key], name: bad}
    code, out, err = run(capsys, *key[:2], *(f"{k}={v}" for k, v in params.items()))
    where = f"recipe {key[1]}" if key[0] == "construct" else f"{key[0]} {key[1]}"
    value = repr(float(bad)) if bad == "2.5" else repr(bad)
    assert code == 4 and out == ""
    assert err == f"error: {where}: parameter {name}={value} is not an integer\n"


@pytest.mark.parametrize("key,value", REFUSED_VALUES + [
    (("certify", "singleton", "--code"), b"not json"),
    (("construct", "almost-msrd-2x2", "--config"), b"q = 2  # caf\xe9\n")],
    ids=lambda v: "-".join(v) if isinstance(v, tuple) else
    ",".join(f"{k}={x}" for k, x in v.items()) if isinstance(v, dict) else "file")
def test_every_refused_value_exits_4(tmp_path, capsys, key, value):
    """A value just past a gate, a --code file that is not JSON and a --config file that is
    not UTF-8 each exit 4 with an `error:` line, not as an internal error."""
    if isinstance(value, bytes):
        path = tmp_path / "file"
        path.write_bytes(value)
        argv = (*key, str(path))
    else:
        params = {**KIND_PARAMS[key], **value}
        argv = (*key[:2], *(f"{k}={v}" for k, v in params.items()))
    code, out, err = run(capsys, *argv)
    assert (code, out) == (4, ""), err
    assert err.splitlines()[-1].startswith("error: ") and "internal error" not in err


@pytest.mark.parametrize("key", list(KIND_PARAMS), ids="-".join)
def test_kind_params_bind(capsys, key):
    """Every kind binds its complete parameters and exits 0, 1 or 2."""
    code, _, err = run(capsys, *key[:2], *(f"{k}={v}" for k, v in KIND_PARAMS[key].items()))
    assert code in (0, 1, 2), err


@pytest.mark.parametrize("argv", [
    ("cyclic-d4", "q=2", "m=1"),
    ("distance-optimal-sxs", "q=2", "s=2", "m=1", "lam=3"),
], ids=["cyclic-d4", "sxs"])
def test_cyclic_ingredient_of_length_one_is_a_usage_error(argv):
    # the multiplicative order of Q modulo 1 is 1; a search waiting for
    # Q^e = 1 mod 1 never ends, so the child gets a time limit
    proc = subprocess.run([sys.executable, "-m", "sumrank.cli", "construct", *argv],
                          env=_child_env(), capture_output=True, text=True, timeout=60)
    assert proc.returncode == 4 and proc.stdout == ""
    assert "defining set covers all residues" in proc.stderr


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
    code, out, _ = run(capsys, "bounds", "condition",
                       "family=distance-optimal-sxs", "q=2", "s=2", "m=8")
    assert code == 0
    assert out.splitlines()[1] == ("exact criterion [V_sr(q,2) over 65535 blocks 2x2 > "
                                   "q^36]: True (173939195971 vs 68719476736)")


# one point per condition family, each but quasi-perfect-2xm at a codimension that
# differs from the hand-written s(2m+3), s2(2m+3), 2m+1 or s(2m+4): the built one
@pytest.mark.parametrize("params,lines,exit_code", [
    (("family=cyclic-d4", "q=2", "m=4"),  # binary: C_2 = C_1
     ("rational condition [2*2*1^2 < (2-1)^2]: False",
      "exact criterion [V_sr(q,2) over 15 blocks 1x1 > q^5]: True (121 vs 32)"), 2),
    (("family=quasi-perfect-2xm", "q=3", "m=2", "u=2"),
     ("rational condition [none (no lambda condition)]: True",
      "exact criterion [V_sr(q,2) over 10 blocks 2x2 > q^6]: True (46881 vs 729)"), 0),
    (("family=distance-optimal-sxs", "q=2", "s=2", "m=2"),
     ("rational condition [2*(2-1)^2*1^2 < 2^2 - 1]: True",
      "exact criterion [V_sr(q,2) over 15 blocks 2x2 > q^12]: True (8731 vs 4096)"), 0),
    (("family=distance-optimal-rect", "q=2", "s1=2", "s2=3", "m=1"),
     ("rational condition [2*2^3*(2-1)^2*1^2 < (2^2-1)^2]: False",
      "exact criterion [V_sr(q,2) over 7 blocks 2x3 > q^12]: True (9703 vs 4096)"), 2),
    (("family=plotkin-distance-optimal", "s=2", "m=2"),
     ("rational condition [2*(1 - 2^-2)^4 >= 1]: False",
      "exact criterion [V_sr(q,2) over 30 blocks 2x2 > q^14]: True (35686 vs 16384)"), 2),
], ids=["cyclic-d4", "quasi-perfect-2xm", "sxs", "rect", "plotkin"])
def test_bounds_condition_reads_the_built_codimension(capsys, params, lines, exit_code):
    assert run(capsys, "bounds", "condition", *params) == (exit_code, "\n".join(lines) + "\n", "")


def test_bounds_condition_reads_shape_counts_not_blocks():
    """sxs s=2 m=20 has 2^40 - 1 blocks: the criterion reads one shape count, so it is
    answered (exit 0) quickly, by a child held to 2 GB of address space."""
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
    argv = ["bounds", "condition", "family=distance-optimal-sxs", "q=2", "s=2", "m=20"]
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "sumrank.cli", *argv], env=_child_env(),
                          capture_output=True, text=True, timeout=60, preexec_fn=limit)
    assert proc.returncode == 0, proc.stderr
    assert "over 1099511627775 blocks 2x2" in proc.stdout
    assert time.perf_counter() - start < 5


@pytest.mark.parametrize("family", ["cyclic-d4-alt", "bogus"])
def test_bounds_condition_refuses_uncheckable_families(capsys, family):
    # refused before the parameter checks, which would name x=1 as unknown
    code, out, err = run(capsys, "bounds", "condition", f"family={family}", "q=2", "m=3",
                         "x=1")
    assert code == 4 and out == ""
    assert err == (f"error: bounds condition: no checks for family {family!r}; it checks "
                   "cyclic-d4, quasi-perfect-2xm, distance-optimal-sxs, "
                   "distance-optimal-rect, plotkin-distance-optimal\n")


def test_bounds_strong_blf_and_block_length(capsys):
    code, out, _ = run(capsys, "bounds", "strong-blf", "q=2", "m=2", "u=4", "R=2", "t=64")
    assert code == 0
    assert out.splitlines() == [
        f"strong_singleton_blf(q=2,m=2,u=4,R=2,t=64) = 2^{(64 - 1) * 4 - 4 * 2}",
        "  assumption: universal constant c = 1.0 (non-rigorous)",
        "  assumption: gate 64 >= 22.1807097779",
        "  assumption: requires d_sr = 2R + 1"]
    # 2^399999988 as an integer has 120411995 digits
    code, out, _ = run(capsys, "bounds", "strong-blf", "q=2", "m=2", "u=4", "R=2", "t=100000000")
    assert code == 0
    assert out.splitlines()[0] == "strong_singleton_blf(q=2,m=2,u=4,R=2,t=100000000) = 2^399999988"
    code, out, _ = run(capsys, "bounds", "block-length", "q=2", "m=2", "u=4", "R=2")
    assert code == 0
    assert out.splitlines() == [
        f"block_length_bound(q=2,m=2,codim=12,R=2) = {2.0 ** 4 * 2 * math.log(2)!r}",
        "  assumption: universal constant c = 1.0 (non-rigorous)",
        "  assumption: tolerance 1e-12"]
    code, out, err = run(capsys, "bounds", "strong-blf", "q=2", "m=2", "u=4", "R=2", "t=10")
    assert code == 4 and out == "" and "gate failed" in err
    # a float parameter takes an integer token as it is
    code, out, _ = run(capsys, "bounds", "block-length", "q=2", "m=2", "u=4", "R=2", "c=2")
    assert code == 0 and "  assumption: universal constant c = 2 (non-rigorous)" in out
    code, out, err = run(capsys, "bounds", "block-length", "q=2", "m=2", "u=6", "R=2")
    assert code == 4 and out == "" and "divisibility gate failed" in err


def test_table_strong_bch(capsys):
    code, out, _ = run(capsys, "table", "strong-bch", "m=2", "e=2", "n=16",
                       "t=65535,70000")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 1 + 2 * (1 + 16)
    assert "n/a" in out and "strong" in out
    code, out, _ = run(capsys, "table", "strong-bch", "m=2", "e=2", "n=16", "t=")
    assert code == 4 and out == ""  # a table of no lengths is refused, not printed empty


def test_table_strong_bch_rows_stop_at_the_rows_of_the_blocks(capsys):
    """A t's d grid, 4m^2 e - 1 .. 4m^2 (e + 1) - 1, stops at d = tm: with m = e = 1 and t = 3
    one row is left, and with m = 2, t = 1 none (tm = 2 < 15)."""
    header = f"{'t':>8} {'d':>6} {'strong_exp':>12} {'singleton_exp':>14} winner\n"
    assert run(capsys, "table", "strong-bch", "m=1", "e=1", "n=2", "t=3") == (
        0, header + f"{3:>8} {3:>6} {'n/a':>12} {1:>14} singleton\n", "")
    assert run(capsys, "table", "strong-bch", "m=2", "e=1", "n=1", "t=1") == (0, header, "")
    # each t keeps the rows up to its own tm
    code, out, _ = run(capsys, "table", "strong-bch", "m=1", "e=1", "n=2", "t=3,5,9")
    assert code == 0
    assert [tuple(map(int, line.split()[:2])) for line in out.splitlines()[1:]] == [
        (3, 3), (5, 3), (5, 4), (5, 5), (9, 3), (9, 4), (9, 5), (9, 6), (9, 7)]


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


def _readme_cli_lines() -> list[list[str]]:
    """The `sumrank ...` lines of the README's CLI `sh` block, split as a shell would."""
    section = (ROOT / "README.md").read_text(encoding="utf-8").split("\n## CLI\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("sumrank ")]


def test_readme_cli_examples_run(tmp_path, capsys, monkeypatch):
    # in order, since the second line reads the descriptor that the first writes
    monkeypatch.chdir(tmp_path)
    lines = _readme_cli_lines()
    assert len(lines) >= 8
    for argv in lines:
        code, _, err = run(capsys, *argv)
        assert code in (0, 1, 2), (argv, err)


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
    code, out, err = run(capsys, "construct", "quasi-perfect-2xm", "q=2", "m=2")
    assert code == 4 and out == ""
    assert err == "error: recipe quasi-perfect-2xm: missing parameter u=\n"


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


@pytest.mark.parametrize("params,t,block,method,cert_block", [
    (("q=2", "m=4", "t=8"), 8, [[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 0]],
     "composition(covering: 8 repetition, 8 repetition, 8 repetition, 8 repetition)",
     [[1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]),
    (("q=3", "m=2", "t=9"), 9, [[0, 0], [1, 0]],
     "composition(covering: 9 repetition, 9 repetition)", [[1, 0], [0, 0]]),
], ids=["params0-8-block0", "params1-9-block1"])
def test_enumeration_witness_is_pinned(tmp_path, capsys, params, t, block, method,
                                       cert_block):
    # the witness is the first least-weight word of the enumeration order;
    # another order would pick another weight-t word.  The certificate takes d
    # and its word from the composition, read before enumeration, which agrees
    built = cs.build_recipe("covering-repetition", **parse_params(list(params)))
    weight, word = sd.least_weight_word(built.base, built._generator_rows_packed(),
                                        built.profile.blocks)
    assert weight == t
    assert [[list(row) for row in mat] for mat in built.to_word(word).matrices] == [block] * t
    cert = tmp_path / "cert.json"
    code, _, _ = run(capsys, "certify", "singleton", "--recipe", "covering-repetition",
                     *params, "--out", str(cert))
    assert code == 0
    quantities = {q["name"]: q for q in json.loads(cert.read_text())["quantities"]}
    assert quantities["min_sum_rank_distance"]["value"] == t
    assert quantities["min_sum_rank_distance"]["method"] == method
    assert quantities["distance_witness"]["value"] == [cert_block] * t


ZERO_2X2 = [[0, 0], [0, 0]]


@pytest.mark.parametrize("claim,recipe,params,exit_code,d,witness,method,cert_witness", [
    ("quasi-perfect", "quasi-perfect-2xm", ("q=2", "m=2", "u=2"), 0, 3,
     [[[0, 0], [1, 1]], [[0, 1], [0, 1]], [[1, 0], [0, 0]]] + [ZERO_2X2] * 2,
     "composition(linearized: 3 hamming, 2 parity) / syndrome-dp",
     [[[0, 0], [1, 1]], [[0, 1], [0, 1]], [[1, 0], [0, 0]]] + [ZERO_2X2] * 2),
    ("quasi-perfect", "quasi-perfect-2x2", ("t=6",), 0, 4,
     [[[1, 1], [1, 0]], [[1, 1], [1, 0]]] + [ZERO_2X2] * 4,
     "composition(linearized: 2 parity, 4 syndrome-dp)",
     [[[1, 0], [0, 1]]] + [ZERO_2X2] * 4 + [[[1, 0], [0, 1]]]),
    ("quasi-perfect", "almost-msrd-2x2", ("q=3", "t=9"), 1, 4,
     [[[0, 2], [2, 0]], [[0, 1], [1, 0]]] + [ZERO_2X2] * 7,
     "composition(linearized: 4 reed-solomon, 2 parity)",
     [[[1, 0], [0, 2]]] + [ZERO_2X2] * 7 + [[[2, 0], [0, 1]]]),
    ("quasi-perfect", "distance-optimal-sxs", ("q=3", "s=2", "m=1"), 1, 4,
     [[[0, 2], [2, 0]], [[0, 1], [1, 0]]] + [ZERO_2X2] * 6,
     "composition(linearized: 4 bch, 2 parity)",
     [[[1, 0], [0, 2]]] + [ZERO_2X2] * 6 + [[[2, 0], [0, 1]]]),
], ids=["quasi-perfect-2xm", "quasi-perfect-2x2", "almost-msrd-2x2", "distance-optimal-sxs"])
def test_dp_witness_is_pinned(tmp_path, capsys, claim, recipe, params, exit_code, d,
                              witness, method, cert_witness):
    # the DP walks back from the last block, taking the smallest block value
    # at each tie; another walk would pick another weight-d word.  The
    # certificate's d is the DP's; its method and word are those of the source
    # that closes d first
    built = cs.build_recipe(recipe, **parse_params(list(params)))
    dp = built.budgeted_dp()
    assert dp.distance == d
    assert [[list(row) for row in mat] for mat in built.to_word(dp.witness).matrices] == witness
    cert = tmp_path / "cert.json"
    code, _, _ = run(capsys, "certify", claim, "--recipe", recipe, *params,
                     "--out", str(cert))
    assert code == exit_code
    quantities = {q["name"]: q for q in json.loads(cert.read_text())["quantities"]}
    assert quantities["min_sum_rank_distance"]["value"] == d
    assert quantities["min_sum_rank_distance"]["method"] == method
    assert quantities["distance_witness"]["value"] == cert_witness


@pytest.mark.parametrize("argv, dp_passes, support_searches, d", [
    (("distance-optimal", "--recipe", "distance-optimal-2x2", "q=3"), 0, 0,
     "4   [composition(linearized: 4 hartmann-tzeng, 2 parity)]"),
    (("almost-msrd", "--recipe", "almost-msrd-2x2", "q=7", "t=49",
      "--syndrome-budget", "10000000", "--sweep-budget", "100000000000"), 0, 0,
     "4   [composition(linearized: 4 reed-solomon, 2 parity)]"),
    (("distance-optimal", "--recipe", "cyclic-d4", "q=2", "m=10"), 0, 1,
     "4   [bch / support_test]"),
], ids=["2x2-q3", "almost-msrd-q7-raised", "cyclic-d4-m10"])
def test_structure_is_read_before_any_engine(capsys, monkeypatch, argv, dp_passes,
                                             support_searches, d):
    """What a code's structure proves is read before any engine, and an engine runs only
    where it is needed: the composition closes d = 4 on distance-optimal-2x2 q=3 and, at
    budgets the DP's 7^8 syndromes fit, on almost-msrd-2x2 q=7 t=49, with no DP pass; on
    cyclic-d4 q=2 m=10 the BCH bound gives d >= 4 and one support search, read with it
    before the DP, closes d with a word of that weight, so no DP pass runs."""
    calls = {"dp": 0, "search": 0}

    def counted(name, engine):
        def call(*args, **kwargs):
            calls[name] += 1
            return engine(*args, **kwargs)
        return call
    monkeypatch.setattr(sd, "syndrome_dp", counted("dp", sd.syndrome_dp))
    monkeypatch.setattr(hm, "iter_low_weight", counted("search", hm.iter_low_weight))
    code, out, _ = run(capsys, "certify", *argv)
    assert code == 0
    assert f"  min_sum_rank_distance    = {d}" in out.splitlines()
    assert (calls["dp"], calls["search"]) == (dp_passes, support_searches)


@pytest.mark.parametrize("argv", [
    ("construct", "almost-msrd-2x2", "q=2", "t=4"),
    ("certify", "almost-msrd", "--recipe", "almost-msrd-2x2", "q=2", "t=4"),
], ids=["construct", "certify"])
def test_missing_out_directory_refused_before_work(tmp_path, capsys, monkeypatch, argv):
    from sumrank import construct as cs
    monkeypatch.setattr(cs, "build_recipe", lambda *a, **k: pytest.fail("code was built"))
    out = tmp_path / "missing" / "x.json"
    code, stdout, err = run(capsys, *argv, "--out", str(out))
    assert code == 4 and stdout == ""
    assert str(out) in err
    assert not out.parent.exists()


@pytest.mark.parametrize("argv,sha256", [
    (("construct", "distance-optimal-2x2", "q=3"),
     "c3ed45fcb063272dafedbe3f89622ed3dc77f3cae8c1861caadeab9f8d5984bc"),
    (("certify", "quasi-perfect", "--recipe", "quasi-perfect-2xm", "q=2", "m=2", "u=2"),
     "e6f39032f87cf5c965274f1f1a622af65f237e4ef7cbf27b4e7f34110766f7c6"),
], ids=["descriptor", "certificate"])
def test_out_bytes_are_pinned(tmp_path, capsys, argv, sha256):
    # the hashes are those of json.dump(s)(..., sort_keys=True, indent=2),
    # which wrote both kinds of --out file before the streaming writer; the
    # certificate's includes its toolchain-version, sumrank 0.2.15
    out = tmp_path / "out.json"
    assert run(capsys, *argv, "--out", str(out))[0] == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256


def test_dense_size_gate_refuses_only_the_descriptor(tmp_path, capsys):
    # the length-32767 cyclic ingredient over GF(8) is built from its parity
    # alone (3.2 s and a 15.6 MB peak under tracemalloc); only its descriptor
    # would need the 32756 x 32767 generator, which the gate refuses from k and n
    tracemalloc.start()
    start = time.perf_counter()
    try:
        code, out, _ = run(capsys, "construct", "distance-optimal-sxs",
                           "q=2", "s=3", "m=5", "lam=1")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and "t = 32767 blocks of 3x3" in out
    assert time.perf_counter() - start < 10
    assert peak < 24 << 20
    descriptor = tmp_path / "code.json"
    code, _, err = run(capsys, "construct", "distance-optimal-sxs",
                       "q=2", "s=3", "m=5", "lam=1", "--out", str(descriptor))
    assert code == 4
    assert f"{32756 * 32767} cells" in err and str(hm.DENSE_CELL_LIMIT) in err
    assert not descriptor.exists()


def test_failed_certificate_write_leaves_no_file(tmp_path, capsys, monkeypatch):
    def to_json(cert, write):
        write("{")
        raise MemoryError()

    monkeypatch.setattr(ct.Certificate, "to_json", to_json)
    out = tmp_path / "cert.json"
    code, _, err = run(capsys, "certify", "quasi-perfect", "--recipe", "quasi-perfect-2xm",
                       "q=2", "m=2", "u=2", "--out", str(out))
    assert code == 3 and err == "internal error: MemoryError\n"
    assert not out.exists()


def test_a_write_failing_midway_removes_its_regular_file(tmp_path):
    def write(put):
        put("{")
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    out = tmp_path / "cert.json"
    with pytest.raises(OSError) as raised:
        cli._write_out(str(out), write)
    assert raised.value.errno == errno.ENOSPC and not out.exists()


@pytest.mark.skipif(not (os.path.exists("/dev/full")
                         and stat.S_ISCHR(os.stat("/dev/full").st_mode)),
                    reason="no /dev/full character device")
def test_a_failed_write_into_a_device_removes_nothing(capsys, monkeypatch):
    """A write into /dev/full fails with ENOSPC; the device is not a file the write made, so
    nothing is removed and the error is the one reported."""
    removed = []
    monkeypatch.setattr(cli.os, "remove", removed.append)
    code, _, err = run(capsys, "construct", "quasi-perfect-2xm", "q=2", "m=2", "u=2",
                       "--out", "/dev/full")
    assert code == 3 and "No space left on device" in err and removed == []


def test_write_json_streams_a_descriptor():
    # json.dumps of this descriptor holds about 3.4 MB; the writer holds a few pieces
    descriptor = cli._descriptor(cs.distance_optimal_2x2(4))
    digest = hashlib.sha256()
    tracemalloc.start()
    try:
        ct.write_json(descriptor, lambda piece: digest.update(piece.encode()))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    expected = json.dumps(descriptor, sort_keys=True, indent=2).encode()
    assert digest.hexdigest() == hashlib.sha256(expected).hexdigest()


def _child_env(**env) -> dict:
    clean = {k: v for k, v in os.environ.items()
             if k not in ("OPENBLAS_NUM_THREADS", "PYTHONUNBUFFERED")}
    return dict(clean, PYTHONPATH=str(SRC), **env)


def _fresh_python(code: str, **env) -> str:
    return subprocess.run([sys.executable, "-c", code], env=_child_env(**env),
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


def test_import_loads_no_unused_stdlib_module():
    # every job imports numpy, json and argparse anyway; sumrank adds no
    # generated-method machinery (dataclasses) and no fractions or decimal,
    # and still loads every module the benchmark's tracing resolves by name
    child = ("import argparse, json, sys, numpy\n"
             "before = set(sys.modules)\n"
             "import sumrank.cli\n"
             "added = sorted(set(sys.modules) - before)\n"
             f"sys.path.insert(0, {str(ROOT / 'bench')!r})\n"
             "from tracing import SUMRANK_MODULES\n"
             "print(json.dumps([added, [m for m in SUMRANK_MODULES if m not in sys.modules]]))\n")
    added, missing = json.loads(subprocess.run(
        [sys.executable, "-c", child], env=_child_env(), capture_output=True, text=True,
        check=True).stdout)
    assert not {"dataclasses", "fractions", "decimal"} & set(added)
    assert "sumrank.cli" in added and missing == []


@pytest.mark.parametrize("argv", [("construct", "cyclic-d4", "q=4", "m=3", "lam=1"),
                                  ("construct", "cyclic-d4-alt", "q=3", "m=3")],
                         ids=["cyclic-d4", "cyclic-d4-alt"])
def test_a_cyclic_build_that_passes_its_gates_loads_no_decimal(argv):
    # a gate's refusal text prints its length with int_text, which loads decimal; a build
    # the gates admit forms no such text
    assert _fresh_python("import contextlib, io, sys\n"
                         "from sumrank import cli\n"
                         "with contextlib.redirect_stdout(io.StringIO()):\n"
                         f"    code = cli.main({list(argv)!r})\n"
                         "print(code, 'decimal' in sys.modules)\n") == ["0", "False"]


@pytest.mark.parametrize("exit_code,argv", [
    (0, ("certify", "distance-optimal", "--recipe", "distance-optimal-2x2", "q=2")),
    (1, ("certify", "msrd", "--recipe", "almost-msrd-2x2", "q=2", "t=4")),
    (2, ("certify", "distance-optimal", "--recipe", "cyclic-d4", "q=4", "m=2", "lam=1")),
    (3, ("certify", "almost-msrd", "--code", "CORRUPTED")),
    (4, ("certify", "distance-optimal", "--recipe", "nope")),
], ids=["certified", "refuted", "inconclusive", "internal-error", "usage-error"])
def test_process_matches_in_process_main(tmp_path, capsys, exit_code, argv):
    # the process exits through run(), which skips teardown; nothing a user
    # sees may differ from main() in this interpreter
    desc = tmp_path / "code.json"
    if "CORRUPTED" in argv:
        _write_corrupted_descriptor(desc, capsys)
    out = tmp_path / "out.json"
    argv = [str(desc) if a == "CORRUPTED" else a for a in argv] + ["--out", str(out)]
    proc = subprocess.run([sys.executable, "-m", "sumrank.cli", *argv], env=_child_env(),
                          capture_output=True)
    process = (proc.returncode, proc.stdout, proc.stderr,
               out.read_bytes() if out.exists() else None)
    out.unlink(missing_ok=True)
    code = main(argv)
    captured = capsys.readouterr()
    in_process = (code, captured.out.encode(), captured.err.encode(),
                  out.read_bytes() if out.exists() else None)
    assert process == in_process
    assert code == exit_code and (in_process[3] is not None) == (exit_code < 3)


def test_process_exit_skips_teardown():
    child = ("import atexit, runpy, sys\n"
             "atexit.register(lambda: print('TEARDOWN', flush=True))\n"
             "sys.argv = ['sumrank', 'selftest']\n"
             "runpy.run_module('sumrank.cli', run_name='__main__')\n")
    proc = subprocess.run([sys.executable, "-c", child], env=_child_env(),
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "[PASS]" in proc.stdout and "TEARDOWN" not in proc.stdout


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_failed_final_flush_is_internal_error(unbuffered):
    # buffered, the write fails in run()'s flush; unbuffered, in main()'s print
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = _child_env(PYTHONUNBUFFERED="1") if unbuffered else _child_env()
    try:
        proc = subprocess.run([sys.executable, "-m", "sumrank.cli", "selftest"],
                              stdout=write_end, stderr=subprocess.PIPE, env=env, text=True)
    finally:
        os.close(write_end)
    assert proc.returncode == 3
    assert proc.stderr.startswith("internal error: BrokenPipeError")
    assert proc.stderr.count("\n") == 1


def _close_stdout_and_stderr():
    os.close(1)
    os.close(2)


def test_closed_standard_streams_are_not_an_error():
    # started with fds 1 and 2 closed, sys.stdout and sys.stderr are None
    proc = subprocess.run([sys.executable, "-m", "sumrank.cli", "selftest"],
                          env=_child_env(), preexec_fn=_close_stdout_and_stderr)
    assert proc.returncode == 0


def test_package_version_matches_pyproject():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        version = tomllib.load(fh)["project"]["version"]
    assert version == sumrank.__version__
    assert ct.TOOLCHAIN_VERSION == f"sumrank {version}"


def test_console_script_is_run():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts == {"sumrank": "sumrank.cli:run"}
