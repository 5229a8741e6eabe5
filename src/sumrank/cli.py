"""Batch command-line front end.

Subcommands: construct, certify, bounds, table, selftest.  Parameters are
key=value tokens (ints where they parse); a config file of KEY=VALUE lines
may supply defaults.  Exit codes: 0 certified/ok, 1 refuted, 2
inconclusive, 3 internal error, 4 usage error.

`run()` is the process entry point; Python callers use `main(argv)`, which
returns the exit code and leaves the interpreter running.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from typing import NoReturn

from . import certify as ct
from . import construct as cs
from . import hamming as hm
from .spaces import (MatrixProfile, ball_volume_exact, count_rank_matrices, rank, rank_array,
                     unpack_matrix)
from .gf import make_field

USAGE_ERROR = 4
INTERNAL_ERROR = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(USAGE_ERROR)


def _parse_value(text: str):
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def parse_params(tokens, config_path: str | None = None) -> dict:
    params: dict = {}
    if config_path:
        with open(config_path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ValueError(f"config line without '=': {line!r}")
                key, val = line.split("=", 1)
                params[key.strip()] = _parse_value(val.strip())
    for tok in tokens:
        if "=" not in tok:
            raise ValueError(f"expected key=value, got {tok!r}")
        key, val = tok.split("=", 1)
        params[key.strip()] = _parse_value(val.strip())
    return params


def _summarize(code) -> str:
    if isinstance(code, hm.LinearCode):
        d = code.designed_distance
        return (f"linear code [{code.n},{code.k}{',' + str(d) if d else ''}]_"
                f"{code.field.order}"
                + (f"  defining set {list(code.defining_set)}" if code.defining_set else ""))
    prof = code.profile
    shapes = sorted(set(prof.blocks))
    shape_txt = ", ".join(f"{n}x{m}" for n, m in shapes)
    return (f"sum-rank code over GF({prof.q}): t = {prof.t} blocks of {shape_txt}, "
            f"dim {code.dim}, |C| = {prof.q}^{code.dim}, ambient dim {prof.ambient_dim}")


def _descriptor(code, recipe: str, params: dict) -> dict:
    return {"recipe": recipe, "params": params, "descriptor": code.describe()}


def _check_out_dir(path: str | None) -> None:
    """Refuse an --out path whose directory does not exist, before any work."""
    if path:
        directory = os.path.dirname(os.path.abspath(path))
        if not os.path.isdir(directory):
            raise FileNotFoundError(f"--out {path}: no directory {directory}")


def cmd_construct(args) -> int:
    _check_out_dir(args.out)
    params = parse_params(args.params, args.config)
    code = cs.build_recipe(args.recipe, **params)
    print(_summarize(code))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            ct.write_json(_descriptor(code, args.recipe, params), fh.write)
            fh.write("\n")
        print(f"descriptor written to {args.out}")
    return 0


def _load_code(args):
    if args.code:
        given = [f"{o} {v}" for o, v in (("--recipe", args.recipe), ("--config", args.config))
                 if v] + args.params
        if given:
            raise ValueError(f"--code takes no recipe or parameters; got {' '.join(given)}")
        with open(args.code, "r", encoding="utf-8") as fh:
            saved = json.load(fh)
        code = cs.build_recipe(saved["recipe"], **saved["params"])
        fresh = json.dumps(_descriptor(code, saved["recipe"], saved["params"]),
                           sort_keys=True)
        if json.dumps(saved, sort_keys=True) != fresh:
            raise RuntimeError("descriptor mismatch: reload does not reproduce the code")
        return code
    if not args.recipe:
        raise ValueError("either --code FILE or --recipe NAME is required")
    return cs.build_recipe(args.recipe, **parse_params(args.params, args.config))


def cmd_certify(args) -> int:
    _check_out_dir(args.out)
    code = _load_code(args)
    cert = ct.certify_code(code, args.claim, enum_budget=args.enum_budget,
                           syndrome_budget=args.syndrome_budget,
                           work_budget=args.sweep_budget)
    print(cert.to_table())
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            cert.to_json(fh.write)
            fh.write("\n")
        print(f"certificate written to {args.out}")
    return cert.exit_code


def _profile(p: dict) -> MatrixProfile:
    """The profile of `q=Q blocks=NxM[,NxM...]` over GF(Q)."""
    blocks = tuple(tuple(map(int, b.split("x"))) for b in str(p["blocks"]).split(","))
    return MatrixProfile(cs.field_of_order(p["q"]), blocks)


# The (required, optional) parameter names each kind reads, in the order a missing
# one is named; `bounds condition` also reads its family's recipe parameters.
BOUND_PARAMS = {
    "singleton": (("q", "blocks", "d"), ()),
    "strong-bch": (("m", "t", "e", "n", "d"), ()),
    "strong-blf": (("q", "m", "u", "R", "t"), ("c",)),
    "block-length": (("q", "m", "u", "R"), ("c",)),
    "entropy": (("Q", "rho"), ()),
    "volume": (("q", "blocks", "r"), ()),
    "bch-radius-interval": (("e", "n"), ()),
    "condition": (("family",), ()),
}
TABLE_PARAMS = {"strong-bch": (("m", "e", "n", "t"), ())}


def _kind_params(args, declared: dict) -> dict:
    """The parameters of `args`, refused unless its kind reads exactly those keys."""
    p = parse_params(args.params, args.config)
    required, optional = declared[args.kind]
    if args.kind == "condition" and "family" in p:
        if p["family"] not in ct.CONDITION_FAMILIES:
            raise ValueError(f"{args.command} {args.kind}: no checks for family "
                             f"{p['family']!r}; it checks {', '.join(ct.CONDITION_FAMILIES)}")
        family_required, optional = cs.recipe_params(p["family"])
        required += family_required
    unknown = sorted(set(p) - set(required + optional))
    if unknown:
        raise ValueError(f"{args.command} {args.kind}: unknown parameters {unknown}; "
                         f"it reads {', '.join(required + optional)}")
    missing = [k for k in required if k not in p]
    if missing:
        raise ValueError(f"{args.command} {args.kind}: missing parameter {missing[0]}=")
    return p


def cmd_bounds(args) -> int:
    p = _kind_params(args, BOUND_PARAMS)
    kind = args.kind
    if kind == "singleton":
        print(ct.singleton_like_bound(_profile(p), p["d"]))
        return 0
    if kind == "strong-bch":
        rec = ct.strong_singleton_bch(p["m"], p["t"], p["e"], p["n"], p["d"])
        if not rec.applicable:
            print(f"inapplicable: {rec.reason}")
            return 2
        print(f"case {rec.case}: bound {rec.bound}")
        print(f"singleton-like: {rec.singleton}")
        print(f"improves: {rec.improves}")
        return 0
    if kind == "strong-blf":
        rec = ct.strong_singleton_blf(p["q"], p["m"], p["u"], p["R"], p["t"],
                                      p.get("c", 1.0))
        print(f"{rec.name} = {rec.value}")
        for a in rec.assumptions:
            print(f"  assumption: {a}")
        return 0
    if kind == "block-length":
        rec = ct.block_length_bound(p["q"], p["m"], p["u"], p["R"], p.get("c", 1.0))
        print(f"{rec.name} = {rec.value!r}")
        for a in rec.assumptions:
            print(f"  assumption: {a}")
        return 0
    if kind == "entropy":
        print(repr(ct.entropy(p["Q"], p["rho"])))
        return 0
    if kind == "bch-radius-interval":
        interval = hm.bch_covering_radius_interval(p["e"], p["n"])
        if interval is None:
            print("inapplicable: 2^n below (2e-1)^(4e+2)")
            return 2
        print(f"[{interval[0]}, {interval[1]}]")
        return 0
    if kind == "volume":
        print(ball_volume_exact(_profile(p), p["r"]))
        return 0
    rec = ct.family_condition_checks(p.pop("family"), p)  # kind == "condition"
    print(f"rational condition [{rec.rational_condition}]: {rec.rational_holds}")
    print(f"exact criterion [{rec.exact_criterion}]: {rec.exact_holds} "
          f"({rec.exact_lhs} vs {rec.exact_rhs})")
    return 0 if (rec.rational_holds and rec.exact_holds) else 2


def cmd_table(args) -> int:
    p = _kind_params(args, TABLE_PARAMS)
    m, e, n = p["m"], p["e"], p["n"]
    ts = [int(x) for x in str(p["t"]).split(",") if x != ""]
    print(f"{'t':>8} {'d':>6} {'strong_exp':>12} {'singleton_exp':>14} winner")
    for t in ts:
        for i in range(-1, 4 * m * m):
            d = 4 * m * m * e + i
            rec = ct.strong_singleton_bch(m, t, e, n, d)
            strong_exp = rec.exponent if rec.applicable else "n/a"
            winner = "strong" if rec.improves else "singleton"
            print(f"{t:>8} {d:>6} {strong_exp:>12} {rec.singleton_exponent:>14} {winner}")
    return 0


def cmd_selftest(args) -> int:
    checks = []
    f4 = make_field(2, [2])
    checks.append(("GF(4): w*w = w+1", f4.mul(2, 2) == 3))
    checks.append(("rank count (2,2,1,2) = 9", count_rank_matrices(2, 2, 1, 2) == 9))
    f3 = make_field(3, [1])
    checks.append(("GF(3) 2x3 rank table = elimination",
                   rank_array(f3, 2, 3).tolist()
                   == [rank(f3, unpack_matrix(f3, v, 2, 3)) for v in range(3 ** 6)]))
    f2 = make_field(2, [1])
    prof = MatrixProfile(f2, ((2, 2), (2, 2)))
    checks.append(("ball volume 112", ball_volume_exact(prof, 2) == 112))
    h = hm.hamming_code(f4, 2)
    checks.append(("Hamming [5,3,3]_4 d=3", ct.sr_min_distance(h).value == 3))
    checks.append(("Hamming [5,3,3]_4 R=1", hm.covering_radius(h)[0] == 1))
    am = cs.almost_msrd_2x2(2, 4)
    d = ct.sr_min_distance(am)
    checks.append(("almost-MSRD d=4 defect=2",
                   d.value == 4 and ct.singleton_defect(am.profile, am.dim, 4) == 2))
    ok = True
    for name, passed in checks:
        print(f"[{'PASS' if passed else 'FAIL'}] {name}")
        ok = ok and passed
    return 0 if ok else INTERNAL_ERROR


def build_parser() -> _Parser:
    parser = _Parser(prog="sumrank",
                     description="construct and certify sum-rank-metric codes")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("--config", help="KEY=VALUE config file merged into params")
        sp.add_argument("params", nargs="*", help="key=value parameters")

    c = sub.add_parser("construct", help="build a named recipe")
    c.add_argument("recipe")
    c.add_argument("--out", help="write the code descriptor as JSON")
    add_common(c)
    c.set_defaults(fn=cmd_construct)

    z = sub.add_parser("certify", help="run a certification job")
    z.add_argument("claim", choices=ct.CLAIMS)
    z.add_argument("--recipe")
    z.add_argument("--code", help="descriptor JSON written by construct")
    z.add_argument("--out", help="write the certificate as JSON")
    z.add_argument("--enum-budget", type=int, default=ct.ENUM_BUDGET,
                   help="most codewords an exhaustive distance enumeration may "
                        "stream, and most half-words per table of the Hamming "
                        "support search")
    z.add_argument("--sweep-budget", type=int, default=ct.WORK_BUDGET,
                   help="most syndrome-DP work: shift passes x q^codim "
                        "plus block values, over all blocks")
    z.add_argument("--syndrome-budget", type=int, default=ct.SYNDROME_BUDGET,
                   help="most syndromes (q^codim) the syndrome DP may hold")
    add_common(z)
    z.set_defaults(fn=cmd_certify)

    b = sub.add_parser("bounds", help="evaluate a bound or hypothesis check")
    b.add_argument("kind", choices=list(BOUND_PARAMS))
    add_common(b)
    b.set_defaults(fn=cmd_bounds)

    t = sub.add_parser("table", help="tabulate bound comparisons over a grid")
    t.add_argument("kind", choices=list(TABLE_PARAMS))
    add_common(t)
    t.set_defaults(fn=cmd_table)

    s = sub.add_parser("selftest", help="quick golden-value battery")
    s.set_defaults(fn=cmd_selftest)
    return parser


def main(argv=None) -> int:
    ct.unlock_big_int_strings()
    parser = build_parser()
    try:
        args, extra = parser.parse_known_args(argv)
        for tok in extra:
            if tok.startswith("-") or "=" not in tok:
                parser.error(f"unrecognized argument: {tok!r}")
        if hasattr(args, "params"):
            args.params = list(args.params) + extra
        elif extra:
            parser.error(f"unexpected parameters: {extra}")
        return args.fn(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_ERROR
    except (ValueError, KeyError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except Exception as exc:  # noqa: BLE001 - report and keep the >2 contract
        _report_internal_error(exc)
        return INTERNAL_ERROR


def _report_internal_error(exc: Exception) -> None:
    name = type(exc).__name__
    print(f"internal error: {name}: {exc}" if str(exc) else f"internal error: {name}",
          file=sys.stderr)


def run() -> NoReturn:
    """Run `main()` on the process's arguments and exit without interpreter teardown.

    Finalizing the module state of numpy and sumrank costs about 50 ms per
    process and serves no CLI user, so once standard output and standard
    error are flushed the process ends by `os._exit`.  That skips `atexit`
    handlers and the close of every open file object: every file the CLI
    writes (`--out`, and any output file added later) must be written and
    closed inside `main`, as the `with` blocks of `cmd_construct` and
    `cmd_certify` do.  A flush that fails, such as on a pipe whose reader has
    gone, turns the exit code into 3 with the `internal error:` line that
    the same failure gives inside `main`.  An exception that `main` lets
    through (KeyboardInterrupt) propagates, and the interpreter exits the
    normal way.
    """
    code = main()
    try:
        if sys.stdout is not None:
            sys.stdout.flush()
    except OSError as exc:
        code = INTERNAL_ERROR
        with contextlib.suppress(OSError):
            _report_internal_error(exc)
    try:
        if sys.stderr is not None:
            sys.stderr.flush()
    except OSError:
        code = INTERNAL_ERROR
    os._exit(code)


if __name__ == "__main__":
    run()
