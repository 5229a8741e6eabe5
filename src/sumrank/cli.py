"""Batch command-line front end.

Subcommands: construct, certify, bounds, table, selftest.  Parameters are
key=value tokens; a config file of KEY=VALUE lines may supply defaults.
A recipe (`construct.RECIPES`) or a `bounds` or `table` kind (`KINDS`)
binds them by its signature (`construct.bind_params`).  Exit codes: 0
certified/ok, 1 refuted, 2 inconclusive, 4 usage error (a `gf.UsageError`,
or an input file missing or unreadable), 3 internal error (any other).

One rule prints exact integers: a bound that is a power of q prints as
`q^e`, and any other integer (a ball volume, a condition's two sides) in
full through `gf.int_text`.  So no sumrank code changes the interpreter's
int-to-str cap.

`run()` is the process entry point; Python callers use `main(argv)`, which
returns the exit code and leaves the interpreter running.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import stat
import sys
from typing import NoReturn

from . import certify as ct
from . import construct as cs
from . import hamming as hm
from .spaces import (MatrixProfile, Shapes, ball_volume, ball_volume_exact, block_counts,
                     count_rank_matrices, rank, rank_array, unpack_matrix)
from .gf import UsageError, int_text, make_field, nullspace, prime_power

USAGE_ERROR = 4
INTERNAL_ERROR = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise UsageError(message)


def _parse_value(text: str):
    """An int where `text` parses as one, else a float, else the text."""
    for parse in (int, float):
        try:
            return parse(text)
        except ValueError:
            pass
    return text


def budget(text: str) -> int:
    """A budget option's value: an int >= 0, where 0 switches the engine off."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"budget {value} is negative")
    return value


def file_path(text: str) -> str:
    """A file option's value, checked before any work: not a directory, in one that exists."""
    if os.path.isdir(text):
        raise argparse.ArgumentTypeError(f"{text} is a directory, not a file")
    directory = os.path.dirname(os.path.abspath(text))
    if not os.path.isdir(directory):
        raise argparse.ArgumentTypeError(f"{text}: no directory {directory}")
    return text


def parse_params(tokens, config_path: str | None = None) -> dict:
    """key=value tokens, after the KEY=VALUE lines of the config file, which they override."""
    pairs = []
    if config_path:
        with open(config_path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.split("#", 1)[0].strip()
                if line and "=" not in line:
                    raise UsageError(f"config line without '=': {line!r}")
                pairs += [line] if line else []
    for tok in tokens:
        if "=" not in tok:
            raise UsageError(f"expected key=value, got {tok!r}")
    return {key.strip(): _parse_value(val.strip())
            for key, val in (pair.split("=", 1) for pair in pairs + list(tokens))}


def _summarize(code) -> str:
    if isinstance(code, hm.LinearCode):
        return (f"linear code {code!r}"
                + (f"  defining set {list(code.defining_set)}" if code.defining_set else ""))
    prof = code.profile
    shape_txt = ", ".join(f"{n}x{m}" for n, m in sorted(prof.shape_counts()))
    return (f"sum-rank code over GF({prof.q}): t = {prof.t} blocks of {shape_txt}, "
            f"dim {code.dim}, |C| = {prof.q}^{code.dim}, ambient dim {prof.ambient_dim}")


def _descriptor(code) -> dict:
    return {"recipe": code.recipe, "params": code.params, "descriptor": code.describe()}


def _write_out(path: str, write) -> None:
    """Stream a document into `path` by `write(fh.write)`; a failure removes a regular file."""
    fh = open(path, "w", encoding="utf-8")
    try:
        with fh:
            write(fh.write)
            fh.write("\n")
    except BaseException:
        with contextlib.suppress(OSError):  # the write's own error is the one raised
            if stat.S_ISREG(os.lstat(path).st_mode):  # never a device such as /dev/full
                os.remove(path)
        raise


def cmd_construct(args) -> int:
    code = cs.build_recipe(args.recipe, **parse_params(args.params, args.config))
    print(_summarize(code))
    if args.out:
        _write_out(args.out, lambda write: ct.write_json(_descriptor(code), write))
        print(f"descriptor written to {args.out}")
    return 0


def _load_code(args):
    if args.code:
        given = [f"{o} {v}" for o, v in (("--recipe", args.recipe), ("--config", args.config))
                 if v] + args.params
        if given:
            raise UsageError(f"--code takes no recipe or parameters; got {' '.join(given)}")
        with open(args.code, "r", encoding="utf-8") as fh:
            saved = json.load(fh)
        if not (isinstance(saved, dict) and isinstance(saved.get("recipe"), str)
                and isinstance(saved.get("params"), dict) and "descriptor" in saved):
            raise UsageError(f"--code {args.code} is not a code descriptor: an object with "
                             "a string 'recipe', an object 'params' and a 'descriptor'")
        code = cs.build_recipe(saved["recipe"], **saved["params"])
        if (json.dumps(saved["descriptor"], sort_keys=True)
                != json.dumps(code.describe(), sort_keys=True)):
            raise RuntimeError("descriptor mismatch: reload does not reproduce the code")
        return code
    if not args.recipe:
        raise UsageError("either --code FILE or --recipe NAME is required")
    return cs.build_recipe(args.recipe, **parse_params(args.params, args.config))


def cmd_certify(args) -> int:
    budgets = ct.Budgets(args.enum_budget, args.syndrome_budget, args.sweep_budget)
    cert = ct.certify_code(_load_code(args), args.claim, budgets)
    print(cert.to_table())
    if args.out:
        _write_out(args.out, cert.to_json)
        print(f"certificate written to {args.out}")
    return cert.exit_code


KINDS: dict = {"bounds": {}, "table": {}}


def _kind(fn):
    """Register `fn`, named `command_kind`, in KINDS; its signature lists the kind's parameters."""
    command, _, kind = fn.__name__.partition("_")
    KINDS[command][kind.replace("_", "-")] = fn
    return fn


def _show(*lines, code: int = 0) -> int:
    print(*lines, sep="\n")
    return code


def _list_param(name: str, text: str, form: str, item) -> list:
    """`item` of each comma-separated piece of `text`, none empty; a refusal names the form."""
    try:
        return [item(piece) for piece in text.split(",")]
    except ValueError:
        raise UsageError(f"parameter {name}={text!r} is not of the form {form}") from None


def _shapes(q: int, blocks: str) -> Shapes:
    """The blocks of `q=Q blocks=NxM[,NxM...]`, for a prime power Q; no field is built."""
    def shape(piece: str) -> tuple[int, int]:
        n, m = map(int, piece.split("x"))
        return n, m
    shapes = _list_param("blocks", blocks, "NxM[,NxM...]", shape)
    prime_power(q)
    return block_counts(shapes)


@_kind
def bounds_singleton(q: int, blocks: str, d: int) -> int:
    shapes = _shapes(q, blocks)
    N = sum(n * count for (n, _), count in shapes.items())
    if not 1 <= d <= N:
        raise UsageError(f"distance {d} out of range 1..{N}")
    return _show(f"{q}^{ct.singleton_like_exponent(shapes, d)}")


@_kind
def bounds_strong_bch(m: int, t: int, e: int, n: int, d: int) -> int:
    rec = ct.strong_singleton_bch(m, t, e, n, d)
    if not rec.applicable:
        return _show(f"inapplicable: {rec.reason}", code=2)
    return _show(f"case {rec.case}: bound 2^{rec.exponent}",
                 f"singleton-like: 2^{rec.singleton_exponent}", f"improves: {rec.improves}")


def _show_record(rec: ct.BoundRecord) -> int:
    return _show(f"{rec.name} = {rec.value}", *(f"  assumption: {a}" for a in rec.assumptions))


@_kind
def bounds_strong_blf(q: int, m: int, u: int, R: int, t: int, c: float = 1.0) -> int:
    return _show_record(ct.strong_singleton_blf(q, m, u, R, t, c))


@_kind
def bounds_block_length(q: int, m: int, u: int, R: int, c: float = 1.0) -> int:
    return _show_record(ct.block_length_bound(q, m, u, R, c))


@_kind
def bounds_entropy(Q: int, rho: float) -> int:
    return _show(repr(ct.entropy(Q, rho)))


@_kind
def bounds_volume(q: int, blocks: str, r: int) -> int:
    if r < 0:
        raise UsageError("radius must be nonnegative")
    return _show(int_text(ball_volume(q, _shapes(q, blocks), r)))


@_kind
def bounds_bch_radius_interval(e: int, n: int) -> int:
    interval = hm.bch_covering_radius_interval(e, n)
    if interval is None:
        return _show("inapplicable: 2^n below (2e-1)^(4e+2)", code=2)
    return _show(f"[{interval[0]}, {interval[1]}]")


@_kind
def bounds_condition(family: str, **params) -> int:
    """`cmd_kind` binds `family` and then that family's recipe parameters."""
    rec = ct.family_condition_checks(family, params)
    return _show(f"rational condition [{rec.rational_condition}]: {rec.rational_holds}",
                 f"exact criterion [{rec.exact_criterion}]: {rec.exact_holds} "
                 f"({int_text(rec.exact_lhs)} vs {int_text(rec.exact_rhs)})",
                 code=0 if (rec.rational_holds and rec.exact_holds) else 2)


@_kind
def table_strong_bch(m: int, e: int, n: int, t: str) -> int:
    # every record before the first line, so a refused parameter prints nothing; a t's rows
    # run over d = 4m^2 e - 1 .. 4m^2 (e + 1) - 1 and stop at d = tm, the rows of its blocks
    lengths = _list_param("t", t, "T[,T...]", int)
    for length in lengths:
        ct.bch_parameters(m, length, e, n)
    rows = [(length, d, ct.strong_singleton_bch(m, length, e, n, d)) for length in lengths
            for d in range(4 * m * m * e - 1, min(4 * m * m * (e + 1), length * m + 1))]
    print(f"{'t':>8} {'d':>6} {'strong_exp':>12} {'singleton_exp':>14} winner")
    for length, d, rec in rows:
        strong_exp = rec.exponent if rec.applicable else "n/a"
        winner = "strong" if rec.improves else "singleton"
        print(f"{length:>8} {d:>6} {strong_exp:>12} {rec.singleton_exponent:>14} {winner}")
    return 0


def cmd_kind(args) -> int:
    """Run a `bounds` or `table` kind on the parameters its signature binds."""
    fn, params = KINDS[args.command][args.kind], parse_params(args.params, args.config)
    where, declared = f"{args.command} {args.kind}", cs.signature_params(fn)
    if args.kind == "condition" and "family" in params:
        declared += cs.signature_params(cs.condition_family(where, params["family"]))
    return fn(**cs.bind_params(where, declared, params))


def cmd_selftest(args) -> int:
    f2, f3, f4 = make_field(2, [1]), make_field(3, [1]), make_field(2, [2])
    h, am = hm.hamming_code(f4, 2), cs.almost_msrd_2x2(2, 4)
    dp = cs.quasi_perfect_2xm(5, 2, 2).budgeted_dp()  # p = 5: the doubled coset shifts
    rep = cs.covering_repetition(2, 2, 3)
    checks = [
        ("GF(4): w*w = w+1", f4.mul(2, 2) == 3),
        ("rank count (2,2,1,2) = 9", count_rank_matrices(2, 2, 1, 2) == 9),
        ("GF(3) 2x3 rank table = elimination", rank_array(f3, 2, 3).tolist()
         == [rank(f3, unpack_matrix(f3, v, 2, 3)) for v in range(3 ** 6)]),
        ("ball volume 112", ball_volume_exact(MatrixProfile(f2, ((2, 2),) * 2), 2) == 112),
        ("Hamming [5,3,3]_4 d=3 (syndrome DP)", h.budgeted_dp().distance == 3),
        ("Hamming [5,3,3]_4 R=1", hm.covering_radius(h)[0] == 1),
        ("almost-MSRD d=4 defect=2 (syndrome DP)", am.budgeted_dp().distance == 4
         and ct.singleton_defect(am.profile, am.dim, 4) == 2),
        ("quasi-perfect 2x2 over GF(5) d=3 R=2 (syndrome DP)",
         (dp.distance, dp.radius) == (3, 2)),
    ] + [(f"{name} parity = nullspace(RREF(generator))",
          code.flat_parity.tolist() == list(map(list, nullspace(
              code.base, code.flat_generator, code.ambient_dim))))
         for name, code in (("linearized", cs.quasi_perfect_2xm(3, 2, 2)),
                            ("Plotkin", cs.plotkin(rep, rep)))]
    for name, passed in checks:
        print(f"[{'PASS' if passed else 'FAIL'}] {name}")
    return 0 if all(passed for _, passed in checks) else INTERNAL_ERROR


def build_parser() -> _Parser:
    parser = _Parser(prog="sumrank",
                     description="construct and certify sum-rank-metric codes")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("--config", type=file_path, help="KEY=VALUE config file merged into params")
        sp.add_argument("params", nargs="*", help="key=value parameters")

    c = sub.add_parser("construct", help="build a named recipe")
    c.add_argument("recipe")
    c.add_argument("--out", type=file_path, help="write the code descriptor as JSON")
    add_common(c)
    c.set_defaults(fn=cmd_construct)

    z = sub.add_parser("certify", help="run a certification job")
    z.add_argument("claim", choices=ct.CLAIMS)
    z.add_argument("--recipe")
    z.add_argument("--code", type=file_path, help="descriptor JSON written by construct")
    z.add_argument("--out", type=file_path, help="write the certificate as JSON")
    z.add_argument("--enum-budget", type=budget, default=ct.Budgets().enum,
                   help="most codewords an exhaustive distance enumeration may "
                        "stream, and most syndrome lookups per weight of the "
                        "Hamming support search")
    z.add_argument("--sweep-budget", type=budget, default=ct.Budgets().sweep,
                   help="most syndrome-DP work: shift passes x q^codim "
                        "plus block values, over all blocks")
    z.add_argument("--syndrome-budget", type=budget, default=ct.Budgets().syndrome,
                   help="most syndromes (q^codim) the syndrome DP may hold")
    add_common(z)
    z.set_defaults(fn=cmd_certify)

    for command, text in (("bounds", "evaluate a bound or hypothesis check"),
                          ("table", "tabulate bound comparisons over a grid")):
        k = sub.add_parser(command, help=text)
        k.add_argument("kind", choices=list(KINDS[command]))
        add_common(k)
        k.set_defaults(fn=cmd_kind)

    s = sub.add_parser("selftest", help="quick golden-value battery")
    s.set_defaults(fn=cmd_selftest)
    return parser


def main(argv=None) -> int:
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
    except (UsageError, FileNotFoundError, json.JSONDecodeError, UnicodeDecodeError) as exc:
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
    closed inside `main`, as `_write_out` does for `cmd_construct` and
    `cmd_certify`.  A flush that fails, such as on a pipe whose reader has
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
