"""Spans and counters wrapped around sumrank's public functions from outside.

`install_spans` replaces every binding of each wrapped function (module
globals, names re-exported by other sumrank modules, class attributes) with a
wrapper that records a span or bumps a counter in a `Recorder`; the returned
patches go back to `restore`.  Functions called once per codeword get
counters, not spans.  `install_field_counters` is the separate counting pass:
it wraps only `Field.add`, `Field.mul` and `Field.inv`, whose per-call cost
would swamp any span timing.

Spans stay in memory; the launcher writes them out when the job exits.
"""

from __future__ import annotations

import functools
import sys
import time
from functools import cached_property

SUMRANK_MODULES = ("sumrank", "sumrank.gf", "sumrank.spaces", "sumrank.hamming",
                   "sumrank.construct", "sumrank.certify", "sumrank.cli")

# Span names are the wrapped function's place: "<module>.<qualname>".
SPANS = (
    "cli.main", "cli.cmd_construct", "cli.cmd_certify", "cli.parse_params",
    "gf.make_field", "gf.parse_field", "gf.Field.extension", "gf.Field.np_table",
    "hamming.rref", "hamming.nullspace", "hamming.from_generator", "hamming.cyclic_code",
    "hamming.hamming_code", "hamming.reed_solomon", "hamming.repetition_code",
    "hamming.parity_check_code", "hamming.full_code", "hamming.min_distance",
    "hamming.low_weight_search", "hamming.low_weight_pool", "hamming.covering_radius",
    "hamming.search_634_ingredient", "hamming.LinearCode.codeword_list",
    "hamming.LinearCode.describe",
    "spaces.rank_array", "spaces.rank_classes", "spaces.ball_volume_exact",
    "spaces.brute_weight_array",
    "construct.build_recipe", "construct.SumRankCode.flat_generator",
    "construct.SumRankCode.flat_parity", "construct.IngredientSumRankCode.describe",
    "construct.ExtendedSumRankCode.describe", "construct.PlotkinSumRankCode.describe",
    "construct.IngredientSumRankCode.composition_lower_bound",
    "certify.certify_code", "certify.sr_min_distance", "certify.sr_covering_radius",
    "certify.sphere_packing_check", "certify.distance_optimal_check",
    "certify.msrd_verdict", "certify.family_condition_checks",
    "certify.Certificate.to_json", "certify.Certificate.to_table",
)
CALL_COUNTERS = {
    "construct.IngredientSumRankCode.packed_from_symbols":
        "construct.packed_from_symbols_calls",
}
ENUMERATORS = (
    "construct.IngredientSumRankCode.enumerate_packed",
    "construct.ExtendedSumRankCode.enumerate_packed",
    "construct.PlotkinSumRankCode.enumerate_packed",
)
FIELD_OPS = ("add", "mul", "inv")


class Recorder:
    """Spans and counters of one job, kept in memory."""

    def __init__(self, job: str):
        self.job = job
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []
        self.enumerating = False

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> float:
        end = time.perf_counter()
        span = self.spans[idx]
        span[2] = end
        self._stack.pop()
        return end - span[1]

    def add(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def records(self) -> list[dict]:
        return [{"name": n, "start": s, "end": e, "parent": p, "job": self.job}
                for n, s, e, p in self.spans]


# ----------------------------------------------------------------------
# span arithmetic
# ----------------------------------------------------------------------

def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] >= 0:
            out[s["parent"]] -= s["end"] - s["start"]
    return out


def summarize(spans) -> dict[str, dict[str, float]]:
    """Per span name: call count, self time, and outermost inclusive time.

    The inclusive time adds only spans with no ancestor of the same name, so
    a recursive call is not counted twice.
    """
    out: dict[str, dict[str, float]] = {}
    selfs = self_times(spans)
    for i, s in enumerate(spans):
        rec = out.setdefault(s["name"], {"calls": 0, "self": 0.0, "total": 0.0})
        rec["calls"] += 1
        rec["self"] += selfs[i]
        p = s["parent"]
        while p >= 0 and spans[p]["name"] != s["name"]:
            p = spans[p]["parent"]
        if p < 0:
            rec["total"] += s["end"] - s["start"]
    return out


# ----------------------------------------------------------------------
# installing and restoring wrappers
# ----------------------------------------------------------------------

def _resolve(target: str):
    """(owner, attribute name, original object) for "<module>.<qualname>"."""
    mod_name, *path = target.split(".")
    owner = sys.modules[f"sumrank.{mod_name}"]
    for part in path[:-1]:
        owner = getattr(owner, part)
    return owner, path[-1], owner.__dict__[path[-1]]


def _bind(patches: list, owner, attr: str, original, wrapper) -> None:
    """Replace `original` under `owner.attr` and, for a module-level function,
    under every other sumrank module name bound to the same object."""
    if isinstance(original, cached_property):
        patches.append((original, "func", original.func))
        original.func = wrapper
        return
    owners = [(owner, attr)]
    if isinstance(owner, type(sys)):
        for name in SUMRANK_MODULES:
            module = sys.modules.get(name)
            if module is None:
                continue
            for key, value in vars(module).items():
                if value is original and (module, key) != (owner, attr):
                    owners.append((module, key))
    for own, key in owners:
        patches.append((own, key, original))
        setattr(own, key, wrapper)


def restore(patches: list) -> None:
    """Put every original binding back, last patch first."""
    for owner, attr, original in reversed(patches):
        setattr(owner, attr, original)
    patches.clear()


def _span_wrapper(fn, name: str, rec: Recorder, after=None, on_error=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = rec.open(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            duration = rec.close(idx)
            if on_error is not None:
                on_error(rec, exc, duration)
            raise
        rec.close(idx)
        if after is not None:
            after(rec, args, result)
        return result
    return wrapper


def _count_wrapper(fn, key: str, rec: Recorder):
    counters = rec.counters
    counters.setdefault(key, 0)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        counters[key] += 1
        return fn(*args, **kwargs)
    return wrapper


def _enum_wrapper(fn, rec: Recorder):
    """Counts the words the outermost enumeration yields; nested ones (the
    halves of a Plotkin sum) are part of it."""
    key = "construct.codewords_enumerated"
    rec.counters.setdefault(key, 0)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if rec.enumerating:
            yield from fn(*args, **kwargs)
            return
        rec.enumerating = True
        n = 0
        try:
            for word in fn(*args, **kwargs):
                n += 1
                yield word
        finally:
            rec.enumerating = False
            rec.counters[key] += n
    return wrapper


def _rref_after(rec: Recorder, args, result) -> None:
    rows = args[1]
    if hasattr(rows, "__len__"):
        rec.add("hamming.rref_cells", len(rows) * (len(rows[0]) if len(rows) else 0))


def _distance_after(rec: Recorder, args, result) -> None:
    rec.add("certify.distance_inexact", int(not result.exact))


def _radius_after(rec: Recorder, args, result) -> None:
    rec.add("certify.syndromes_covered", len(result[1].leader_weight))


def _radius_error(walk_code, rec: Recorder, exc, duration: float) -> None:
    if not isinstance(exc, sys.modules["sumrank.hamming"].BudgetExceeded):
        return
    rec.add("certify.radius_budget_stops")
    rec.add("certify.radius_wasted_s", duration)
    # the walk's table of syndromes reached so far lives in its frame
    tb = exc.__traceback__
    while tb is not None:
        if tb.tb_frame.f_code is walk_code:
            rec.add("certify.syndromes_covered", len(tb.tb_frame.f_locals.get("leaders", ())))
            break
        tb = tb.tb_next


def _field_init_wrapper(fn, rec: Recorder):
    rec.counters.setdefault("gf.fields_built", 0)

    @functools.wraps(fn)
    def wrapper(self, *args, **kwargs):
        fn(self, *args, **kwargs)
        if self.subfield is not None:
            rec.counters["gf.fields_built"] += 1
    return wrapper


def _hooks(target: str, fn):
    """(after, on_error) callbacks of a span target, or Nones."""
    if target == "hamming.rref":
        return _rref_after, None
    if target == "certify.sr_min_distance":
        return _distance_after, None
    if target == "certify.sr_covering_radius":
        return _radius_after, functools.partial(_radius_error, fn.__code__)
    return None, None


def install_spans(rec: Recorder) -> list:
    """Wrap every target for span tracing; returns the patches to restore."""
    patches: list = []
    try:
        for target in SPANS:
            owner, attr, original = _resolve(target)
            fn = original.func if isinstance(original, cached_property) else original
            wrapper = _span_wrapper(fn, target, rec, *_hooks(target, fn))
            _bind(patches, owner, attr, original, wrapper)
        for target, key in CALL_COUNTERS.items():
            owner, attr, original = _resolve(target)
            _bind(patches, owner, attr, original, _count_wrapper(original, key, rec))
        for target in ENUMERATORS:
            owner, attr, original = _resolve(target)
            _bind(patches, owner, attr, original, _enum_wrapper(original, rec))
        owner, attr, original = _resolve("gf.Field.__init__")
        _bind(patches, owner, attr, original, _field_init_wrapper(original, rec))
    except BaseException:
        restore(patches)
        raise
    return patches


def install_field_counters() -> tuple[list, dict[str, list[int]]]:
    """Count calls of Field.add, Field.mul and Field.inv.

    Returns the patches and one single-item count cell per operation.  The
    wrappers are kept as lean as possible; their times are discarded.
    """
    field_cls = sys.modules["sumrank.gf"].Field
    cells = {op: [0] for op in FIELD_OPS}
    add, mul, inv = (field_cls.__dict__[op] for op in FIELD_OPS)
    add_n, mul_n, inv_n = cells["add"], cells["mul"], cells["inv"]

    def counted_add(self, a, b):
        add_n[0] += 1
        return add(self, a, b)

    def counted_mul(self, a, b):
        mul_n[0] += 1
        return mul(self, a, b)

    def counted_inv(self, a):
        inv_n[0] += 1
        return inv(self, a)

    patches: list = []
    for op, wrapper in zip(FIELD_OPS, (counted_add, counted_mul, counted_inv)):
        _bind(patches, field_cls, op, field_cls.__dict__[op], wrapper)
    return patches, cells
