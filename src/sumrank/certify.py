"""Exact sum-rank invariants and bound certification.

Minimum distance and covering radius are each one intersection (`settle`) of interval
sources, read in the order set here, under explicit budgets.  d reads the zero code, what
the code's structure proves (`SumRankCode.distance_bounds`: no engine but a Hamming-metric
code's support search for a word at that end), the engines (the syndrome DP, enumeration,
then the code's own search, `SumRankCode.distance_searches`: a Hamming-metric code's
support search), sphere packing (d <= 2r, V_sr(r) > q^codim) and [1, N].  R reads the DP,
the code's rule (`SumRankCode.radius_bounds`), sphere covering (R >= r, V_sr(r) >=
q^codim) and [0, codim].  A Hamming-metric code is a sum-rank code of 1 x 1 blocks.  Each
source is an `SrDistance`, a point or an interval; a point of d carries a codeword of its
weight, which `SumRankCode.word_weight` checks.  `certify_code` decides a claim by one rule
on the intervals of d and R (`RULES`): exact integer comparisons at their ends that settle
it for every value in between, else inconclusive.  Bound evaluators validate their
hypotheses first.  Counting bounds on |C| = q^dim compare exponents (V_sr(r) with q^codim,
dim with the Singleton-like exponent) and print powers of q as `q^e`: no q^N or q^dim is
formed.  Transcendental bounds are advisory and carry their assumptions in the certificate.
"""

from __future__ import annotations

import json
import math
from typing import NamedTuple

import numpy as np

from . import __version__
from .gf import _CHUNK_BYTES, UsageError, array_digits, int_text, place_values, prime_power
from .spaces import (MatrixProfile, Shapes, ball_volume, brute_weight_array, packing_radius,
                     rank_array, singleton_like_exponent)
from .construct import FAMILIES, condition_family
from .hamming import bch_covering_radius_interval
from .syndrome import BudgetExceeded, Budgets, SrDistance, SumRankCode, least_weight_word
from .syndrome import covering_radius as sr_covering_radius

TOOLCHAIN_VERSION = f"sumrank {__version__}"


# ----------------------------------------------------------------------
# minimum sum-rank distance
# ----------------------------------------------------------------------

def settle(sources, weigh=None) -> SrDistance:
    """Intersect interval sources in their order (module docstring): lo is the greatest lower
    end and hi the least upper end, an earlier source keeping a tied end; a str item is a
    stop.  With `weigh` (d's `SumRankCode.word_weight`), an end at lo counts only with its word,
    or at inf (the zero code).  The first point ends the reading, with the witness of hi's
    source, which `weigh` must weigh at the point, and no stops.  An interval has no witness;
    its stops are those met, then those of the sources read, each once and in order, and its
    ends' sources name its method."""
    stops, ends = [], []
    for src in sources:
        if isinstance(src, str):
            stops.append(src)
            continue
        ends.append(src)
        low = max(ends, key=lambda s: s.lo)  # max and min keep the first of tied ends
        high = min((s for s in ends if not weigh or s.hi != low.lo
                    or s.witness is not None or s.hi == math.inf), key=lambda s: s.hi, default=None)
        if high and low.lo >= high.hi:
            break
    if high is None:
        raise RuntimeError(f"no word closes d at {low.method} {low.lo}")
    if low.lo > high.hi:
        raise RuntimeError(f"sources disagree: {low.method} {low.lo} > {high.method} {high.hi}")
    method = low.method if low.method == high.method else f"{low.method} / {high.method}"
    if low.lo == high.hi:
        if weigh and high.hi != math.inf and (weight := weigh(high.witness)) != high.hi:
            raise RuntimeError(f"{high.method} states a word of weight {weight} for d = {high.hi}")
        return SrDistance(low.lo, high.hi, method, high.witness)
    return SrDistance(low.lo, high.hi, method,
                      stops=tuple(dict.fromkeys((*stops, *(r for s in ends for r in s.stops)))))


def sr_min_distance(code: SumRankCode, budgets: Budgets = Budgets()) -> SrDistance:
    """Exact minimum distance, or a certified interval: d's sources in their order (module
    docstring), `settle`d.  Each engine admits itself under `budgets` (`SumRankCode.dp_stop`,
    `SumRankCode.enum_stop`); a source that may not run gives its stop instead."""
    def sources():
        if code.dim == 0:
            yield SrDistance(math.inf, math.inf, "zero code")
        yield from code.distance_bounds(lambda part: sr_min_distance(part, budgets), budgets)
        try:
            dp = code.budgeted_dp(budgets)
        except BudgetExceeded as exc:
            yield str(exc)
        else:
            yield SrDistance(dp.distance, dp.distance, "syndrome-dp", dp.witness)
        stop = code.enum_stop(budgets.enum)
        if not stop:
            weight, witness = least_weight_word(code.base, code._generator_rows_packed(),
                                                code.profile.blocks)
        yield stop or SrDistance(weight, weight, "exhaustive", witness)
        yield from code.distance_searches(budgets)
        r = packing_radius(*_counts(code), (code.profile.N - 1) // 2)  # d <= 2r
        yield from [SrDistance(1, 2 * r, "sphere packing")] if r else []
        # one block of one row: every nonzero word, the first generator row too, weighs 1
        yield SrDistance(1, code.profile.N, "budget stop",
                         code._generator_rows_packed()[0] if code.profile.N == 1 else None)
    return settle(sources(), code.word_weight)


# ----------------------------------------------------------------------
# covering radius
# ----------------------------------------------------------------------

def sr_radius(code: SumRankCode, budgets: Budgets = Budgets()) -> SrDistance:
    """Exact covering radius, or a certified interval: R's sources `settle`d (module docstring)."""
    def sources():
        try:  # the DP, under `budgets`, through the name the benchmark's tracing wraps
            radius, _ = sr_covering_radius(code, budgets)
            yield SrDistance(radius, radius, "syndrome-dp")
        except BudgetExceeded as exc:
            yield str(exc)
        yield from code.radius_bounds()
        yield SrDistance(packing_radius(*_counts(code), covering=True), math.inf, "sphere covering")
        yield SrDistance(0, code.codim, "R <= codim")  # a syndrome is that of a word on codim cells
    return settle(sources())


def sr_covering_radius_sweep(code: SumRankCode,
                             budget: int = 1 << 20) -> tuple[int, dict]:
    """Independent oracle: full ambient sweep of min distance to the code.

    Every ambient word is weighed and its syndrome computed from the flat
    parity-check matrix (bit operations for q = 2, field tables otherwise).
    Returns the radius and the per-syndrome leader weights, keyed by the
    syndrome index sum_r s_r q^r, as in the DP's table.
    """
    base = code.base
    profile = code.profile
    size = profile.ambient_size
    if size > budget:
        raise BudgetExceeded(f"ambient of {size} words exceeds budget {budget}")
    H = code.flat_parity
    codim = len(H)
    q = base.order
    weights = brute_weight_array(profile)
    if q == 2:
        dtype = np.int32 if size <= 1 << 31 and codim < 31 else np.int64
        idx = np.arange(size, dtype=dtype)
        syn = np.zeros(size, dtype=dtype)
        for pos in range(profile.ambient_dim):
            colkey = sum(H[r][pos] << r for r in range(codim))
            if colkey:
                syn[((idx >> pos) & 1).astype(bool)] ^= colkey
    else:  # chunks of words whose int64 digits, syndrome digits and gathers fit _CHUNK_BYTES
        add, mul = base.np_table("add"), base.np_table("mul")
        syn = np.empty(size, dtype=np.int64)
        step = max(1, _CHUNK_BYTES // (24 * (profile.ambient_dim + codim)))
        for lo in range(0, size, step):
            digs = array_digits(np.arange(lo, min(lo + step, size)), q, profile.ambient_dim)
            acc = np.zeros((len(digs), codim), dtype=np.int64)
            for pos, column in enumerate(H.T):
                acc = add[acc, mul[digs[:, pos, None], column]]
            syn[lo:lo + len(digs)] = acc @ place_values(q, codim)
    leader = np.full(q ** codim, np.iinfo(np.int16).max, dtype=np.int16)
    np.minimum.at(leader, syn, weights)
    return int(leader.max()), dict(enumerate(leader.tolist()))


# ----------------------------------------------------------------------
# bounds
# ----------------------------------------------------------------------

def singleton_defect(profile: MatrixProfile, dim: int, d: int) -> int:
    """m(N - d + 1) - log_q|C| for equal column sizes m: the Singleton-like exponent - dim."""
    if len({m for _, m in profile.shape_counts()}) != 1:
        raise ValueError("the defect is defined for equal column sizes only; "
                         "compare against the general bound instead")
    return singleton_like_exponent(profile.shape_counts(), d) - dim


def msrd_verdict(profile: MatrixProfile, dim: int, d: int) -> tuple[str, int]:
    defect = singleton_defect(profile, dim, d)
    if defect == 0:
        return "MSRD", 0
    if defect <= 2:
        return "almost-MSRD", defect
    return f"defect {defect}", defect


class SpherePackingRecord(NamedTuple):
    """The ball volume V_sr(radius) against q^codim; its text states the relation that holds."""
    radius: int
    volume: int
    q: int
    codim: int
    holds: bool

    def __str__(self) -> str:
        return f"{int_text(self.volume)} {'<=' if self.holds else '>'} {self.q}^{self.codim}"

    def __repr__(self) -> str:
        return (f"SpherePackingRecord(radius={self.radius}, volume={int_text(self.volume)}, "
                f"q={self.q}, codim={self.codim}, holds={self.holds})")


def sphere_packing_check(q: int, shapes: Shapes, codim: int, d: int) -> SpherePackingRecord:
    """Sphere packing, |C| V_sr(r) <= q^N at r = floor((d - 1)/2), in the form V_sr(r) <=
    q^codim of a code of codimension `codim` over GF(q) blocks `shapes`: |C| = q^(N - codim)."""
    volume = ball_volume(q, shapes, (d - 1) // 2)
    return SpherePackingRecord((d - 1) // 2, volume, q, codim, volume <= q ** codim)


def distance_optimal_check(q: int, shapes: Shapes, codim: int,
                           d: int) -> tuple[str, SpherePackingRecord]:
    """Sufficient sphere-packing refutation of d + 1 at this codimension."""
    sp = sphere_packing_check(q, shapes, codim, d + 1)
    return "inconclusive" if sp.holds else "certified", sp


def perfection_verdict(d: int, radius: int) -> str:
    """Perfect when R = e = floor((d - 1)/2), quasi-perfect when R = e + 1, else neither."""
    return {0: "perfect", 1: "quasi-perfect"}.get(radius - (d - 1) // 2, "neither")


class StrongSingletonBch(NamedTuple):
    """Both size bounds as exponents of 2; an inapplicable record keeps the Singleton one."""
    applicable: bool
    reason: str | None
    singleton_exponent: int
    case: int | None = None
    exponent: int | None = None

    @property
    def improves(self) -> bool | None:
        return None if self.exponent is None else self.exponent < self.singleton_exponent


def bch_parameters(m: int, t: int, e: int, n: int) -> None:
    """Refuse an m, t, e or n of `strong_singleton_bch` below 1."""
    for name, value in (("matrix size m", m), ("block length t", t), ("BCH error count e", e),
                        ("BCH field degree n", n)):
        if value < 1:
            raise UsageError(f"{name} = {value} must be at least 1")


def strong_singleton_bch(m: int, t: int, e: int, n: int, d_sr: int) -> StrongSingletonBch:
    """Binary m x m size bound from a BCH-based covering code.

    Case 1 (d = 4m^2 e + i, 1 <= i <= 4m^2 - 1): 2^(m^2 (t - ne)).
    Case 2 (d = 4m^2 e): 2^(m^2 (t - ne + n)).
    The Singleton-like bound is that of t blocks m x m; d outside 1..tm is refused.
    """
    bch_parameters(m, t, e, n)
    if not 1 <= d_sr <= t * m:
        raise UsageError(f"distance {d_sr} out of range 1..{t * m}")
    singleton_exponent = singleton_like_exponent({(m, m): t}, d_sr)
    lo, hi = 4 * m * m * e, 4 * m * m * e + 4 * m * m - 1
    if t < 2 ** n - 1:
        reason = f"block length {t} below 2^{n} - 1"
    elif bch_covering_radius_interval(e, n) is None:
        reason = f"2^{n} < (2e-1)^(4e+2) = {2 * e - 1}^{4 * e + 2}"
    elif not lo <= d_sr <= hi:
        reason = f"distance {d_sr} outside [{lo}, {hi}]"
    else:
        case = 2 if d_sr == lo else 1
        return StrongSingletonBch(True, None, singleton_exponent, case,
                                  m * m * (t - n * e + (n if case == 2 else 0)))
    return StrongSingletonBch(False, reason, singleton_exponent)


class BoundRecord(NamedTuple):
    name: str
    value: object
    assumptions: tuple[str, ...] = ()


def block_length_bound(q: int, m: int, u: int, R: int, c: float = 1.0) -> BoundRecord:
    """Advisory bound on the block length function at codimension uR + m^2."""
    prime_power(q)
    if m < 1:
        raise UsageError(f"matrix size m = {m} must be at least 1")
    if R < 1:
        raise UsageError(f"covering radius R = {R} must be at least 1")
    if not c > 0:
        raise UsageError(f"universal constant c = {c} must be positive")
    if u % (m * m) != 0:
        raise UsageError(f"divisibility gate failed: {m}^2 does not divide u = {u}")
    if R % m != 0:
        raise UsageError(f"divisibility gate failed: {m} does not divide R = {R}")
    value = c * q ** (((u - m) * R + m * m) / R) * (m * math.log(q)) ** (m / R)
    return BoundRecord(
        f"block_length_bound(q={q},m={m},codim={u * R + m * m},R={R})", value,
        (f"universal constant c = {c} (non-rigorous)", "tolerance 1e-12"))


def entropy(Q: int, rho: float) -> float:
    """Entropy of the alphabet of size Q at rate rho, 0 <= rho <= 1 - 1/Q."""
    if not isinstance(Q, int) or Q < 2:
        raise UsageError(f"alphabet size Q = {Q!r} must be an integer >= 2")
    if rho < 0 or rho > 1 - 1 / Q + 1e-15:
        raise UsageError(f"rho = {rho} outside [0, 1 - 1/{Q}]")
    if rho == 0:
        return 0.0
    out = rho * math.log(Q - 1, Q) - rho * math.log(rho, Q)
    if rho < 1:
        out -= (1 - rho) * math.log(1 - rho, Q)
    return out


def strong_singleton_blf(q: int, m: int, u: int, R: int, t: int,
                         c: float = 1.0) -> BoundRecord:
    """Size bound q^((t-1)m^2 - uR) for d = 2R + 1, gated on the block length."""
    gate = block_length_bound(q, m, u, R, c).value
    if t < gate:
        raise UsageError(f"gate failed: block length {t} below {gate:.6g}")
    return BoundRecord(
        f"strong_singleton_blf(q={q},m={m},u={u},R={R},t={t})", f"{q}^{(t - 1) * m * m - u * R}",
        (f"universal constant c = {c} (non-rigorous)",
         f"gate {t} >= {gate:.12g}", "requires d_sr = 2R + 1"))


# ----------------------------------------------------------------------
# per-family hypothesis checks
# ----------------------------------------------------------------------

class ConditionRecord(NamedTuple):
    rational_holds: bool
    rational_condition: str
    exact_holds: bool
    exact_criterion: str
    exact_lhs: int
    exact_rhs: int


def family_condition_checks(family: str, params: dict) -> ConditionRecord:
    """A family's lambda-condition and the exact criterion the proof reduces to, V_sr(2) >
    q^codim at the codim its recipe builds, after the recipe's gates (`construct.FAMILIES`)."""
    fam = condition_family("family_condition_checks", family)(**params)
    (n, m), q = fam.shape, fam.base.order
    _, sp = distance_optimal_check(q, {fam.shape: fam.t}, fam.codim, 4)
    return ConditionRecord(*fam.condition, not sp.holds, f"V_sr(q,2) over {int_text(fam.t)} blocks "
                           f"{n}x{m} > q^{fam.codim}", sp.volume, q ** fam.codim)


# ----------------------------------------------------------------------
# certificates
# ----------------------------------------------------------------------

VERDICT_EXIT = {"certified": 0, "refuted": 1, "inconclusive": 2}


def write_json(obj, write, _newline: str = "\n") -> None:
    """Write `json.dumps(obj, sort_keys=True, indent=2)` through `write`.

    The same bytes, piece by piece, so a descriptor streams to its file
    instead of being built whole in memory: this lays out the lists and
    dicts, joins a list of plain ints (descriptor rows, which make up nearly
    all of a descriptor) in one piece, and leaves every scalar and key to
    json.  `bool` is not a plain int, so it still prints as true/false.  No
    circular-reference check.
    """
    if isinstance(obj, (list, tuple)):
        if not obj:
            write("[]")
            return
        inner = _newline + "  "
        if set(map(type, obj)) == {int}:
            write("[" + inner + ("," + inner).join(map(int.__repr__, obj)) + _newline + "]")
            return
        sep = "[" + inner
        for item in obj:
            write(sep)
            write_json(item, write, inner)
            sep = "," + inner
        write(_newline + "]")
    elif isinstance(obj, dict):
        if not obj:
            write("{}")
            return
        inner = _newline + "  "
        sep = "{" + inner
        for key, value in sorted(obj.items()):
            if not (isinstance(key, (str, int, float)) or key is None):
                raise TypeError(f"keys must be str, int, float, bool or None, "
                                f"not {key.__class__.__name__}")
            write(sep + json.dumps(key if isinstance(key, str) else json.dumps(key)) + ": ")
            write_json(value, write, inner)
            sep = "," + inner
        write(_newline + "}")
    elif isinstance(obj, (str, int, float)) or obj is None:
        write(json.dumps(obj))
    else:
        raise TypeError(f"Object of type {obj.__class__.__name__} is not JSON serializable")


class Certificate:
    """A claim about a code: the quantities and bounds behind its verdict, and notes."""

    def __init__(self, code: SumRankCode, claim: str):
        self.code = code
        self.claim = claim
        self.quantities: list = []
        self.bounds: list = []
        self.verdict = "inconclusive"
        self.notes: list = []
        self.seed: int | None = None
        self.toolchain_version = TOOLCHAIN_VERSION

    def add_quantity(self, name: str, value, method: str):
        self.quantities.append({"name": name, "value": value, "method": method})

    def add_interval(self, name: str, value: SrDistance):
        """A point as its value and method, an interval as [lo, hi] and its method (interval)."""
        self.add_quantity(name, value.value if value.exact else [value.lo, value.hi],
                          value.method if value.exact else value.method + " (interval)")

    def add_bound(self, name: str, value, assumptions=()):
        self.bounds.append({"name": name, "value": value,
                            "assumptions": list(assumptions)})

    @property
    def subject(self) -> dict:
        """The code's descriptor, built only when asked for: `to_table` omits it."""
        return self.code.describe()

    @property
    def exit_code(self) -> int:
        return VERDICT_EXIT.get(self.verdict, 3)

    def to_json(self, write=None) -> str | None:
        """The certificate as `json.dumps(..., sort_keys=True, indent=2)`.

        With `write`, the text goes to it piece by piece and None is returned.
        """
        payload = {
            "subject": self.subject,
            "property": self.claim,
            "quantities": self.quantities,
            "bounds": self.bounds,
            "verdict": self.verdict,
            "notes": self.notes,
            "seed": self.seed,
            "toolchain-version": self.toolchain_version,
        }
        if write is not None:
            write_json(payload, write)
            return None
        pieces: list[str] = []
        write_json(payload, pieces.append)
        return "".join(pieces)

    def to_table(self) -> str:
        lines = [f"property : {self.claim}", f"verdict  : {self.verdict}"]
        for qrec in self.quantities:
            lines.append(f"  {qrec['name']:<24} = {qrec['value']}   [{qrec['method']}]")
        for brec in self.bounds:
            assume = "; ".join(brec["assumptions"])
            tail = f"   ({assume})" if assume else ""
            lines.append(f"  bound {brec['name']:<18} = {brec['value']}{tail}")
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines)


def _counts(code: SumRankCode) -> tuple[int, Shapes, int]:
    """What the counting bounds read of a code: q, its block shapes and its codimension."""
    return code.profile.q, code.profile.shape_counts(), code.codim


def _perfection_rule(cert: Certificate, dist: SrDistance, radius: SrDistance) -> None:
    """R = e + k, e = floor((d - 1)/2), k = 0 (perfect) or 1 (quasi-perfect): certified when d
    fixes e and R is a point that meets it, refuted when R - e misses k over both intervals."""
    k, e_lo, e_hi = int(cert.claim == "quasi-perfect"), (dist.lo - 1) // 2, (dist.hi - 1) // 2
    if e_lo == e_hi and radius.exact:
        cert.add_quantity("perfection", perfection_verdict(dist.lo, radius.lo), "exact comparison")
    elif radius.lo - e_hi <= k <= radius.hi - e_lo:
        return
    sp = sphere_packing_check(*_counts(cert.code), dist.lo)
    if not sp.holds:
        raise RuntimeError(f"sphere packing violated ({sp}): implementation bug")
    cert.add_bound("sphere_packing_lhs<=rhs", str(sp), ("sanity invariant",))
    cert.verdict = "certified" if radius.lo - e_hi == k == radius.hi - e_lo else "refuted"


def _distance_optimal_rule(cert: Certificate, dist: SrDistance, radius) -> int | None:
    """At d_lo: certified there, no code of this codimension has d >= d_lo + 1, so d = d_lo:
    V_sr(r) > q^codim at r = d_lo // 2 proves d <= 2r, which it returns."""
    verdict, sp = distance_optimal_check(*_counts(cert.code), dist.lo)
    if verdict != "certified" and not dist.exact:
        cert.notes.append("distance not settled exactly")
        return None
    cert.add_bound("sphere_packing_refutation", str(sp), (f"ball volume at radius {sp.radius}",))
    cert.verdict = verdict
    # the family's lambda-condition; its exact criterion at d = 4 is the refutation above
    if cert.code.recipe in FAMILIES:
        holds, text = FAMILIES[cert.code.recipe](**cert.code.params).condition
        cert.add_bound(f"family_condition[{text}]", holds,
                       ("lambda condition evaluated at epsilon = 0, exact rationals",))
    return None if sp.holds else 2 * sp.radius


def _msrd_rule(cert: Certificate, dist: SrDistance, radius) -> None:
    """Certified when the defect at d_lo is at most 0 (msrd) or 2 (almost-msrd), refuted
    when it is above that at d_hi; never on a negative defect, as d_hi may pass Singleton."""
    limit = 0 if cert.claim == "msrd" else 2
    for d, holds in ((dist.lo, True), (dist.hi, False)):
        name, defect = msrd_verdict(cert.code.profile, cert.code.dim, d)
        if (defect <= limit) == holds:
            cert.add_quantity("singleton_defect", defect, "exact")
            cert.add_quantity("msrd_class", name, "exact")
            cert.verdict = "certified" if holds else "refuted"
            return


def _sphere_packing_rule(cert: Certificate, dist: SrDistance, radius) -> int | None:
    """The check fails at d exactly when (d - 1)//2 >= r, the least r <= (d_hi - 1)//2 with
    V_sr(r) > q^codim, which proves d <= 2r, returned: refuted when r <= (d_lo - 1)//2, stated
    at 2r + 1, else certified, stated at 2r (< d_hi), or at d_hi when there is no r; no ball
    past r."""
    counts = _counts(cert.code)
    r = packing_radius(*counts, (dist.hi - 1) // 2)
    sp = sphere_packing_check(*counts, dist.hi if r is None else 2 * r + (r <= (dist.lo - 1) // 2))
    cert.add_bound("sphere_packing", str(sp), (f"ball volume at radius {sp.radius}",))
    cert.verdict = "certified" if sp.holds else "refuted"
    return None if r is None else 2 * r


def _singleton_rule(cert: Certificate, dist: SrDistance, radius) -> None:
    """Certified when dim <= the Singleton-like exponent at d_hi, refuted when > it at d_lo."""
    q, shapes, _ = _counts(cert.code)
    for d, holds in ((dist.hi, True), (dist.lo, False)):
        exponent = singleton_like_exponent(shapes, d)
        if (cert.code.dim <= exponent) == holds:
            cert.add_bound("singleton_like", f"{q}^{exponent}", ())
            cert.verdict = "certified" if holds else "refuted"
            return


# the rule deciding each claim from the intervals of d and R; a rule that proves d <= 2r,
# from a ball of radius r that outgrows q^codim, returns 2r
RULES = {"perfect": _perfection_rule, "quasi-perfect": _perfection_rule,
         "distance-optimal": _distance_optimal_rule, "msrd": _msrd_rule,
         "almost-msrd": _msrd_rule, "sphere-packing": _sphere_packing_rule,
         "singleton": _singleton_rule}
CLAIMS = tuple(RULES)


def certify_code(code: SumRankCode, claim: str, budgets: Budgets = Budgets()) -> Certificate:
    """Run the engines a claim needs under `budgets`, and decide it on the intervals of d and R."""
    if claim not in CLAIMS:
        raise ValueError(f"unknown claim {claim!r}")
    cert = Certificate(code, claim)
    cert.add_quantity("dimension", code.dim, "construction")
    cert.add_quantity("block_length", code.profile.t, "construction")

    if code.dim == 0:
        cert.notes.append("zero code: minimum distance undefined")
        return cert
    dist = sr_min_distance(code, budgets)
    cert.add_interval("min_sum_rank_distance", dist)
    if dist.witness is not None:
        matrices = code.to_word(dist.witness).matrices
        cert.add_quantity("distance_witness", [[list(row) for row in mat] for mat in matrices],
                          "row-major matrices per block")
    radius = sr_radius(code, budgets) if claim in ("perfect", "quasi-perfect") else None
    if radius is not None:
        cert.add_interval("covering_radius", radius)
    if stops := dict.fromkeys((*dist.stops, *(radius.stops if radius else ()))):  # each once
        cert.notes.append("; ".join(stops))
    proved_hi = RULES[claim](cert, dist, radius)
    if not dist.exact and cert.verdict != "inconclusive":
        hi = dist.hi if proved_hi is None else min(dist.hi, proved_hi)
        cert.notes.append(f"{cert.verdict} for every d in [{dist.lo}, {hi}]")
    return cert
