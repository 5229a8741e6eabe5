"""Exact sum-rank invariants and bound certification.

Minimum distance and covering radius come from the code's one syndrome-DP
pass and, for the distance, from enumeration, the Hamming support search
and composition rules, all under explicit budgets.  A Hamming-metric code
is a sum-rank code of 1 x 1 blocks and takes the same dispatch.  Every
bound evaluator validates its hypotheses before producing a value.
Quantities feeding a 'certified' verdict are exact big integers;
transcendental bounds are advisory and carry their assumptions in the
certificate.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field as dc_field, replace

import numpy as np

from . import __version__
from . import hamming as hm
from .spaces import (MatrixProfile, ball_volume_exact, brute_weight_array,
                     hamming_ball_volume, rank_array)
from .construct import ExtendedSumRankCode, PlotkinSumRankCode, field_of_order
from .gf import make_field
from .syndrome import (ENUM_BUDGET, SYNDROME_BUDGET, WORK_BUDGET, BudgetExceeded,
                       SrDistance, SumRankCode, SyndromeDP, dp_budget_stop,
                       least_weight_word)

TOOLCHAIN_VERSION = f"sumrank {__version__}"

DP_METHOD = "syndrome-dp"


# ----------------------------------------------------------------------
# minimum sum-rank distance
# ----------------------------------------------------------------------

def _exhaustive_sr_distance(code: SumRankCode) -> SrDistance:
    found = least_weight_word(code.base, code._generator_rows_packed(), code.weight_blocks)
    if found is None:
        return SrDistance(None, None, "exhaustive", None, infinite=True)
    return SrDistance(found[0], found[0], "exhaustive", found[1])


def _dp_stop(code: SumRankCode, syndrome_budget: int, work_budget: int) -> str | None:
    return dp_budget_stop(code.base, code.codim, code.profile.blocks,
                          syndrome_budget, work_budget)


def sr_min_distance(code: SumRankCode, budget: int = ENUM_BUDGET, *,
                    syndrome_budget: int = SYNDROME_BUDGET,
                    work_budget: int = WORK_BUDGET) -> SrDistance:
    """Exact minimum distance, or a certified interval.

    Dispatch: the syndrome DP when the syndrome space and the DP work fit
    their budgets; else exhaustive enumeration when |C| fits `budget`; else
    the support search of a Hamming-metric code (whose half-word tables
    `budget` also caps), or the extension and Plotkin composition rules,
    whose parts dispatch the same way; else the interval [1, N], noting the
    budgets that stopped it.
    """
    dp_stop = _dp_stop(code, syndrome_budget, work_budget)
    if dp_stop is None:
        dp = code.syndrome_dp
        if dp.distance is None:
            return SrDistance(None, None, DP_METHOD, None, infinite=True)
        return SrDistance(dp.distance, dp.distance, DP_METHOD, dp.witness)
    if code.size <= budget:
        return _exhaustive_sr_distance(code)
    if isinstance(code, hm.LinearCode):
        res = hm.min_distance(code, budget)
        if not res.exact:
            res = replace(res, note="; ".join(n for n in (dp_stop, res.note) if n))
        return res
    if isinstance(code, ExtendedSumRankCode):
        # a single 1 at entry (0, 0) of an extra block, packed as 1, has rank 1
        witness = (0,) * code.inner.profile.t + (1,) + (0,) * (code.extra - 1)
        return SrDistance(1, 1, "composition(extension)", witness)
    if isinstance(code, PlotkinSumRankCode):
        # d = min(2 d1, d2), witnessed by (c1 | c1) or (0 | c2)
        d1, d2 = (sr_min_distance(part, budget, syndrome_budget=syndrome_budget,
                                  work_budget=work_budget)
                  for part in (code.first, code.second))
        options = []
        if not d1.infinite:
            options.append((2 * d1.lo, 2 * d1.hi, d1.witness and d1.witness + d1.witness))
        if not d2.infinite:
            zeros = (0,) * code.first.profile.t
            options.append((d2.lo, d2.hi, d2.witness and zeros + d2.witness))
        if not options:
            return SrDistance(None, None, "composition(plotkin)", None, infinite=True)
        lo = min(o[0] for o in options)
        hi, witness = min(options, key=lambda o: o[1])[1:]
        note = "; ".join(d.note for d in (d1, d2) if d.note) or None
        return SrDistance(lo, hi, "composition(plotkin)", witness if lo == hi else None,
                          note=note)
    enum_stop = f"enum budget {budget} < {code.base.order}^{code.dim} codewords (q^dim)"
    return SrDistance(1, code.profile.N, "budget stop", None,
                      note=f"{dp_stop}; {enum_stop}")


# ----------------------------------------------------------------------
# covering radius
# ----------------------------------------------------------------------

def sr_covering_radius(code: SumRankCode, *,
                       syndrome_budget: int = SYNDROME_BUDGET,
                       work_budget: int = WORK_BUDGET) -> tuple[int, SyndromeDP]:
    """Exact covering radius and the code's cached syndrome-DP pass.

    Raises BudgetExceeded, naming the budget, when the DP does not fit.
    """
    stop = _dp_stop(code, syndrome_budget, work_budget)
    if stop is not None:
        raise BudgetExceeded(stop)
    dp = code.syndrome_dp
    return dp.radius, dp


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
    else:
        add, mul = base.np_table("add"), base.np_table("mul")
        idx = np.arange(size, dtype=np.int64)
        syn = np.zeros(size, dtype=np.int64)
        for r, row in enumerate(H):
            acc = np.zeros(size, dtype=np.int64)
            for pos, h in enumerate(row):
                if h:
                    acc = add[acc, mul[(idx // q ** pos) % q, h]]
            syn += acc * q ** r
    leader = np.full(q ** codim, np.iinfo(np.int16).max, dtype=np.int16)
    np.minimum.at(leader, syn, weights)
    return int(leader.max()), dict(enumerate(leader.tolist()))


# ----------------------------------------------------------------------
# bounds
# ----------------------------------------------------------------------

def singleton_like_bound(profile: MatrixProfile, d: int) -> int:
    """Size bound from the unique decomposition d = sum n_i + delta + 1."""
    if not 1 <= d <= profile.N:
        raise ValueError(f"distance {d} out of range 1..{profile.N}")
    blocks = sorted(profile.blocks, key=lambda nm: (-nm[1], -nm[0]))
    prefix = 0
    for j, (n, m) in enumerate(blocks):
        delta = d - 1 - prefix
        if delta <= n - 1:
            exponent = sum(ni * mi for ni, mi in blocks[j:]) - m * delta
            return profile.q ** exponent
        prefix += n
    raise AssertionError("unreachable for d <= N")


def singleton_defect(profile: MatrixProfile, dim: int, d: int) -> int:
    """m(N - d + 1) - log_q|C| for homogeneous column size m."""
    ms = {m for _, m in profile.blocks}
    if len(ms) != 1:
        raise ValueError("the defect is defined for equal column sizes only; "
                         "compare against the general bound instead")
    m = ms.pop()
    return m * (profile.N - d + 1) - dim


def msrd_verdict(profile: MatrixProfile, dim: int, d: int) -> tuple[str, int]:
    defect = singleton_defect(profile, dim, d)
    if defect == 0:
        return "MSRD", 0
    if defect <= 2:
        return "almost-MSRD", defect
    return f"defect {defect}", defect


@dataclass(frozen=True)
class SpherePackingRecord:
    lhs: int
    rhs: int
    holds: bool
    equality: bool


def sphere_packing_check(profile: MatrixProfile, size: int, d: int) -> SpherePackingRecord:
    lhs = size * ball_volume_exact(profile, (d - 1) // 2)
    rhs = profile.ambient_size
    return SpherePackingRecord(lhs, rhs, lhs <= rhs, lhs == rhs)


def distance_optimal_check(profile: MatrixProfile, size: int, d: int) -> tuple[str, dict]:
    """Sufficient sphere-packing refutation of any (size, d+1) code."""
    vol = ball_volume_exact(profile, d // 2)
    rhs = profile.ambient_size
    lhs = size * vol
    verdict = "certified" if lhs > rhs else "inconclusive"
    return verdict, {"volume_radius": d // 2, "volume": vol, "lhs": lhs, "rhs": rhs}


def perfection_verdict(d: int, radius: int) -> str:
    errors = (d - 1) // 2
    if radius == errors:
        return "perfect"
    if radius == errors + 1:
        return "quasi-perfect"
    return "neither"


@dataclass(frozen=True)
class StrongSingletonBch:
    """Both size bounds as exponents of 2; an inapplicable record keeps the Singleton one."""
    applicable: bool
    reason: str | None
    singleton_exponent: int
    case: int | None = None
    exponent: int | None = None

    @property
    def bound(self) -> int | None:
        return None if self.exponent is None else 2 ** self.exponent

    @property
    def singleton(self) -> int:
        return 2 ** self.singleton_exponent

    @property
    def improves(self) -> bool | None:
        return None if self.exponent is None else self.exponent < self.singleton_exponent


def strong_singleton_bch(m: int, t: int, e: int, n: int, d_sr: int) -> StrongSingletonBch:
    """Binary m x m size bound from a BCH-based covering code.

    Case 1 (d = 4m^2 e + i, 1 <= i <= 4m^2 - 1): 2^(m^2 (t - ne)).
    Case 2 (d = 4m^2 e): 2^(m^2 (t - ne + n)).
    The Singleton-like bound of the m x m profile is 2^(m(tm - d + 1)).
    """
    singleton_exponent = m * (t * m - d_sr + 1)
    lo, hi = 4 * m * m * e, 4 * m * m * e + 4 * m * m - 1
    if t < 2 ** n - 1:
        reason = f"block length {t} below 2^{n} - 1"
    elif 2 ** n < (2 * e - 1) ** (4 * e + 2):
        reason = f"2^{n} < (2e-1)^(4e+2) = {(2 * e - 1) ** (4 * e + 2)}"
    elif not lo <= d_sr <= hi:
        reason = f"distance {d_sr} outside [{lo}, {hi}]"
    else:
        case = 2 if d_sr == lo else 1
        return StrongSingletonBch(True, None, singleton_exponent, case,
                                  m * m * (t - n * e + (n if case == 2 else 0)))
    return StrongSingletonBch(False, reason, singleton_exponent)


@dataclass(frozen=True)
class BoundRecord:
    name: str
    value: object
    assumptions: tuple[str, ...] = ()


def block_length_bound(q: int, m: int, u: int, R: int, c: float = 1.0) -> BoundRecord:
    """Advisory bound on the block length function at codimension uR + m^2."""
    if u % (m * m) != 0:
        raise ValueError(f"divisibility gate failed: {m}^2 does not divide u = {u}")
    if R % m != 0:
        raise ValueError(f"divisibility gate failed: {m} does not divide R = {R}")
    value = c * q ** (((u - m) * R + m * m) / R) * (m * math.log(q)) ** (m / R)
    return BoundRecord(
        f"block_length_bound(q={q},m={m},codim={u * R + m * m},R={R})", value,
        (f"universal constant c = {c} (non-rigorous)", "tolerance 1e-12"))


def blf_relation_check(q: int, m: int, r: int, R: int) -> BoundRecord:
    """Divisibility-gated reduction of the block length function."""
    if r % (m * m) != 0:
        raise ValueError(f"divisibility gate failed: {m}^2 does not divide r = {r}")
    if R % m != 0:
        raise ValueError(f"divisibility gate failed: {m} does not divide R = {R}")
    return BoundRecord(
        f"blf(q={q},m={m},{r},{R}) <= blf(q^{m},{r // (m * m)},{R // m})", True,
        ("reduction to the Hamming-metric length function",))


def blf_witness(code: SumRankCode, radius: int) -> BoundRecord:
    """A constructed covering code witnesses blf(codim, radius) <= t."""
    ms = {m for _, m in code.profile.blocks}
    ns = {n for n, _ in code.profile.blocks}
    if len(ms) != 1 or ms != ns:
        raise ValueError("block length functions concern homogeneous m x m profiles")
    m = ms.pop()
    return BoundRecord(
        f"blf(q={code.base.order},m={m},{code.codim},{radius}) <= {code.profile.t}",
        code.profile.t,
        (f"witnessed by a constructed code of codimension {code.codim} "
         f"with exact covering radius {radius}",))


def size_bound_from_witness(q: int, m: int, t: int, R: int, hamming_K: int) -> BoundRecord:
    """K_{q,m}(t, R) <= K_{q^m}(t, R/m)^m given a witnessed Hamming value."""
    if R % m != 0:
        raise ValueError(f"divisibility gate failed: {m} does not divide R = {R}")
    return BoundRecord(f"K(q={q},m={m};t={t},R={R})", hamming_K ** m,
                       (f"from a Hamming covering code witnessing "
                        f"K_(q^m)(t,{R // m}) <= {hamming_K}",))


def entropy(Q: int, rho: float) -> float:
    """Entropy of the alphabet of size Q at rate rho, 0 <= rho <= 1 - 1/Q."""
    if rho < 0 or rho > 1 - 1 / Q + 1e-15:
        raise ValueError(f"rho = {rho} outside [0, 1 - 1/{Q}]")
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
        raise ValueError(f"gate failed: block length {t} below {gate:.6g}")
    bound = q ** ((t - 1) * m * m - u * R)
    return BoundRecord(
        f"strong_singleton_blf(q={q},m={m},u={u},R={R},t={t})", bound,
        (f"universal constant c = {c} (non-rigorous)",
         f"gate {t} >= {gate:.12g}", "requires d_sr = 2R + 1"))


# ----------------------------------------------------------------------
# per-family hypothesis checks
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ConditionRecord:
    family: str
    params: dict
    rational_condition: str
    rational_holds: bool
    exact_criterion: str
    exact_holds: bool
    exact_lhs: int
    exact_rhs: int


CONDITION_FAMILIES = ("cyclic-d4", "quasi-perfect-2xm", "distance-optimal-sxs",
                      "distance-optimal-rect", "plotkin-distance-optimal")


def family_condition_checks(family: str, params: dict) -> ConditionRecord:
    """Evaluate a family's lambda-condition at epsilon = 0 as rationals,
    alongside the exact finite volume criterion the proof reduces to."""
    if family not in CONDITION_FAMILIES:
        raise ValueError(f"no condition checks for family {family!r}; "
                         f"checkable: {', '.join(CONDITION_FAMILIES)}")
    p = dict(params)
    if family == "cyclic-d4":
        q, m, lam = p["q"], p["m"], p.get("lam", 1)
        if (q ** m - 1) % lam != 0:
            raise ValueError(f"{lam} does not divide q^m - 1")
        rat = 2 * q * lam * lam < (q - 1) ** 2
        rat_str = f"2*{q}*{lam}^2 < ({q}-1)^2"
        n = (q ** m - 1) // lam
        lhs, rhs = hamming_ball_volume(n, 2, q), q ** (2 * m + 1)
        crit = f"V_H(q,2) at n={n} > q^(2m+1)"
    elif family == "distance-optimal-sxs":
        q, s, m, lam = p["q"], p["s"], p["m"], p.get("lam", 1)
        if (q ** (s * m) - 1) % lam != 0:
            raise ValueError(f"{lam} does not divide q^(sm) - 1")
        rat = 2 * (q - 1) ** 2 * lam * lam < q ** s - 1
        rat_str = f"2*({q}-1)^2*{lam}^2 < {q}^{s} - 1"
        t = (q ** (s * m) - 1) // lam
        profile = MatrixProfile(field_of_order(q), tuple([(s, s)] * t))
        lhs, rhs = ball_volume_exact(profile, 2), q ** (s * (2 * m + 3))
        crit = f"V_sr(q,2) over {t} blocks {s}x{s} > q^(s(2m+3))"
    elif family == "distance-optimal-rect":
        q, s1, s2, m, lam = p["q"], p["s1"], p["s2"], p["m"], p.get("lam", 1)
        if (q ** (s2 * m) - 1) % lam != 0:
            raise ValueError(f"{lam} does not divide q^(s2 m) - 1")
        rat = 2 * q ** s2 * (q - 1) ** 2 * lam * lam < (q ** s1 - 1) ** 2
        rat_str = f"2*{q}^{s2}*({q}-1)^2*{lam}^2 < ({q}^{s1}-1)^2"
        t = (q ** (s2 * m) - 1) // lam
        profile = MatrixProfile(field_of_order(q), tuple([(s1, s2)] * t))
        lhs, rhs = ball_volume_exact(profile, 2), q ** (s2 * (2 * m + 3))
        crit = f"V_sr(q,2) over {t} blocks {s1}x{s2} > q^(s2(2m+3))"
    elif family == "plotkin-distance-optimal":
        s, m = p["s"], p["m"]
        rat = 2 * (2 ** s - 1) ** 4 >= 2 ** (4 * s)
        rat_str = f"2*(1 - 2^-{s})^4 >= 1"
        t = 2 ** (s * m) - 1
        profile = MatrixProfile(make_field(2, [1]), tuple([(s, s)] * (2 * t)))
        lhs, rhs = ball_volume_exact(profile, 2), 2 ** (s * (2 * m + 4))
        crit = f"V_sr(2,2) over {2 * t} blocks {s}x{s} > 2^(s(2m+4))"
    else:  # quasi-perfect-2xm
        q, m, u = p["q"], p["m"], p["u"]
        rat, rat_str = True, "none (no lambda condition)"
        t = (q ** (m * u) - 1) // (q ** m - 1)
        profile = MatrixProfile(field_of_order(q), tuple([(2, m)] * t))
        lhs, rhs = ball_volume_exact(profile, 2), q ** (m * (u + 1))
        crit = f"V_sr(q,2) over {t} blocks 2x{m} > q^(m(u+1))"
    return ConditionRecord(family, p, rat_str, bool(rat), crit,
                           bool(lhs > rhs), int(lhs), int(rhs))


# ----------------------------------------------------------------------
# certificates
# ----------------------------------------------------------------------

VERDICT_EXIT = {"certified": 0, "refuted": 1, "inconclusive": 2}

CLAIMS = ("perfect", "quasi-perfect", "distance-optimal", "msrd", "almost-msrd",
          "sphere-packing", "singleton")


def unlock_big_int_strings(digits: int = 1_000_000) -> None:
    """Raise the int->str conversion cap so exact bounds print in full."""
    try:
        sys.set_int_max_str_digits(max(sys.get_int_max_str_digits(), digits))
    except AttributeError:
        pass


def write_json(obj, write, default=None, _newline: str = "\n") -> None:
    """Write `json.dumps(obj, sort_keys=True, indent=2, default=default)` through `write`.

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
        if all(type(x) is int for x in obj):
            write("[" + inner + ("," + inner).join(map(int.__repr__, obj)) + _newline + "]")
            return
        sep = "[" + inner
        for item in obj:
            write(sep)
            write_json(item, write, default, inner)
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
            write_json(value, write, default, inner)
            sep = "," + inner
        write(_newline + "}")
    elif isinstance(obj, (str, int, float)) or obj is None:
        write(json.dumps(obj))
    elif default is not None:
        write_json(default(obj), write, default, _newline)
    else:
        raise TypeError(f"Object of type {obj.__class__.__name__} is not JSON serializable")


def _attach_family_conditions(cert: "Certificate", code) -> None:
    """Record the recipe family's hypothesis checks alongside the verdict."""
    recipe = getattr(code, "recipe", None)
    if recipe not in CONDITION_FAMILIES:
        return
    rec = family_condition_checks(recipe, code.params)
    cert.add_bound(f"family_condition[{rec.rational_condition}]", rec.rational_holds,
                   ("lambda condition evaluated at epsilon = 0, exact rationals",))
    cert.add_bound(f"family_criterion[{rec.exact_criterion}]", rec.exact_holds,
                   (f"exact comparison {rec.exact_lhs} vs {rec.exact_rhs} "
                    "at the family's nominal codimension",))


@dataclass
class Certificate:
    code: SumRankCode
    claim: str
    quantities: list = dc_field(default_factory=list)
    bounds: list = dc_field(default_factory=list)
    verdict: str = "inconclusive"
    notes: list = dc_field(default_factory=list)
    seed: int | None = None
    toolchain_version: str = TOOLCHAIN_VERSION

    def add_quantity(self, name: str, value, method: str):
        self.quantities.append({"name": name, "value": value, "method": method})

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
        """The certificate as `json.dumps(..., sort_keys=True, indent=2, default=str)`.

        With `write`, the text goes to it piece by piece and None is returned.
        """
        unlock_big_int_strings()
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
            write_json(payload, write, default=str)
            return None
        pieces: list[str] = []
        write_json(payload, pieces.append, default=str)
        return "".join(pieces)

    def to_table(self) -> str:
        unlock_big_int_strings()
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


def certify_code(code: SumRankCode, claim: str, *,
                 enum_budget: int = ENUM_BUDGET,
                 syndrome_budget: int = SYNDROME_BUDGET,
                 work_budget: int = WORK_BUDGET) -> Certificate:
    """Run the exact engines needed for a claim and assemble the verdict."""
    if claim not in CLAIMS:
        raise ValueError(f"unknown claim {claim!r}")
    cert = Certificate(code, claim)
    cert.add_quantity("dimension", code.dim, "construction")
    cert.add_quantity("block_length", code.profile.t, "construction")

    dist = sr_min_distance(code, enum_budget, syndrome_budget=syndrome_budget,
                           work_budget=work_budget)
    if dist.infinite:
        cert.notes.append("zero code: minimum distance undefined")
        return cert
    cert.add_quantity("min_sum_rank_distance",
                      dist.value if dist.exact else [dist.lo, dist.hi],
                      dist.method if dist.exact else dist.method + " (interval)")
    if dist.note:
        cert.notes.append(dist.note)
    if dist.witness is not None:
        word = code.to_word(dist.witness)
        cert.add_quantity("distance_witness",
                          [[list(row) for row in mat] for mat in word.matrices],
                          "row-major matrices per block")

    if claim in ("perfect", "quasi-perfect"):
        try:
            radius, _ = sr_covering_radius(code, syndrome_budget=syndrome_budget,
                                           work_budget=work_budget)
        except BudgetExceeded as exc:
            cert.notes.append(str(exc))
            return cert
        cert.add_quantity("covering_radius", radius, DP_METHOD)

    # every verdict below compares the exact d; an interval stays inconclusive
    if not dist.exact:
        if claim == "distance-optimal":
            cert.notes.append("distance not settled exactly")
        return cert

    if claim in ("perfect", "quasi-perfect"):
        verdict_name = perfection_verdict(dist.value, radius)
        cert.add_quantity("perfection", verdict_name, "exact comparison")
        sp = sphere_packing_check(code.profile, code.size, dist.value)
        if not sp.holds:
            raise RuntimeError(f"sphere packing violated ({sp.lhs} > {sp.rhs}): "
                               "implementation bug")
        cert.add_bound("sphere_packing_lhs<=rhs", f"{sp.lhs} <= {sp.rhs}",
                       ("sanity invariant",))
        cert.verdict = "certified" if verdict_name == claim else "refuted"
    elif claim == "distance-optimal":
        verdict, rec = distance_optimal_check(code.profile, code.size, dist.value)
        cert.add_bound("sphere_packing_refutation",
                       f"{rec['lhs']} > {rec['rhs']}",
                       (f"ball volume {rec['volume']} at radius {rec['volume_radius']}",))
        cert.verdict = verdict
        _attach_family_conditions(cert, code)
    elif claim in ("msrd", "almost-msrd"):
        name, defect = msrd_verdict(code.profile, code.dim, dist.value)
        cert.add_quantity("singleton_defect", defect, "exact")
        cert.add_quantity("msrd_class", name, "exact")
        want = "MSRD" if claim == "msrd" else "almost-MSRD"
        cert.verdict = "certified" if (name == want or
                                       (want == "almost-MSRD" and name == "MSRD")) else "refuted"
    elif claim == "sphere-packing":
        sp = sphere_packing_check(code.profile, code.size, dist.value)
        cert.add_bound("sphere_packing", f"{sp.lhs} <= {sp.rhs}", ())
        cert.verdict = "certified" if sp.holds else "refuted"
    else:  # singleton
        bound = singleton_like_bound(code.profile, dist.value)
        cert.add_bound("singleton_like", bound, ())
        cert.verdict = "certified" if code.size <= bound else "refuted"
    return cert
