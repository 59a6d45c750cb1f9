"""Desk-scale verification of positivity conditions for systems of
line-bundle sums on projective space.

Cohomology of O(d) on P^n is closed-form; the four conditions (termwise and
colimit global generation, termwise and colimit higher-cohomology vanishing)
are decided against twists by line bundles O(d) within a finite level
horizon.  Colimit conditions track monomial classes through the explicit
transition maps and report an inconclusive verdict when the horizon is hit
rather than guessing.  Twists are restricted to sums of line bundles; the
reports say so.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from . import rings

TWIST_RESTRICTION_NOTE = (
    "twist sheaves are restricted to direct sums of line bundles O(d); "
    "verdicts are exact for these and are not claimed for general coherent "
    "twists")


def coh_dim(n: int, d: int, q: int) -> int:
    """dim H^q(P^n, O(d)): sections in degree d for q = 0, the dual count
    for q = n, zero in between."""
    if n < 1:
        raise ValueError("projective space dimension must be >= 1")
    if q < 0 or q > n:
        return 0
    if q == 0:
        return math.comb(n + d, n) if d >= 0 else 0
    if q == n:
        return math.comb(-d - 1, n) if d <= -n - 1 else 0
    return 0


def euler_characteristic(n: int, d: int) -> int:
    """The signed binomial C(n+d, n) as a polynomial in d (exact for all d)."""
    num = 1
    for i in range(1, n + 1):
        num *= d + i
    return num // math.factorial(n)


# ---------------------------------------------------------------------------
# Line bundle sums and systems
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LineBundleSum:
    """A finite direct sum of O(d) on P^n, as (degree, multiplicity) pairs."""

    n: int
    degrees: tuple   # ((degree, multiplicity), ...) sorted by degree

    def __post_init__(self):
        if any(mult < 1 for _, mult in self.degrees):
            raise ValueError("multiplicities must be >= 1")
        object.__setattr__(self, "degrees",
                           tuple(sorted(self.degrees)))

    @property
    def rank(self) -> int:
        return sum(m for _, m in self.degrees)

    @property
    def min_degree(self) -> int:
        return self.degrees[0][0]

    def twist(self, d: int) -> "LineBundleSum":
        return LineBundleSum(self.n, tuple((e + d, m) for e, m in self.degrees))

    def cohomology(self, q: int) -> int:
        return sum(m * coh_dim(self.n, e, q) for e, m in self.degrees)

    def describe(self) -> str:
        return " + ".join(f"O({e})^{m}" for e, m in self.degrees)


@dataclass(frozen=True)
class SystemSpec:
    """A level-indexed system of line-bundle sums with one of three explicit
    transition kinds.

    standard: term(k) = O(k)^(m^k) with the transition tensoring by the
    m-tuple of coordinate sections (every summand degree grows by 1; m^k
    copies at level k).  shifted_sum: the direct sum over all shifts of the
    standard system twisted by O(-1); a fresh O(-1) summand is born at each
    level and every existing strand's degree grows by 1.  constant: the same
    sum at every level with identity transitions.
    """

    n: int
    kind: str                 # "standard" | "shifted_sum" | "constant"
    sections: int = 0         # m, for standard/shifted_sum
    base: Optional[LineBundleSum] = None   # for constant

    def term(self, k: int) -> LineBundleSum:
        if self.kind == "standard":
            return LineBundleSum(self.n, ((k, self.sections ** k),))
        if self.kind == "shifted_sum":
            return LineBundleSum(
                self.n, tuple((i - 1, self.sections ** i) for i in range(k + 1)))
        if self.kind == "constant":
            return self.base
        raise ValueError(f"unknown transition kind {self.kind!r}")

    def strands(self, horizon: int):
        """(birth level, degree at birth, multiplicity) for every summand
        strand born at levels 0..horizon."""
        if self.kind == "standard":
            return [(0, 0, 1)]
        if self.kind == "shifted_sum":
            return [(b, -1, self.sections ** b) for b in range(horizon + 1)]
        if self.kind == "constant":
            return [(0, e, m) for e, m in self.base.degrees]
        raise ValueError(f"unknown transition kind {self.kind!r}")

    @property
    def degree_step(self) -> int:
        """How much a strand's degree grows per level."""
        return 0 if self.kind == "constant" else 1

    def rank_strictly_increasing(self, horizon: int) -> bool:
        ranks = [self.term(k).rank for k in range(horizon + 1)]
        return all(a < b for a, b in zip(ranks, ranks[1:]))

    def describe(self) -> str:
        if self.kind == "standard":
            return f"standard system on P^{self.n} (m = {self.sections})"
        if self.kind == "shifted_sum":
            return f"shifted-sum system on P^{self.n} (m = {self.sections})"
        return f"constant system {self.base.describe()} on P^{self.n}"


def standard_system(n: int) -> SystemSpec:
    """term(k) = O(k) with multiplicity (n+1)^k; transitions tensor by the
    n+1 coordinate sections."""
    if n < 1:
        raise ValueError("projective space dimension must be >= 1")
    return SystemSpec(n, "standard", sections=n + 1)


def shifted_sum_system(n: int = 1) -> SystemSpec:
    """The direct sum of all shifts of the standard system twisted by O(-1);
    every term contains an O(-1) summand."""
    if n < 1:
        raise ValueError("projective space dimension must be >= 1")
    return SystemSpec(n, "shifted_sum", sections=n + 1)


def constant_system(base: LineBundleSum) -> SystemSpec:
    return SystemSpec(base.n, "constant", base=base)


# ---------------------------------------------------------------------------
# Condition checks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TwistVerdict:
    twist: int
    outcome: str              # "THRESHOLD" | "NONE" | "PASS" | "FAIL" | "INCONCLUSIVE"
    threshold: Optional[int]  # least stable level for termwise conditions
    detail: str

    def to_json(self):
        return {"twist": self.twist, "outcome": self.outcome,
                "threshold": self.threshold, "detail": self.detail}


@dataclass(frozen=True)
class ConditionReport:
    system: str
    condition: str
    horizon: int
    verdicts: tuple
    note: str = TWIST_RESTRICTION_NOTE

    def to_json(self):
        return {"system": self.system, "condition": self.condition,
                "horizon": self.horizon, "note": self.note,
                "verdicts": [v.to_json() for v in self.verdicts]}

    def to_text(self) -> str:
        lines = [f"{self.system}, condition {self.condition}, "
                 f"horizon {self.horizon}"]
        for v in self.verdicts:
            if v.outcome == "THRESHOLD":
                lines.append(f"  twist {v.twist:4d}: n' = {v.threshold}")
            else:
                lines.append(f"  twist {v.twist:4d}: {v.outcome} ({v.detail})")
        lines.append(f"  note: {self.note}")
        return "\n".join(lines)


def parse_condition(cond: str):
    """G, G', V<l>, V'<l> -> (family, colimit?, l)."""
    cond = cond.strip()
    if cond in ("G", "g"):
        return ("G", False, None)
    if cond in ("G'", "g'"):
        return ("G", True, None)
    c = cond.upper()
    colimit = "'" in c
    c = c.replace("'", "")
    if c.startswith("V") and c[1:].isdigit():
        return ("V", colimit, int(c[1:]))
    raise ValueError(f"unknown condition {cond!r}; use G, G', V<l> or V'<l>")


def _termwise_threshold(system: SystemSpec, passes, horizon: int):
    """Least level from which `passes` holds through the horizon, or None."""
    threshold = None
    for k in range(horizon, -1, -1):
        if passes(k):
            threshold = k
        else:
            break
    return threshold


def check_condition(system: SystemSpec, cond: str, twists, horizon: int) -> ConditionReport:
    """Decide one of the four positivity conditions against O(d) twists.

    Termwise conditions report the least level from which they hold through
    the horizon (or NONE).  Colimit conditions follow classes through the
    explicit transitions: a section strand counts once it reaches
    degree >= 0, a top-cohomology class once every monomial path out of it
    has left the basis; INCONCLUSIVE means the horizon was hit first.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    family, colimit, level = parse_condition(cond)
    verdicts = []
    for d in twists:
        if family == "G" and not colimit:
            verdicts.append(_check_g(system, d, horizon))
        elif family == "G" and colimit:
            verdicts.append(_check_g_colim(system, d, horizon))
        elif family == "V" and not colimit:
            verdicts.append(_check_v(system, d, level, horizon))
        else:
            verdicts.append(_check_v_colim(system, d, level, horizon))
    return ConditionReport(system.describe(), cond, horizon, tuple(verdicts))


def _check_g(system, d, horizon):
    def passes(k):
        return system.term(k).twist(d).min_degree >= 0
    t = _termwise_threshold(system, passes, horizon)
    if t is None:
        return TwistVerdict(d, "NONE", None,
                            "some summand degree stays negative at every level")
    return TwistVerdict(d, "THRESHOLD", t,
                        f"all summand degrees >= 0 from level {t} on")


def _check_v(system, d, level, horizon):
    n = system.n

    def passes(k):
        term = system.term(k).twist(d)
        return all(term.cohomology(q) == 0 for q in range(level + 1, n + 1))

    t = _termwise_threshold(system, passes, horizon)
    if t is None:
        return TwistVerdict(d, "NONE", None,
                            f"H^q stays nonzero for some q >= {level + 1}")
    return TwistVerdict(d, "THRESHOLD", t,
                        f"H^q = 0 for q >= {level + 1} from level {t} on")


def _check_g_colim(system, d, horizon):
    """Every summand strand must reach degree >= 0 within `horizon`
    transition steps of its birth (strands are shift-invariant, so tracking
    one representative per birth decides all of them)."""
    step = system.degree_step
    worst = 0
    for birth, e, _mult in system.strands(horizon):
        e += d
        if e >= 0:
            continue
        if step == 0:
            return TwistVerdict(d, "FAIL", None,
                                "identity transitions: a negative-degree "
                                "summand never becomes globally generated")
        steps_needed = -e
        if steps_needed > horizon:
            return TwistVerdict(d, "INCONCLUSIVE", None,
                                f"a strand (born at level {birth}) is still "
                                f"ungenerated after {horizon} steps")
        worst = max(worst, steps_needed)
    return TwistVerdict(d, "PASS", None,
                        "every summand strand is globally generated within "
                        f"{worst} steps of its birth")


def _top_class_death_steps(n: int, e: int) -> int:
    """Steps until every monomial path kills a top-cohomology class of
    O(e): a class x^a with all a_i <= -1 survives one step per available
    increment, sum(-1 - a_i) = -e - n - 1 of them."""
    return max(0, -e - n)


def _check_v_colim(system, d, level, horizon):
    n = system.n
    if level + 1 > n:
        return TwistVerdict(d, "PASS", None,
                            f"no cohomology above degree {level} on P^{n}")
    step = system.degree_step
    worst = 0
    for birth, e, _mult in system.strands(horizon):
        e += d
        for q in range(level + 1, n + 1):
            if coh_dim(n, e, q) == 0:
                continue
            if step == 0:
                return TwistVerdict(d, "FAIL", None,
                                    "identity transitions: a nonvanishing "
                                    f"H^{q} class persists in the colimit")
            death_steps = _top_class_death_steps(n, e)
            if death_steps > horizon:
                return TwistVerdict(d, "INCONCLUSIVE", None,
                                    f"a class (born at level {birth}) is "
                                    f"still alive after {horizon} steps")
            worst = max(worst, death_steps)
    return TwistVerdict(d, "PASS", None,
                        "every class dies in the colimit within "
                        f"{worst} steps of its birth")


# ---------------------------------------------------------------------------
# Punctured plane: (V_0) fails while (V_0') holds
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _death_steps(a: int, b: int) -> int:
    """Steps until the class x^-a y^-b on the punctured plane dies: images
    under one transition are the classes x^-(a-1) y^-b and x^-a y^-(b-1);
    a class is alive while both exponents are >= 1."""
    if a < 1 or b < 1:
        return 0
    return 1 + max(_death_steps(a - 1, b), _death_steps(a, b - 1))


@dataclass(frozen=True)
class PuncturedPlaneReport:
    window: int
    horizon: int
    levels: tuple        # (level, classes_per_copy, copies, total_dim)
    class_deaths: tuple  # ((a, b, death_steps), ...)
    death_bound: int
    v0_fails: bool
    v0_colim_holds_to_horizon: bool

    def to_json(self):
        return {
            "window": self.window, "horizon": self.horizon,
            "levels": [{"level": l, "classes_per_copy": c, "copies": k,
                        "total_dim_h1": t} for l, c, k, t in self.levels],
            "class_deaths": [{"a": a, "b": b, "dies_after": s}
                             for a, b, s in self.class_deaths],
            "death_bound": self.death_bound,
            "v0_fails": self.v0_fails,
            "v0_colim_holds_to_horizon": self.v0_colim_holds_to_horizon,
        }

    def to_text(self):
        lines = [f"punctured plane, classes x^-a y^-b with a+b <= {self.window}, "
                 f"horizon {self.horizon}"]
        for l, c, k, t in self.levels:
            lines.append(f"  level {l:2d}: dim H^1 = {c} per copy x {k} copies"
                         f" = {t}")
        lines.append("  class deaths (steps until the image vanishes):")
        for a, b, s in self.class_deaths:
            lines.append(f"    x^-{a} y^-{b}: dies after {s}")
        lines.append(f"  every window class dies within {self.death_bound} steps;"
                     f" dim H^1 > 0 at every level, so termwise vanishing fails"
                     f" while the colimit vanishes")
        return "\n".join(lines)


def punctured_plane_v0_report(window: int, horizon: int) -> PuncturedPlaneReport:
    """For the standard system pulled back to the punctured plane: the
    windowed H^1 basis {x^-a y^-b : a, b >= 1, a+b <= window} is nonempty at
    every level (so termwise vanishing fails), while each class dies after
    finitely many transition steps (so the colimit vanishes)."""
    if window < 2:
        raise ValueError("window must be >= 2")
    classes = [(a, b) for a in range(1, window) for b in range(1, window)
               if a + b <= window]
    deaths = tuple((a, b, _death_steps(a, b)) for a, b in sorted(classes))
    per_copy = len(classes)
    levels = tuple((l, per_copy, 2 ** l, per_copy * 2 ** l)
                   for l in range(horizon + 1))
    bound = max(s for _, _, s in deaths)
    return PuncturedPlaneReport(
        window=window, horizon=horizon, levels=levels, class_deaths=deaths,
        death_bound=bound, v0_fails=all(t > 0 for *_rest, t in levels),
        v0_colim_holds_to_horizon=bound <= horizon)


# ---------------------------------------------------------------------------
# Quotient counterexample: H^1 of the quotient never vanishes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuotientLevel:
    level: int
    h1_big: int
    h2_big: int
    h2_sub: int
    h1_quotient_lower_bound: int
    certified: bool

    def to_json(self):
        return {"level": self.level, "h1_E": self.h1_big, "h2_E": self.h2_big,
                "h2_F": self.h2_sub,
                "h1_Q_lower_bound": self.h1_quotient_lower_bound,
                "certified_nonzero": self.certified}


@dataclass(frozen=True)
class QuotientReport:
    horizon: int
    levels: tuple

    def to_json(self):
        return {"horizon": self.horizon,
                "levels": [l.to_json() for l in self.levels]}

    def to_text(self):
        lines = ["P^2: E_n = O(n-3)^(3^n) (standard system twisted by O(-3)), "
                 "F_n = O(-3) constant, Q_n = E_n/F_n",
                 "  level   h1(E)   h2(E)   h2(F)   h1(Q) >=   certified"]
        for l in self.levels:
            lines.append(f"  {l.level:5d} {l.h1_big:7d} {l.h2_big:7d} "
                         f"{l.h2_sub:7d} {l.h1_quotient_lower_bound:9d}"
                         f"   {'yes' if l.certified else 'no'}")
        lines.append("  the long exact sequence gives dim H^1(Q_n) >= "
                     "dim H^2(F_n) - dim H^2(E_n) once H^1(E_n) = 0")
        return "\n".join(lines)


def quotient_counterexample_report(horizon: int) -> QuotientReport:
    """On P^2, with the standard system twisted by O(-3) and the constant
    subsystem O(-3): H^2 of the sub stays one-dimensional while both H^1 and
    H^2 of the big system vanish from level 1 on, so H^1 of the quotient is
    bounded below by 1 from then on."""
    if horizon < 4:
        raise ValueError("horizon must be >= 4")
    n = 2
    levels = []
    h2_sub = coh_dim(n, -3, 2)
    for k in range(horizon + 1):
        term = standard_system(n).term(k).twist(-3)
        h1 = term.cohomology(1)
        h2 = term.cohomology(2)
        bound = max(0, h2_sub - h2) if h1 == 0 else 0
        levels.append(QuotientLevel(k, h1, h2, h2_sub, bound,
                                    h1 == 0 and h2 == 0 and bound >= 1))
    return QuotientReport(horizon, tuple(levels))


# ---------------------------------------------------------------------------
# Non-free pullback: <x, y> * sections = sections
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NonfreeReport:
    stages: int
    degree_bound: int
    generators_checked: int
    all_decomposed: bool

    def to_json(self):
        return {"stages": self.stages, "degree_bound": self.degree_bound,
                "generators_checked": self.generators_checked,
                "identity_certified": self.all_decomposed}

    def to_text(self):
        status = "certified" if self.all_decomposed else "FAILED"
        return ("punctured-plane pullback of the standard system on P^1:\n"
                f"  checked {self.generators_checked} stage generators "
                f"(stages < {self.stages}, degree <= {self.degree_bound})\n"
                f"  every generator image decomposes as x*s + y*t one stage "
                f"later: {status}\n"
                "  hence <x, y> * Gamma = Gamma, so the section module is "
                "not free")


def nonfree_pullback_report(stages: int, degree_bound: int) -> NonfreeReport:
    """Model the sections of the pulled-back system as polynomial tuples
    with the transition s |-> (x*s, y*s) componentwise, and verify
    symbolically that the image of every generator equals x*s + y*t with s,
    t explicit sections one stage later."""
    if stages < 2:
        raise ValueError("need at least 2 stages")
    ring = rings.polynomial(["x", "y"])
    x = ring.variable("x")
    y = ring.variable("y")
    monomials = [ring.monomial((i, j), 1)
                 for i in range(degree_bound + 1)
                 for j in range(degree_bound + 1 - i)]
    checked = 0
    ok = True
    for stage in range(stages - 1):
        copies = 2 ** stage
        for w in range(copies):
            for mu in monomials:
                # image of mu*e_w at the next stage
                image = {2 * w: x * mu, 2 * w + 1: y * mu}
                s_vec = {2 * w: mu}
                t_vec = {2 * w + 1: mu}
                recombined = {}
                for comp, val in s_vec.items():
                    recombined[comp] = recombined.get(comp, ring.zero()) + x * val
                for comp, val in t_vec.items():
                    recombined[comp] = recombined.get(comp, ring.zero()) + y * val
                if recombined != image:
                    ok = False
                checked += 1
    # the zero section decomposes as 0 = x*0 + y*0
    checked += 1
    return NonfreeReport(stages, degree_bound, checked, ok)
