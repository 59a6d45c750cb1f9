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
from typing import Optional

from . import rings

TWIST_RESTRICTION_NOTE = (
    "twist sheaves are restricted to direct sums of line bundles O(d); "
    "verdicts are exact for these and are not claimed for general coherent "
    "twists")

# Caps on the report parameters whose work or output grows without limit;
# each keeps a report under 1 s and 2 MB of output, and keeps every printed
# integer far below Python's 4,300-digit conversion limit.
MAX_HORIZON = 1024  # every report walks its levels; 2^horizon is printed
MAX_WINDOW = 128    # the punctured report prints ~window^2/2 class lines
MAX_STAGES = 64     # only enlarges the closed-form generator count
MAX_BOUND = 64      # the non-free check visits (bound+1)(bound+2)/2 monomials


def _check_horizon(horizon: int) -> None:
    if horizon > MAX_HORIZON:
        raise ValueError(f"horizon must be <= {MAX_HORIZON} (MAX_HORIZON)")


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
    """A level-indexed system of line-bundle sums with one of two explicit
    transition kinds.

    standard: term(k) = O(k)^(m^k) with the transition tensoring by the
    m-tuple of coordinate sections (every summand degree grows by 1; m^k
    copies at level k).  shifted_sum: the direct sum over all shifts of the
    standard system twisted by O(-1); a fresh O(-1) summand is born at each
    level and every existing strand's degree grows by 1.

    Every strand of one system is born in the same degree, min_degree(0),
    and gains one degree per transition, so the strand born at level 0
    decides every colimit condition for all of them.
    """

    n: int
    kind: str                 # "standard" | "shifted_sum"
    sections: int             # m

    def term(self, k: int) -> LineBundleSum:
        if self.kind == "standard":
            return LineBundleSum(self.n, ((k, self.sections ** k),))
        return LineBundleSum(
            self.n, tuple((i - 1, self.sections ** i) for i in range(k + 1)))

    def min_degree(self, k: int) -> int:
        """term(k).min_degree, without building the term: the standard
        strand has degree k, and the shifted sum's freshest strand -1."""
        return k if self.kind == "standard" else -1

    def describe(self) -> str:
        if self.kind == "standard":
            return f"standard system on P^{self.n} (m = {self.sections})"
        return f"shifted-sum system on P^{self.n} (m = {self.sections})"


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


# ---------------------------------------------------------------------------
# Condition checks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TwistVerdict:
    twist: int
    outcome: str              # "THRESHOLD" | "NONE" | "PASS" | "INCONCLUSIVE"
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


def _termwise_threshold(passes, horizon: int):
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
    _check_horizon(horizon)
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
        return system.min_degree(k) + d >= 0
    t = _termwise_threshold(passes, horizon)
    if t is None:
        return TwistVerdict(d, "NONE", None,
                            "some summand degree stays negative at every level")
    return TwistVerdict(d, "THRESHOLD", t,
                        f"all summand degrees >= 0 from level {t} on")


def _check_v(system, d, level, horizon):
    """H^q vanishes for 0 < q < n, and H^n(O(e)) vanishes exactly when
    e > -n - 1, so a term passes when q = n is above `level` or its least
    degree has no top cohomology."""
    n = system.n

    def passes(k):
        return level >= n or system.min_degree(k) + d > -n - 1

    t = _termwise_threshold(passes, horizon)
    if t is None:
        return TwistVerdict(d, "NONE", None,
                            f"H^q stays nonzero for some q >= {level + 1}")
    return TwistVerdict(d, "THRESHOLD", t,
                        f"H^q = 0 for q >= {level + 1} from level {t} on")


def _check_g_colim(system, d, horizon):
    """The strand born at level 0, in degree e = min_degree(0) + d, needs
    max(0, -e) steps to reach degree >= 0; every other strand is a shift
    of it."""
    steps_needed = max(0, -(system.min_degree(0) + d))
    if steps_needed > horizon:
        return TwistVerdict(d, "INCONCLUSIVE", None,
                            "a strand (born at level 0) is still "
                            f"ungenerated after {horizon} steps")
    return TwistVerdict(d, "PASS", None,
                        "every summand strand is globally generated within "
                        f"{steps_needed} steps of its birth")


def _check_v_colim(system, d, level, horizon):
    """Only H^n can be nonzero above degree 0.  A class x^a of H^n(O(e)),
    all a_i <= -1, survives one step per available increment,
    sum(-1 - a_i) = -e - n - 1 of them, so every class dies after
    -e - n steps."""
    n = system.n
    if level + 1 > n:
        return TwistVerdict(d, "PASS", None,
                            f"no cohomology above degree {level} on P^{n}")
    e = system.min_degree(0) + d
    death_steps = 0
    if e <= -n - 1:
        death_steps = -e - n
        if death_steps > horizon:
            return TwistVerdict(d, "INCONCLUSIVE", None,
                                "a class (born at level 0) is "
                                f"still alive after {horizon} steps")
    return TwistVerdict(d, "PASS", None,
                        "every class dies in the colimit within "
                        f"{death_steps} steps of its birth")


# ---------------------------------------------------------------------------
# Punctured plane: (V_0) fails while (V_0') holds
# ---------------------------------------------------------------------------

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
    finitely many transition steps (so the colimit vanishes).

    One transition sends x^-a y^-b to x^-(a-1) y^-b and x^-a y^-(b-1), and a
    class is alive while both exponents are >= 1, so the longest path out of
    it lowers a to 1 and b to 1 and then takes one last step: the class dies
    after a + b - 1 steps."""
    if window < 2:
        raise ValueError("window must be >= 2")
    if window > MAX_WINDOW:
        raise ValueError(f"window must be <= {MAX_WINDOW} (MAX_WINDOW)")
    _check_horizon(horizon)
    deaths = tuple((a, b, a + b - 1) for a in range(1, window)
                   for b in range(1, window - a + 1))
    per_copy = len(deaths)
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
    _check_horizon(horizon)
    n = 2
    system = standard_system(n)
    levels = []
    h2_sub = coh_dim(n, -3, 2)
    for k in range(horizon + 1):
        term = system.term(k).twist(-3)
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


def _transition(s):
    """The pulled-back transition on one copy: the section s*e_w goes to
    x*s*e_(2w) + y*s*e_(2w+1), returned as its two components."""
    return s.ring.variable("x") * s, s.ring.variable("y") * s


def _remainder(p, var: int):
    """Remainder of p on division by the variable with index `var`: the
    terms that variable does not divide."""
    return rings.RingElement(p.ring, tuple((key, c) for key, c in p.terms()
                                           if not key[var]))


def nonfree_pullback_report(stages: int, degree_bound: int) -> NonfreeReport:
    """Model the sections of the pulled-back system as tuples over k[x, y],
    one component per copy, with stage k+1 holding twice the copies of
    stage k, and decide whether the image of every generator mu*e_w
    (mu a monomial of degree <= degree_bound, w a copy at a stage before
    the last) lies in x*Gamma + y*Gamma one stage later.

    A tuple lies there exactly when each component lies in the ideal
    x*k[x,y] + y*k[x,y]: dividing a component by x and the remainder by y
    leaves remainder 0.  The transition maps mu*e_w to the components x*mu
    and y*mu, the same pair on every copy w and at every stage; only the
    indices 2w, 2w+1 they land on differ.  So checking the transition of
    mu*e_0 once per monomial decides all (2^(stages-1) - 1) * M generators
    below the last stage, M the number of monomials; the zero section,
    x*0 + y*0, is counted as one more.
    """
    if stages < 2:
        raise ValueError("need at least 2 stages")
    if stages > MAX_STAGES:
        raise ValueError(f"stages must be <= {MAX_STAGES} (MAX_STAGES)")
    if degree_bound > MAX_BOUND:
        raise ValueError(f"bound must be <= {MAX_BOUND} (MAX_BOUND)")
    ring = rings.polynomial(["x", "y"])
    monomials = [ring.monomial((i, j), 1)
                 for i in range(degree_bound + 1)
                 for j in range(degree_bound + 1 - i)]
    ok = all(_remainder(_remainder(c, 0), 1).is_zero()
             for mu in monomials for c in _transition(mu))
    checked = (2 ** (stages - 1) - 1) * len(monomials) + 1
    return NonfreeReport(stages, degree_bound, checked, ok)
