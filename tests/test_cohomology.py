import itertools

import pytest

from colift import cohomology as C
from colift import rings


# brute-force oracle: count monomials rather than trusting binomials
def monomial_count_h0(n, d):
    if d < 0:
        return 0
    return sum(1 for c in itertools.product(range(d + 1), repeat=n + 1)
               if sum(c) == d)


def monomial_count_hn(n, d):
    # monomials x^a with every a_i <= -1 and total degree d
    e = -d - (n + 1)
    if e < 0:
        return 0
    return sum(1 for c in itertools.product(range(e + 1), repeat=n + 1)
               if sum(c) == e)


# ---------------------------------------------------------------------------
# dimensions
# ---------------------------------------------------------------------------

def test_coh_dim_examples():
    assert C.coh_dim(1, 0, 0) == 1
    assert C.coh_dim(2, -3, 2) == monomial_count_hn(2, -3) == 1
    assert C.coh_dim(1, 3, 0) == monomial_count_h0(1, 3) == 4


def test_coh_dim_agrees_with_monomial_oracle_everywhere():
    for n in range(1, 5):
        for d in range(-12, 13):
            for q in range(0, n + 1):
                expect = (monomial_count_h0(n, d) if q == 0 else
                          monomial_count_hn(n, d) if q == n else 0)
                assert C.coh_dim(n, d, q) == expect, (n, d, q)


def test_euler_characteristic_signed_binomial():
    for n in range(1, 5):
        for d in range(-12, 13):
            chi = sum((-1) ** q * C.coh_dim(n, d, q) for q in range(n + 1))
            assert chi == C.euler_characteristic(n, d), (n, d)


def test_serre_duality_symmetry():
    for n in range(1, 5):
        for d in range(-12, 13):
            assert C.coh_dim(n, d, 0) == C.coh_dim(n, -d - n - 1, n)


# ---------------------------------------------------------------------------
# systems
# ---------------------------------------------------------------------------

def test_standard_system_p1_terms():
    sys1 = C.standard_system(1)
    assert [sys1.term(k).describe() for k in range(4)] \
        == ["O(0)^1", "O(1)^2", "O(2)^4", "O(3)^8"]


def test_standard_system_p2_multiplicity():
    assert C.standard_system(2).term(2).degrees == ((2, 9),)


def rank_strictly_increasing(system, horizon):
    ranks = [system.term(k).rank for k in range(horizon + 1)]
    return all(a < b for a, b in zip(ranks, ranks[1:]))


def test_standard_system_rank_strictly_increasing():
    for n in (1, 2, 3):
        assert rank_strictly_increasing(C.standard_system(n), 10)


def test_min_degree_matches_the_built_terms():
    for n in (1, 2, 3):
        for system in (C.standard_system(n), C.shifted_sum_system(n)):
            for k in range(12):
                assert system.min_degree(k) == system.term(k).min_degree


def test_shifted_sum_terms():
    sh = C.shifted_sum_system(1)
    assert sh.term(2).degrees == ((-1, 1), (0, 2), (1, 4))


# ---------------------------------------------------------------------------
# condition thresholds
# ---------------------------------------------------------------------------

def test_g_threshold_standard_p1_twist_minus3():
    rep = C.check_condition(C.standard_system(1), "G", [-3], 12)
    v = rep.verdicts[0]
    assert v.outcome == "THRESHOLD" and v.threshold == 3


def test_v0_threshold_standard_p2_twist_minus5():
    rep = C.check_condition(C.standard_system(2), "V0", [-5], 12)
    v = rep.verdicts[0]
    assert v.outcome == "THRESHOLD" and v.threshold == 3


def test_shifted_sum_fails_g_at_every_level():
    rep = C.check_condition(C.shifted_sum_system(1), "G", [0, -3], 12)
    assert all(v.outcome == "NONE" for v in rep.verdicts)


def test_shifted_sum_passes_g_colimit():
    rep = C.check_condition(C.shifted_sum_system(1), "G'", [0], 12)
    assert rep.verdicts[0].outcome == "PASS"


def test_inconclusive_when_horizon_too_small():
    rep = C.check_condition(C.standard_system(1), "G'", [-9], 4)
    assert rep.verdicts[0].outcome == "INCONCLUSIVE"


def test_termwise_implies_colimit_on_tested_systems():
    """Wherever the termwise condition holds with a threshold, the colimit
    version passes (never the converse direction)."""
    systems = [C.standard_system(1), C.standard_system(2),
               C.shifted_sum_system(1)]
    for system in systems:
        for d in range(-8, 1):
            g = C.check_condition(system, "G", [d], 12).verdicts[0]
            gc = C.check_condition(system, "G'", [d], 12).verdicts[0]
            if g.outcome == "THRESHOLD":
                assert gc.outcome == "PASS"
            v = C.check_condition(system, "V0", [d], 12).verdicts[0]
            vc = C.check_condition(system, "V'0", [d], 12).verdicts[0]
            if v.outcome == "THRESHOLD":
                assert vc.outcome == "PASS"


def test_standard_systems_pass_g_and_v0_for_all_small_twists():
    for n in (1, 2, 3):
        system = C.standard_system(n)
        for d in range(-8, 1):
            g = C.check_condition(system, "G", [d], 12).verdicts[0]
            v = C.check_condition(system, "V0", [d], 12).verdicts[0]
            assert g.outcome == "THRESHOLD", (n, d)
            assert v.outcome == "THRESHOLD", (n, d)


def test_condition_parsing_errors():
    with pytest.raises(ValueError):
        C.parse_condition("W3")
    assert C.parse_condition("V'2") == ("V", True, 2)


# ---------------------------------------------------------------------------
# punctured plane report
# ---------------------------------------------------------------------------

def brute_death(a, b):
    """Oracle: breadth-first image tracking on the two-chart cover basis."""
    alive = {(a, b)}
    steps = 0
    while alive:
        steps += 1
        alive = {(aa - 1, bb) for aa, bb in alive if aa - 1 >= 1 and bb >= 1} \
            | {(aa, bb - 1) for aa, bb in alive if aa >= 1 and bb - 1 >= 1}
        if not alive:
            return steps
    return steps


def test_death_examples():
    rep = C.punctured_plane_v0_report(6, 8)
    deaths = {(a, b): s for a, b, s in rep.class_deaths}
    assert deaths[(1, 1)] == 1
    assert deaths[(2, 1)] == 2


def test_deaths_match_brute_force_oracle():
    rep = C.punctured_plane_v0_report(7, 8)
    for a, b, s in rep.class_deaths:
        assert s == brute_death(a, b) == a + b - 1


def test_every_level_has_positive_h1():
    rep = C.punctured_plane_v0_report(6, 10)
    assert rep.v0_fails
    # window [-6, 0]: one class in total degree -2
    assert sum(1 for a, b, _ in rep.class_deaths if a + b == 2) == 1
    assert all(t > 0 for *_ignore, t in rep.levels)


def test_window_validation():
    with pytest.raises(ValueError):
        C.punctured_plane_v0_report(1, 4)


# ---------------------------------------------------------------------------
# quotient report
# ---------------------------------------------------------------------------

def test_quotient_h2_of_twist_is_one():
    rep = C.quotient_counterexample_report(12)
    assert all(l.h2_sub == 1 for l in rep.levels)
    assert rep.levels[0].h2_sub == C.coh_dim(2, -3, 2) == 1


def test_quotient_vanishing_from_level_two():
    rep = C.quotient_counterexample_report(12)
    for l in rep.levels:
        if l.level >= 2:
            assert l.h1_big == 0 and l.h2_big == 0


def test_quotient_lower_bound_certified():
    rep = C.quotient_counterexample_report(12)
    for l in rep.levels:
        if 2 <= l.level <= 12:
            assert l.certified and l.h1_quotient_lower_bound >= 1
    assert not rep.levels[0].certified


def test_quotient_horizon_validation():
    with pytest.raises(ValueError):
        C.quotient_counterexample_report(3)


# ---------------------------------------------------------------------------
# non-free pullback report
# ---------------------------------------------------------------------------

def test_stage_zero_generator_decomposes():
    ring = rings.polynomial(["x", "y"])
    x, y = ring.variable("x"), ring.variable("y")
    # 1 at stage 0 equals x*(1,0) + y*(0,1) at stage 1
    s = {0: ring.one()}
    t = {1: ring.one()}
    image = {0: x, 1: y}
    combined = {0: x * s[0], 1: y * t[1]}
    assert combined == image


def test_nonfree_identity_certified():
    rep = C.nonfree_pullback_report(3, 4)
    assert rep.all_decomposed
    assert rep.generators_checked == 1 * 15 + 2 * 15 + 1


def test_nonfree_check_fails_for_a_mutant_transition(monkeypatch):
    # s |-> (x*s, s): the second component of 1*e_0 is 1, outside <x, y>
    monkeypatch.setattr(C, "_transition",
                        lambda s: (s.ring.variable("x") * s, s))
    rep = C.nonfree_pullback_report(3, 4)
    assert rep.to_json()["identity_certified"] is False
    assert "FAILED" in rep.to_text()


def test_nonfree_zero_section():
    ring = rings.polynomial(["x", "y"])
    zero = ring.zero()
    assert ring.variable("x") * zero + ring.variable("y") * zero == zero


def test_nonfree_validation():
    with pytest.raises(ValueError):
        C.nonfree_pullback_report(1, 4)


def test_report_serialization():
    assert "verdicts" in C.check_condition(
        C.standard_system(2), "V0", [-5], 12).to_json()
    assert C.punctured_plane_v0_report(4, 6).to_json()["death_bound"] == 3
    assert C.quotient_counterexample_report(6).to_json()["horizon"] == 6
    assert C.nonfree_pullback_report(2, 2).to_json()["identity_certified"]
