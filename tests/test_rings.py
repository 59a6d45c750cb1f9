import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from colift import rings
from colift.rings import (ParseError, RingError, integers, is_unit,
                          laurent, parse_element, polynomial, render,
                          residue)

Z = integers()
Z5 = residue(5)
ZXY = polynomial(["x", "y"])
LAU = laurent("u")


def el(ring, text):
    return parse_element(ring, text)


# ---------------------------------------------------------------------------
# arithmetic examples
# ---------------------------------------------------------------------------

def test_add_integers():
    assert Z.from_int(2) + Z.from_int(3) == Z.from_int(5)


def test_add_residue_wraps():
    assert Z5.from_int(3) + Z5.from_int(4) == Z5.from_int(2)


def test_add_cancels_zero_coefficients():
    x, y = ZXY.variable("x"), ZXY.variable("y")
    s = (x * y - 1) + 1
    assert s == x * y
    assert s.payload == ((( 1, 1), 1),)


def test_mul_laurent_unit_relation():
    u = LAU.variable("u")
    assert u * LAU.variable("u", -1) == LAU.one()


def test_mul_polynomial():
    assert ZXY.variable("x") * ZXY.variable("y") == el(ZXY, "x*y")


def test_arithmetic_across_descriptor_objects():
    """Equal descriptors built separately combine; different rings refuse
    with the same message, whichever path the ring check takes."""
    assert residue(5).from_int(2) + Z5.from_int(4) == Z5.from_int(1)
    assert residue(5).from_int(2) == Z5.from_int(2)
    assert residue(7).from_int(2) != Z5.from_int(2)
    for op in (lambda a, b: a + b, lambda a, b: a * b):
        with pytest.raises(RingError, match="ring mismatch: Z/5 vs Z/7"):
            op(Z5.from_int(2), residue(7).from_int(2))


def test_mul_residue():
    assert Z5.from_int(2) * Z5.from_int(3) == Z5.one()


# ---------------------------------------------------------------------------
# units
# ---------------------------------------------------------------------------

def test_unit_laurent_monomial():
    u = LAU.variable("u")
    assert is_unit(u) == LAU.variable("u", -1)


def test_nonconstant_polynomial_is_not_a_unit():
    assert is_unit(ZXY.variable("x")) is None


def test_unit_residue_extended_euclid():
    inv = is_unit(Z5.from_int(3))
    # oracle: extended Euclid gives 3 * 2 = 6 = 1 mod 5
    assert (3 * 2) % 5 == 1
    assert inv == Z5.from_int(2)


def test_unit_integers_only_pm_one():
    assert is_unit(Z.from_int(1)) == Z.from_int(1)
    assert is_unit(Z.from_int(-1)) == Z.from_int(-1)
    assert is_unit(Z.from_int(2)) is None


def test_unit_polynomial_over_prime_field_constants():
    P5 = polynomial(["x"], Z5)
    assert is_unit(P5.from_int(3)) == P5.from_int(2)
    assert is_unit(P5.variable("x")) is None


def test_unit_polynomial_composite_modulus_nilpotent_tail():
    # 1 + 2x squares to 1 over Z/4
    P4 = polynomial(["x"], residue(4))
    f = P4.one() + P4.from_int(2) * P4.variable("x")
    inv = is_unit(f)
    assert inv is not None and f * inv == P4.one()


def test_unit_polynomial_over_a_large_prime_modulus_is_decided_fast():
    """1 + x is not a unit over Z/(2^61-1)[x]; deciding that must not factor
    the modulus."""
    P = polynomial(["x"], residue(2**61 - 1))
    start = time.perf_counter()
    assert is_unit(P.one() + P.variable("x")) is None
    assert time.perf_counter() - start < 1.0


def _trial_division_primes(m):
    out, d = [], 2
    while d * d <= m:
        if m % d == 0:
            out.append(d)
            while m % d == 0:
                m //= d
        d += 1
    return out + ([m] if m > 1 else [])


def test_unit_polynomial_nilpotent_tails_match_trial_division():
    """1 + c*x over Z/m[x] is a unit exactly when c is nilpotent mod m, that
    is, divisible by every prime factor of m (for m < 1000)."""
    rng = random.Random(29)
    for m in range(2, 1000):
        P = polynomial(["x"], residue(m))
        radical = 1
        for p in _trial_division_primes(m):
            radical *= p
        cs = set(range(1, m)) if m < 40 else \
            {rng.randrange(1, m) for _ in range(8)} | \
            {radical * rng.randrange(1, m // radical + 1) % m for _ in range(4)}
        for c in cs - {0}:
            f = P.one() + P.from_int(c) * P.variable("x")
            nilpotent = c % radical == 0
            inv = is_unit(f)
            assert (inv is not None) == nilpotent, (m, c)
            if inv is not None:
                assert f * inv == P.one()


def test_unit_laurent_over_prime_field():
    L5 = laurent("u", Z5)
    f = L5.monomial(3, 2)
    inv = is_unit(f)
    assert inv is not None and f * inv == L5.one()


# ---------------------------------------------------------------------------
# parsing and rendering
# ---------------------------------------------------------------------------

def test_parse_two_term_polynomial():
    f = el(ZXY, "3*x^2*y - 1")
    assert f.payload == (((0, 0), -1), ((2, 1), 3))


def test_parse_laurent_negative_exponent():
    f = el(LAU, "u^-2 + 5")
    assert f.payload == ((-2, 1), (0, 5))


def test_parse_negative_exponent_rejected_outside_laurent():
    with pytest.raises(ParseError) as info:
        el(ZXY, "x^-1")
    assert info.value.position == 2


def test_parse_unknown_variable():
    with pytest.raises(ParseError):
        el(ZXY, "x + z")


def test_parse_error_position():
    with pytest.raises(ParseError) as info:
        el(ZXY, "x + ")
    assert info.value.position == 4


def test_parse_parentheses_and_power():
    assert el(ZXY, "(x + y)^2") == el(ZXY, "x^2 + 2*x*y + y^2")


def test_power_work_limit():
    """(1+u)^e over Z bounds (e+1)^2 terms squared times e+1 bits, so the
    limit 2^24 = 256^3 falls between the exponents 255 and 256; a lone
    variable and a constant over Z/m are never expanded by the limit."""
    assert el(LAU, "(1+u)^255").terms()[-1] == (255, 1)
    with pytest.raises(ParseError, match="MAX_POWER_WORK"):
        el(LAU, "(1+u)^256")
    with pytest.raises(ParseError, match="MAX_POWER_WORK"):
        el(Z, "2^99999999")
    assert el(LAU, "u^99999999") == LAU.variable("u", 99999999)
    assert el(Z5, "2^99999999") == Z5.from_int(3)     # 2^(99999999 mod 4)
    assert el(polynomial(["x"], Z5), "(3)^99999999") \
        == polynomial(["x"], Z5).from_int(2)


def test_render_parse_roundtrip_on_random_elements():
    import random
    rng = random.Random(2)
    for ring in (Z, Z5, ZXY, LAU, polynomial(["a", "b"], residue(7))):
        for _ in range(40):
            x = _random_element(ring, rng)
            assert parse_element(ring, render(x)) == x


def _random_element(ring, rng):
    if ring.kind in ("integers", "residue"):
        return ring.from_int(rng.randrange(-20, 20))
    out = ring.zero()
    for _ in range(rng.randrange(4)):
        c = rng.randrange(-5, 6)
        if ring.kind == "laurent":
            key = rng.randrange(-4, 5)
        else:
            key = tuple(rng.randrange(4) for _ in ring.variables)
        out = out + ring.monomial(key, c)
    return out


# ---------------------------------------------------------------------------
# ring axioms and normal form (property tests)
# ---------------------------------------------------------------------------

def _element_strategy(ring):
    if ring.kind in ("integers", "residue"):
        return st.integers(-50, 50).map(ring.from_int)
    if ring.kind == "laurent":
        keys = st.integers(-4, 4)
    else:
        keys = st.tuples(*[st.integers(0, 4)] * len(ring.variables))
    term = st.tuples(keys, st.integers(-6, 6))
    return st.lists(term, max_size=4).map(
        lambda terms: sum((ring.monomial(k, c) for k, c in terms),
                          ring.zero()))


@pytest.mark.parametrize("ring", [Z, Z5, ZXY, LAU, laurent("t", residue(6))],
                         ids=str)
def test_ring_axioms_sampled(ring):
    @settings(max_examples=60, deadline=None)
    @given(_element_strategy(ring), _element_strategy(ring),
           _element_strategy(ring))
    def axioms(a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert a * ring.one() == a
        assert a + ring.zero() == a

    axioms()


@pytest.mark.parametrize("ring", [Z, Z5, ZXY, LAU], ids=str)
def test_normal_form_idempotent(ring):
    import random
    rng = random.Random(3)
    for _ in range(50):
        x = _random_element(ring, rng)
        assert rings.renormalize(x) == x
        assert rings.renormalize(x).payload == x.payload


def test_descriptor_validation():
    with pytest.raises(RingError):
        residue(1)
    with pytest.raises(RingError):
        polynomial(["x", "x"])
    with pytest.raises(RingError):
        polynomial(["X"])
    with pytest.raises(RingError):
        polynomial(["x"], polynomial(["y"]))   # no towers


def test_descriptor_json_roundtrip():
    for ring in (Z, Z5, ZXY, LAU, laurent("v", residue(9))):
        assert rings.descriptor_from_json(rings.descriptor_to_json(ring)) == ring


# ---------------------------------------------------------------------------
# primality (deterministic Miller-Rabin)
# ---------------------------------------------------------------------------

def test_is_prime_agrees_with_trial_division_below_1e5():
    sieve = bytearray([1]) * 100_000
    sieve[0] = sieve[1] = 0
    for p in range(2, 317):
        if sieve[p]:
            sieve[p * p::p] = bytearray(len(sieve[p * p::p]))
    assert [rings._is_prime(m) for m in range(100_000)] == [bool(v) for v in sieve]


def test_is_prime_pseudoprimes_and_mersenne_primes():
    assert not rings._is_prime(561)              # Carmichael number
    assert not rings._is_prime(3_215_031_751)    # strong pseudoprime to 2, 3, 5, 7
    assert rings._is_prime(2 ** 31 - 1)
    assert rings._is_prime(2 ** 61 - 1)
    assert not rings._is_prime((2 ** 31 - 1) * (2 ** 41 - 1))


def test_is_prime_refuses_moduli_beyond_the_proven_bound():
    assert rings._is_prime(rings.PRIME_TEST_BOUND - 2) in (True, False)
    with pytest.raises(ValueError):
        rings._is_prime(rings.PRIME_TEST_BOUND)
