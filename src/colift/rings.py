"""Exact arithmetic for the supported commutative rings.

Supported rings: the integers Z, residue rings Z/m (m >= 2), multivariate
polynomial rings over Z or Z/m, and single-variable Laurent rings over Z or
Z/m.  Every element is kept in a unique canonical normal form, so equality
is payload equality.  Values are immutable after construction and safe to
share between threads.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Optional

_NAME_RE = re.compile(r"[a-z][a-z0-9]*$")


class RingError(Exception):
    """Malformed ring descriptor or mismatched-ring operation."""


class ParseError(Exception):
    """Syntax error in an element expression; carries the offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


# ---------------------------------------------------------------------------
# Ring descriptors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RingDescriptor:
    """Identifies one of the supported rings.

    kind is one of "integers", "residue", "polynomial", "laurent".
    Polynomial/Laurent coefficients must be Z or Z/m (nesting depth one).
    """

    kind: str
    modulus: int = 0                 # residue only
    variables: tuple = ()            # polynomial: ordered names; laurent: (name,)
    coeff_kind: str = ""             # polynomial/laurent: "integers" or "residue"
    coeff_modulus: int = 0

    def __post_init__(self):
        if self.kind == "integers":
            pass
        elif self.kind == "residue":
            if self.modulus < 2:
                raise RingError("residue modulus must be >= 2")
        elif self.kind in ("polynomial", "laurent"):
            if not self.variables:
                raise RingError("need at least one variable")
            if self.kind == "laurent" and len(self.variables) != 1:
                raise RingError("laurent ring has exactly one variable")
            seen = set()
            for name in self.variables:
                if not _NAME_RE.match(name):
                    raise RingError(f"bad variable name {name!r}")
                if name in seen:
                    raise RingError(f"duplicate variable {name!r}")
                seen.add(name)
            if self.coeff_kind == "integers":
                pass
            elif self.coeff_kind == "residue":
                if self.coeff_modulus < 2:
                    raise RingError("coefficient modulus must be >= 2")
            else:
                raise RingError("coefficients must be Z or Z/m")
        else:
            raise RingError(f"unknown ring kind {self.kind!r}")

    # -- constructors for elements of this ring ----------------------------

    def zero(self) -> "RingElement":
        if self.kind in ("integers", "residue"):
            return RingElement(self, 0)
        return RingElement(self, ())

    def one(self) -> "RingElement":
        return self.from_int(1)

    def from_int(self, n: int) -> "RingElement":
        if self.kind == "integers":
            return RingElement(self, n)
        if self.kind == "residue":
            return RingElement(self, n % self.modulus)
        c = self._coeff_norm(n)
        if c == 0:
            return self.zero()
        key = (0,) * len(self.variables) if self.kind == "polynomial" else 0
        return RingElement(self, ((key, c),))

    def variable(self, name: str, power: int = 1) -> "RingElement":
        """The monomial name**power with coefficient 1."""
        if self.kind == "polynomial":
            if name not in self.variables:
                raise RingError(f"unknown variable {name!r}")
            if power < 0:
                raise RingError("negative exponent outside a Laurent ring")
            exps = tuple(power if v == name else 0 for v in self.variables)
            return RingElement(self, ((exps, 1),))
        if self.kind == "laurent":
            if name != self.variables[0]:
                raise RingError(f"unknown variable {name!r}")
            return RingElement(self, ((power, 1),))
        raise RingError(f"{self} has no variables")

    def monomial(self, key, coeff: int) -> "RingElement":
        """Element with a single term; key is an exponent tuple (polynomial)
        or an integer exponent (laurent)."""
        c = self._coeff_norm(coeff)
        if c == 0:
            return self.zero()
        return RingElement(self, ((key, c),))

    def _coeff_norm(self, c: int) -> int:
        if self.kind in ("polynomial", "laurent") and self.coeff_kind == "residue":
            return c % self.coeff_modulus
        if self.kind == "residue":
            return c % self.modulus
        return c

    def __str__(self):
        if self.kind == "integers":
            return "Z"
        if self.kind == "residue":
            return f"Z/{self.modulus}"
        coeff = "Z" if self.coeff_kind == "integers" else f"Z/{self.coeff_modulus}"
        if self.kind == "polynomial":
            return f"{coeff}[{','.join(self.variables)}]"
        return f"{coeff}[{self.variables[0]}^±]"


def integers() -> RingDescriptor:
    return RingDescriptor("integers")


def residue(m: int) -> RingDescriptor:
    return RingDescriptor("residue", modulus=m)


def polynomial(names, coeff: Optional[RingDescriptor] = None) -> RingDescriptor:
    coeff = coeff or integers()
    if coeff.kind not in ("integers", "residue"):
        raise RingError("polynomial coefficients must be Z or Z/m")
    return RingDescriptor("polynomial", variables=tuple(names),
                          coeff_kind=coeff.kind, coeff_modulus=coeff.modulus)


def laurent(name: str, coeff: Optional[RingDescriptor] = None) -> RingDescriptor:
    coeff = coeff or integers()
    if coeff.kind not in ("integers", "residue"):
        raise RingError("laurent coefficients must be Z or Z/m")
    return RingDescriptor("laurent", variables=(name,),
                          coeff_kind=coeff.kind, coeff_modulus=coeff.modulus)


# Deterministic Miller-Rabin on the 13 prime bases 2..41 is exact for every
# n below this bound (Sorenson and Webster, "Strong pseudoprimes to twelve
# prime bases", Math. Comp. 86 (2017)).
PRIME_TEST_BOUND = 3_317_044_064_679_887_385_961_981
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _is_prime(n: int) -> bool:
    """Exact primality for n < PRIME_TEST_BOUND; larger n raise ValueError."""
    if n >= PRIME_TEST_BOUND:
        raise ValueError(f"primality is decided only below {PRIME_TEST_BOUND}")
    if n < 2:
        return False
    for p in _PRIME_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _PRIME_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# ---------------------------------------------------------------------------
# Ring elements
# ---------------------------------------------------------------------------

class RingElement:
    """An exact ring element in canonical normal form.

    Payload: an int for Z and Z/m (residues stored in [0, m)); for
    polynomial/laurent rings a sorted tuple of (key, coeff) pairs with no
    zero coefficients, where key is an exponent tuple (polynomial) or an
    integer exponent (laurent, possibly negative).
    """

    __slots__ = ("ring", "payload", "_hash")

    def __init__(self, ring: RingDescriptor, payload):
        object.__setattr__(self, "ring", ring)
        if isinstance(payload, dict):
            payload = tuple(sorted((k, c) for k, c in payload.items() if c != 0))
        object.__setattr__(self, "payload", payload)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, *args):
        raise AttributeError("RingElement is immutable")

    # -- structure ----------------------------------------------------------

    def is_zero(self) -> bool:
        return self.payload == 0 or self.payload == ()

    def is_one(self) -> bool:
        return self == self.ring.one()

    def terms(self):
        """(key, coeff) pairs for polynomial/laurent; not for scalars."""
        return self.payload

    def constant_value(self) -> Optional[int]:
        """The constant c if this element is the constant c, else None."""
        r = self.ring
        if r.kind in ("integers", "residue"):
            return self.payload
        if self.is_zero():
            return 0
        if len(self.payload) == 1:
            key, c = self.payload[0]
            degree_zero = key == 0 if r.kind == "laurent" else not any(key)
            if degree_zero:
                return c
        return None

    # -- arithmetic -----------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, RingElement):
            if other.ring is not self.ring and other.ring != self.ring:
                raise RingError(f"ring mismatch: {self.ring} vs {other.ring}")
            return other
        if isinstance(other, int):
            return self.ring.from_int(other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        r = self.ring
        if r.kind in ("integers", "residue"):
            return RingElement(r, r._coeff_norm(self.payload + other.payload))
        acc = dict(self.payload)
        for key, c in other.payload:
            acc[key] = r._coeff_norm(acc.get(key, 0) + c)
        return RingElement(r, acc)

    __radd__ = __add__

    def __neg__(self):
        r = self.ring
        if r.kind in ("integers", "residue"):
            return RingElement(r, r._coeff_norm(-self.payload))
        return RingElement(r, {k: r._coeff_norm(-c) for k, c in self.payload})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        r = self.ring
        if r.kind in ("integers", "residue"):
            return RingElement(r, r._coeff_norm(self.payload * other.payload))
        acc = {}
        poly = r.kind == "polynomial"
        for k1, c1 in self.payload:
            for k2, c2 in other.payload:
                key = tuple(a + b for a, b in zip(k1, k2)) if poly else k1 + k2
                acc[key] = r._coeff_norm(acc.get(key, 0) + c1 * c2)
        return RingElement(r, acc)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            inv = is_unit(self)
            if inv is None:
                raise RingError("negative power of a non-unit")
            return inv ** (-n)
        out = self.ring.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- comparison / hashing -------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.ring.from_int(other)
        if not isinstance(other, RingElement):
            return NotImplemented
        return (self.ring is other.ring or self.ring == other.ring) \
            and self.payload == other.payload

    def __hash__(self):
        if self._hash is None:
            object.__setattr__(self, "_hash", hash((self.ring, self.payload)))
        return self._hash

    def __repr__(self):
        return f"<{render(self)} in {self.ring}>"


def renormalize(x: RingElement) -> RingElement:
    """Rebuild the canonical payload; the identity on canonical elements."""
    r = x.ring
    if r.kind in ("integers", "residue"):
        return RingElement(r, r._coeff_norm(x.payload))
    return RingElement(r, {k: r._coeff_norm(c) for k, c in x.payload})


# ---------------------------------------------------------------------------
# Units
# ---------------------------------------------------------------------------

def _inverse_mod(a: int, m: int) -> Optional[int]:
    g, s, _ = _ext_gcd(a % m, m)
    if g != 1:
        return None
    return s % m


def _ext_gcd(a: int, b: int):
    """(g, s, t) with s*a + t*b = g = gcd(a, b), g >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def is_unit(x: RingElement) -> Optional[RingElement]:
    """Return the inverse of x if x is a unit, else None.

    Covers: Z (only ±1); Z/m via extended Euclid; polynomial rings
    (unit constants, plus nilpotent higher coefficients when the
    coefficient modulus is composite); Laurent rings (c*u^k with c a unit
    coefficient).  Over a composite coefficient modulus a Laurent unit can
    in principle mix monomials from different prime factors; such exotic
    units are not recognized here and get None.
    """
    r = x.ring
    if r.kind == "integers":
        if x.payload in (1, -1):
            return x
        return None
    if r.kind == "residue":
        inv = _inverse_mod(x.payload, r.modulus)
        return None if inv is None else RingElement(r, inv)
    if r.kind == "polynomial":
        if x.is_zero():
            return None
        const = x.constant_value()
        if const is not None:
            if r.coeff_kind == "integers":
                return x if const in (1, -1) else None
            inv = _inverse_mod(const, r.coeff_modulus)
            return None if inv is None else r.from_int(inv)
        if r.coeff_kind == "residue":
            zero_key = (0,) * len(r.variables)
            c0 = dict(x.payload).get(zero_key, 0)
            inv0 = _inverse_mod(c0, r.coeff_modulus)
            if inv0 is None:
                return None
            # c is nilpotent mod m iff c^e = 0 for e >= every prime
            # exponent of m, and those are below m.bit_length()
            m = r.coeff_modulus
            if any(pow(c, m.bit_length(), m) for k, c in x.payload if k != zero_key):
                return None
            # Newton iteration; converges because 1 - x*g is nilpotent.
            g = r.from_int(inv0)
            one = r.one()
            for _ in range(64):
                err = one - x * g
                if err.is_zero():
                    return g
                g = g + g * err
            return None
        return None
    # laurent
    if len(x.payload) == 1:
        k, c = x.payload[0]
        if r.coeff_kind == "integers":
            if c in (1, -1):
                return RingElement(r, ((-k, c),))
            return None
        cinv = _inverse_mod(c, r.coeff_modulus)
        if cinv is not None:
            return RingElement(r, ((-k, cinv),))
        return None
    return None


# ---------------------------------------------------------------------------
# Bezout witnesses
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BezoutWitness:
    """Coefficients c with sum(c_i * a_i) = 1 for an associated vector a."""

    coefficients: tuple

    def check(self, vector) -> bool:
        ring = self.coefficients[0].ring
        total = ring.zero()
        for c, a in zip(self.coefficients, vector):
            total = total + c * a
        return total.is_one()


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

def render(x: RingElement) -> str:
    """Canonical printer; parse_element(ring, render(x)) == x."""
    r = x.ring
    if r.kind in ("integers", "residue"):
        return str(x.payload)
    if x.is_zero():
        return "0"
    parts = []
    for key, c in sorted(x.payload, key=_term_order(r), reverse=True):
        body = _render_monomial(r, key)
        if body:
            if c == 1:
                term = body
            elif c == -1:
                term = f"-{body}"
            else:
                term = f"{c}*{body}"
        else:
            term = str(c)
        parts.append(term)
    out = parts[0]
    for term in parts[1:]:
        if term.startswith("-"):
            out += " - " + term[1:]
        else:
            out += " + " + term
    return out


def _term_order(r: RingDescriptor):
    if r.kind == "laurent":
        return lambda item: item[0]
    # graded lexicographic in the declared variable order
    return lambda item: (sum(item[0]), item[0])


def _render_monomial(r: RingDescriptor, key) -> str:
    if r.kind == "laurent":
        k = key
        name = r.variables[0]
        if k == 0:
            return ""
        if k == 1:
            return name
        return f"{name}^{k}"
    factors = []
    for name, e in zip(r.variables, key):
        if e == 0:
            continue
        factors.append(name if e == 1 else f"{name}^{e}")
    return "*".join(factors)


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

# Parentheses nest at most this deep: each level costs the parser four
# stack frames, and deeper input would overflow the recursion limit.
MAX_NESTING_DEPTH = 100

# `b^e` multiplies out a base b that is not a lone variable, so its result
# is bounded first: T terms (per variable, e times b's exponent span plus
# one) of B coefficient bits (over Z, e*bitlen(|b|_1 - 1) + 1, since
# |b^e|_1 <= |b|_1^e; over Z/m, bitlen(m)).  T*T*B above this is refused.
MAX_POWER_WORK = 1 << 24


def _power_work(base: RingElement, e: int) -> int:
    r = base.ring
    if r.kind in ("integers", "residue"):
        terms, coeffs = 1, [base.payload]
    else:
        keys = [k if r.kind == "polynomial" else (k,) for k, _ in base.payload]
        terms = math.prod(e * (max(x) - min(x)) + 1 for x in zip(*keys))
        coeffs = [c for _, c in base.payload]
    modulus = r.modulus or r.coeff_modulus
    bits = (modulus.bit_length() if modulus
            else e * max(sum(map(abs, coeffs)) - 1, 0).bit_length() + 1)
    return terms * terms * bits


class _Parser:
    """Recursive descent over: integers, variables, + - * ^ and parentheses.

    Laurent rings additionally allow negative exponents like u^-2.
    """

    def __init__(self, ring: RingDescriptor, text: str):
        self.ring = ring
        self.text = text
        self.pos = 0
        self.depth = 0

    def parse(self) -> RingElement:
        value = self.expr()
        self.skip_ws()
        if self.pos != len(self.text):
            raise ParseError("unexpected trailing input", self.pos)
        return value

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expr(self) -> RingElement:
        ch = self.peek()
        if ch == "-":
            self.pos += 1
            value = -self.term()
        else:
            if ch == "+":
                self.pos += 1
            value = self.term()
        while True:
            ch = self.peek()
            if ch == "+":
                self.pos += 1
                value = value + self.term()
            elif ch == "-":
                self.pos += 1
                value = value - self.term()
            else:
                return value

    def term(self) -> RingElement:
        value = self.power()
        while self.peek() == "*":
            self.pos += 1
            value = value * self.power()
        return value

    def power(self) -> RingElement:
        base_pos = self.pos
        base_name, base = self.atom()
        if self.peek() == "^":
            self.pos += 1
            exp = self.exponent()
            if base_name is not None:
                return self.ring.variable(base_name, exp)
            if exp < 0:
                raise ParseError("negative exponent outside a Laurent ring", base_pos)
            if _power_work(base, exp) > MAX_POWER_WORK:
                raise ParseError(
                    "power beyond the size limit 2^24 (MAX_POWER_WORK)", base_pos)
            return base ** exp
        return base

    def atom(self):
        """Returns (variable_name or None, value)."""
        self.skip_ws()
        if self.pos >= len(self.text):
            raise ParseError("unexpected end of input", self.pos)
        ch = self.text[self.pos]
        if ch == "(":
            self.depth += 1
            if self.depth > MAX_NESTING_DEPTH:
                raise ParseError(f"nesting deeper than {MAX_NESTING_DEPTH}", self.pos)
            self.pos += 1
            value = self.expr()
            if self.peek() != ")":
                raise ParseError("expected ')'", self.pos)
            self.pos += 1
            self.depth -= 1
            return None, value
        if ch.isdigit():
            start = self.pos
            while self.pos < len(self.text) and self.text[self.pos].isdigit():
                self.pos += 1
            return None, self.ring.from_int(int(self.text[start:self.pos]))
        if ch.isalpha():
            start = self.pos
            while self.pos < len(self.text) and (self.text[self.pos].isalnum()):
                self.pos += 1
            name = self.text[start:self.pos]
            if self.ring.kind not in ("polynomial", "laurent") \
                    or name not in self.ring.variables:
                raise ParseError(f"unknown variable {name!r}", start)
            return name, self.ring.variable(name)
        raise ParseError(f"unexpected character {ch!r}", self.pos)

    def exponent(self) -> int:
        self.skip_ws()
        sign = 1
        start = self.pos
        if self.pos < len(self.text) and self.text[self.pos] == "-":
            if self.ring.kind != "laurent":
                raise ParseError("negative exponent outside a Laurent ring", self.pos)
            sign = -1
            self.pos += 1
        digits_start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == digits_start:
            raise ParseError("expected an exponent", start)
        return sign * int(self.text[digits_start:self.pos])


def parse_element(ring: RingDescriptor, text: str) -> RingElement:
    if not isinstance(text, str):
        raise ParseError(f"an element is an expression string, got {text!r:.40}", 0)
    return _Parser(ring, text).parse()


# ---------------------------------------------------------------------------
# JSON descriptors
# ---------------------------------------------------------------------------

def descriptor_to_json(r: RingDescriptor):
    if r.kind == "integers":
        return "Z"
    if r.kind == "residue":
        return f"Z/{r.modulus}"
    coeff = "Z" if r.coeff_kind == "integers" else f"Z/{r.coeff_modulus}"
    if r.kind == "polynomial":
        return {"kind": "polynomial", "vars": list(r.variables), "coeff": coeff}
    return {"kind": "laurent", "var": r.variables[0], "coeff": coeff}


def descriptor_from_json(data) -> RingDescriptor:
    if isinstance(data, str):
        if data == "Z":
            return integers()
        m = re.match(r"Z/(\d+)$", data)
        if m:
            return residue(int(m.group(1)))
        raise RingError(f"bad ring descriptor {data!r}")
    kind = data.get("kind")
    if kind == "integers":
        return integers()
    if kind == "residue":
        return residue(int(data["modulus"]))
    coeff = descriptor_from_json(data.get("coeff", "Z"))
    if kind == "polynomial":
        return polynomial(data["vars"], coeff)
    if kind == "laurent":
        return laurent(data["var"], coeff)
    raise RingError(f"bad ring descriptor {data!r}")
