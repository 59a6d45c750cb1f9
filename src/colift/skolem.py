"""Conjugator recovery for matrix-algebra automorphisms at finite rank.

An automorphism of Mat_n over a field Z/p (or over Z, for exactness tests)
is determined by its values on the matrix units E_ij.  Given those values,
this module checks the algebra-automorphism invariants, recovers an
invertible U with phi = conjugation-by-U, and certifies that the center of
Mat_n consists exactly of the scalar matrices.  U is unique up to a central
unit.

Matrices here are dense tuples of Python ints (residues in [0, p) for Z/p),
so every check is exact at any modulus.  Validation multiplies O(n^2) pairs
of unit images, O(n^5) in all; recovery adds O(n^3), and its final check
conjugates every matrix unit, O(n^4).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Optional

from . import rings
from .rings import RingDescriptor, RingElement


class SkolemError(Exception):
    pass


class SpecInvariantError(SkolemError):
    """The unit images do not define an algebra automorphism."""


class ObstructionError(SkolemError):
    """The projector images are not free of rank one, so no single
    conjugator exists over this ring (only a locally trivial one)."""


def _check_ring(ring: RingDescriptor):
    if ring.kind == "integers":
        return
    if ring.kind == "residue":
        if ring.modulus >= rings.PRIME_TEST_BOUND:
            raise SkolemError(
                f"{ring}: primality is decided only for moduli below "
                f"{rings.PRIME_TEST_BOUND}")
        if rings._is_prime(ring.modulus):
            return
    raise SkolemError(
        f"conjugator recovery is implemented over Z and Z/p (prime); got {ring}")


# ---------------------------------------------------------------------------
# Small exact matrix helpers (ints; residues normalized mod p)
# ---------------------------------------------------------------------------

def _norm(ring, m):
    if ring.kind == "residue":
        p = ring.modulus
        return tuple(tuple(int(v) % p for v in row) for row in m)
    return tuple(tuple(int(v) for v in row) for row in m)


def _matmul(ring, a, b):
    cols = tuple(zip(*b))
    if ring.kind == "residue":
        p = ring.modulus
        return tuple(tuple(sum(map(mul, row, col)) % p for col in cols)
                     for row in a)
    return tuple(tuple(sum(map(mul, row, col)) for col in cols) for row in a)


def _identity(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def matrix_inverse(ring: RingDescriptor, m):
    """Exact inverse by Gauss-Jordan elimination: in residues over Z/p, in
    Fractions over Z, where the determinant must be a unit (+-1)."""
    n = len(m)
    if ring.kind == "residue":
        p = ring.modulus

        def red(v):
            return v % p

        def recip(v):
            return pow(v, -1, p)
    else:
        red = Fraction

        def recip(v):
            return 1 / v
    a = [[red(v) for v in row] + [red(int(i == j)) for j in range(n)]
         for i, row in enumerate(m)]
    det = red(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col]), None)
        if pivot is None:
            det = 0
            break
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            det = -det
        det = red(det * a[col][col])
        f = recip(a[col][col])
        a[col] = [red(v * f) for v in a[col]]
        for r in range(n):
            if r != col and a[r][col]:
                f = a[r][col]
                a[r] = [red(v - f * w) for v, w in zip(a[r], a[col])]
    if ring.kind == "residue":
        if not det:
            raise SkolemError("matrix is singular mod p")
    elif det not in (1, -1):
        raise SkolemError(f"determinant {det} is not a unit of Z")
    return tuple(tuple(int(v) for v in row[n:]) for row in a)


def conjugate_unit(ring, u, u_inv, i, j):
    """u * E_ij * u^-1, computed as an outer product of a column and a row."""
    n = len(u)
    if ring.kind == "residue":
        p = ring.modulus
        return tuple(tuple((u[r][i] * u_inv[j][c]) % p for c in range(n))
                     for r in range(n))
    return tuple(tuple(u[r][i] * u_inv[j][c] for c in range(n))
                 for r in range(n))


# ---------------------------------------------------------------------------
# Specs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AlgebraAutoSpec:
    """The values phi(E_ij) of an automorphism of Mat_n on all matrix units.

    Every image must be an n x n matrix of Python ints; images are stored
    normalized (residues in [0, p)) in row-major unit order."""

    n: int
    ring: RingDescriptor
    unit_images: tuple   # ((i, j, matrix), ...) in row-major unit order

    def image(self, i: int, j: int):
        return self._images[(i, j)]

    def __post_init__(self):
        n = self.n
        images = {}
        for i, j, m in self.unit_images:
            if not (0 <= i < n and 0 <= j < n):
                raise SkolemError(f"matrix unit ({i},{j}) is outside "
                                  f"0 <= i, j < {n}")
            images[(i, j)] = _checked_image(self.ring, n, i, j, m)
        if len(images) != n * n:
            raise SkolemError("need an image for every matrix unit")
        object.__setattr__(self, "_images", images)
        object.__setattr__(self, "unit_images", tuple(
            (i, j, m) for (i, j), m in sorted(images.items())))


def _checked_image(ring, n, i, j, m):
    """The normalized image m of E_ij; it must be n x n with int entries."""
    if (not isinstance(m, (list, tuple)) or len(m) != n
            or any(not isinstance(row, (list, tuple)) or len(row) != n
                   for row in m)):
        raise SkolemError(f"image of unit ({i},{j}) is not a {n}x{n} matrix")
    if any(type(v) is not int for row in m for v in row):
        raise SkolemError(f"image of unit ({i},{j}) has a non-integer entry")
    return _norm(ring, m)


def spec_from_conjugator(ring: RingDescriptor, u) -> AlgebraAutoSpec:
    """The spec of conjugation-by-u; the round-trip oracle for recovery."""
    _check_ring(ring)
    u = _norm(ring, u)
    n = len(u)
    u_inv = matrix_inverse(ring, u)
    images = tuple((i, j, conjugate_unit(ring, u, u_inv, i, j))
                   for i in range(n) for j in range(n))
    return AlgebraAutoSpec(n, ring, images)


@dataclass(frozen=True)
class Conjugator:
    """An invertible u with phi = conjugation-by-u on every matrix unit;
    unique up to a central unit (a scalar matrix)."""

    u: tuple
    ring: RingDescriptor
    scalar_ambiguity: str = ("determined up to multiplication by a central "
                             "unit (a unit scalar matrix)")


@dataclass(frozen=True)
class ValidationCheck:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple

    @property
    def passed(self):
        return all(c.passed for c in self.checks)

    def to_json(self):
        return [{"name": c.name, "passed": c.passed, "detail": c.detail}
                for c in self.checks]


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def central_scalar(m, ring: RingDescriptor) -> Optional[RingElement]:
    """The f with m = f * Id, if there is one.

    Equivalent to commuting with every matrix unit: all off-diagonal entries
    vanish and the diagonal is constant.
    """
    m = _norm(ring, m)
    n = len(m)
    f = m[0][0]
    for i in range(n):
        for j in range(n):
            if i == j:
                if m[i][j] != f:
                    return None
            elif m[i][j] != 0:
                return None
    return ring.from_int(f)


def _unit_relations_hold(ring, n, q) -> bool:
    """Whether the images q[(i, j)] satisfy the generating relations of the
    matrix-unit multiplication table, 2n^2 products:

        e_0i e_j0 = delta_ij e_00,    e_i0 e_0j = e_ij.

    Each is an entry of the full table, and together they give all of it:
    e_ij e_kl = e_i0 (e_0j e_k0) e_0l = delta_jk (e_i0 e_00) e_0l
    = delta_jk e_i0 e_0l = delta_jk e_il, by the second family at j = 0
    and then at j = l.
    """
    if n == 0:
        return True
    zero = ((0,) * n,) * n
    e00 = q[(0, 0)]
    col = [q[(i, 0)] for i in range(n)]
    row = [q[(0, j)] for j in range(n)]
    return (all(_matmul(ring, row[i], col[j]) == (e00 if i == j else zero)
                for i in range(n) for j in range(n))
            and all(_matmul(ring, col[i], row[j]) == q[(i, j)]
                    for i in range(n) for j in range(n)))


def validate_auto_spec(spec: AlgebraAutoSpec) -> ValidationReport:
    """Per-invariant report: idempotence, orthogonality, completeness, and
    the matrix-unit multiplication table (checked through its generating
    relations, see `_unit_relations_hold`)."""
    n, ring = spec.n, spec.ring
    q = spec._images
    diag = [q[(i, i)] for i in range(n)]
    zero = ((0,) * n,) * n
    mult = _unit_relations_hold(ring, n, q)
    # The table gives e_ii e_jj = delta_ij e_ii, so a preserved table implies
    # idempotence and orthogonality; they are only computed when it fails.
    idem = mult or all(_matmul(ring, d, d) == d for d in diag)
    orth = mult or all(_matmul(ring, diag[i], diag[j]) == zero
                       for i in range(n) for j in range(n) if i != j)
    total = _norm(ring, [[sum(d[r][c] for d in diag) for c in range(n)]
                         for r in range(n)])
    comp = total == _identity(n)
    checks = []
    checks.append(ValidationCheck(
        "idempotence", idem,
        "each projector image squares to itself" if idem
        else "some projector image is not idempotent"))
    checks.append(ValidationCheck(
        "orthogonality", orth,
        "projector images are pairwise orthogonal" if orth
        else "some pair of projector images has nonzero product"))
    checks.append(ValidationCheck(
        "completeness", comp,
        "projector images sum to the identity" if comp
        else "projector images do not sum to the identity"))
    checks.append(ValidationCheck(
        "unit_multiplication", mult,
        "matrix-unit multiplication table is preserved" if mult
        else "multiplication table of unit images is wrong"))
    return ValidationReport(tuple(checks))


def _rank_one_generator(ring, q, index):
    """A generator of the column space of an idempotent q of rank one.

    Over a field: any nonzero column, normalized so its first nonzero entry
    is 1.  Over Z: the primitive vector obtained by dividing out the content
    (the image of an idempotent is a direct summand, so a primitive
    generator exists); failure reports the free-rank-one obstruction.
    """
    n = len(q)
    cols = [[q[i][j] for i in range(n)] for j in range(n)]
    col = next((c for c in cols if any(c)), None)
    if col is None:
        raise ObstructionError(
            f"projector image {index} is zero, not free of rank one")
    if ring.kind == "residue":
        p = ring.modulus
        lead = next(v for v in col if v % p)
        inv = pow(lead % p, p - 2, p)
        w = [(v * inv) % p for v in col]
    else:
        content = 0
        for v in col:
            content = math.gcd(content, v)
        w = [v // content for v in col]
        lead = next(v for v in w if v)
        if lead < 0:
            w = [-v for v in w]
    # every column must be a multiple of w, else the image has rank > 1
    for c in cols:
        if not _is_multiple(ring, c, w):
            raise ObstructionError(
                f"projector image {index} has rank > 1; its column space is "
                "not free of rank one")
    # w itself must lie in the image (q fixes its image)
    qw = _matvec(ring, q, w)
    if qw != w:
        raise ObstructionError(
            f"projector image {index} does not fix its normalized generator; "
            "its image is an invertible module that is not free")
    return w


def _matvec(ring, m, v):
    n = len(m)
    out = [sum(m[i][k] * v[k] for k in range(n)) for i in range(n)]
    if ring.kind == "residue":
        out = [x % ring.modulus for x in out]
    return out


def _is_multiple(ring, c, w):
    n = len(c)
    if not any(c):
        return True
    if ring.kind == "residue":
        p = ring.modulus
        i = next(i for i in range(n) if w[i] % p)
        factor = (c[i] * pow(w[i], p - 2, p)) % p
        return all((c[j] - factor * w[j]) % p == 0 for j in range(n))
    i = next(i for i in range(n) if w[i])
    if c[i] % w[i]:
        return False
    factor = c[i] // w[i]
    return all(c[j] == factor * w[j] for j in range(n))


def _scalar_inverse(ring, s):
    if ring.kind == "residue" and s:
        return pow(s, -1, ring.modulus)
    if ring.kind == "integers" and s in (1, -1):
        return s
    raise SpecInvariantError(f"residual scalar {s} is not a unit")


def recover_conjugator(spec: AlgebraAutoSpec,
                       report: Optional[ValidationReport] = None) -> Conjugator:
    """Recover u with phi = conjugation-by-u from the unit images.

    `report` is the spec's `validate_auto_spec` report, computed here when
    not given; a spec that fails it raises SpecInvariantError.

    Steps: pick a generator w_i of each projector image phi(E_ii); they are
    the columns of a first candidate U'.  The residual automorphism
    phi' = U'^-1 phi U' fixes every E_ii: phi(E_ii) w_i = w_i, and
    phi(E_ii) w_j = phi(E_ii) phi(E_jj) w_j = 0 for j != i by orthogonality.
    Hence phi'(E_ij) = E_ii phi'(E_ij) E_jj = s_ij E_ij for scalars s_ij,
    and the preserved multiplication table gives s_ii = 1, s_ij s_ji = 1
    (so each s_ij is a unit) and s_ij s_jk = s_ik, so s_ij = s_i0 / s_j0.
    With D = diag(s_00, ..., s_(n-1)0), D E_ij D^-1 = s_ij E_ij, so
    u = U' D conjugates every E_ij to phi(E_ij).  Only the n scalars s_i0
    are computed, each as row i of U'^-1 times phi(E_i0) times column 0 of
    U', and u^-1 = D^-1 U'^-1.  The final check conjugates every matrix
    unit and compares it with its image.
    """
    _check_ring(spec.ring)
    ring, n = spec.ring, spec.n
    if report is None:
        report = validate_auto_spec(spec)
    if not report.passed:
        failed = ", ".join(c.name for c in report.checks if not c.passed)
        raise SpecInvariantError(f"not an algebra automorphism: {failed} failed")

    generators = [_rank_one_generator(ring, spec.image(i, i), i)
                  for i in range(n)]
    u_prime = _norm(ring, zip(*generators))
    u_prime_inv = matrix_inverse(ring, u_prime)   # invertible since the images span
    col0 = [row[0] for row in u_prime]
    s = [sum(map(mul, u_prime_inv[i], _matvec(ring, spec.image(i, 0), col0)))
         for i in range(n)]
    s = [v % ring.modulus for v in s] if ring.kind == "residue" else s
    s_inv = [_scalar_inverse(ring, v) for v in s]
    u = _norm(ring, [[v * s[c] for c, v in enumerate(row)] for row in u_prime])
    u_inv = _norm(ring, [[t * v for v in row]
                         for t, row in zip(s_inv, u_prime_inv)])
    for i in range(n):
        for j in range(n):
            if conjugate_unit(ring, u, u_inv, i, j) != spec.image(i, j):
                raise SkolemError("final conjugation check failed at "
                                  f"unit ({i},{j})")
    return Conjugator(u, ring)


# ---------------------------------------------------------------------------
# JSON spec files
# ---------------------------------------------------------------------------

def spec_to_json(spec: AlgebraAutoSpec) -> dict:
    return {
        "n": spec.n,
        "ring": rings.descriptor_to_json(spec.ring),
        "images": {f"{i},{j}": [list(row) for row in m]
                   for i, j, m in spec.unit_images},
    }


def _unit_key(key):
    """(i, j) from an images key "i,j" of two decimal indices."""
    i, sep, j = key.partition(",")
    if sep and i.isdecimal() and j.isdecimal():
        return int(i), int(j)
    raise SkolemError(f"image key {key!r} is not \"i,j\"")


def spec_from_json(data) -> AlgebraAutoSpec:
    if not isinstance(data, dict):
        raise SkolemError("a conjugator spec is a JSON object with keys n, "
                          "ring and images")
    ring = rings.descriptor_from_json(data["ring"])
    n = data["n"]
    if type(n) is not int or n < 0:
        raise SkolemError(f"n must be a nonnegative integer, got {n!r}")
    images = data["images"]
    if not isinstance(images, dict):
        raise SkolemError("images must be an object mapping \"i,j\" to an "
                          "n x n matrix")
    return AlgebraAutoSpec(n, ring, tuple(
        (*_unit_key(key), m) for key, m in images.items()))
