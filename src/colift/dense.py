"""Exact dense linear algebra over a ring, for small square blocks.

Determinants come from Berkowitz's division-free characteristic polynomial
(S. J. Berkowitz, IPL 18, 1984): O(n^4) ring operations, exact over every
supported ring, zero divisors included.  The inverse is the Cayley-Hamilton
adjugate times the inverse of the determinant, the only division.
Non-diagonal blocks are capped at MAX_ADJUGATE_SIZE, which bounds the work
on hostile inputs; diagonal blocks invert entrywise at any size.
"""

from __future__ import annotations

from math import isqrt

from . import rings
from .rings import RingDescriptor, RingElement

MAX_ADJUGATE_SIZE = 32


class NonInvertibleError(Exception):
    """Dense block with non-unit determinant."""

    def __init__(self, message: str, det=None, block_index=None):
        super().__init__(message)
        self.det = det
        self.block_index = block_index


class DenseSizeError(ValueError):
    """Non-diagonal dense block larger than MAX_ADJUGATE_SIZE."""

    def __init__(self, message: str, block_index=None):
        super().__init__(message)
        self.block_index = block_index


def _check_size(n: int, block_index=None):
    if n > MAX_ADJUGATE_SIZE:
        where = "dense block" if block_index is None else f"block {block_index}"
        raise DenseSizeError(
            f"{where} is {n}x{n}; dense determinants are capped at "
            f"{MAX_ADJUGATE_SIZE}x{MAX_ADJUGATE_SIZE}", block_index=block_index)


def identity(ring: RingDescriptor, n: int):
    one, zero = ring.one(), ring.zero()
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def _dot(u, v, zero):
    """Sum of u[i] * v[i] over the shorter of u and v, skipping zeros."""
    acc = zero
    for x, y in zip(u, v):
        if not x.is_zero() and not y.is_zero():
            acc = acc + x * y
    return acc


def mat_mul(a, b):
    zero = a[0][0].ring.zero()
    cols = list(zip(*b))
    return [[_dot(row, col, zero) for col in cols] for row in a]


def _char_poly(a):
    """Coefficients [1, c1, ..., cn] of det(xI - A), by Berkowitz: bordering
    the leading r x r block M by the column C, the row R and the entry d
    multiplies its coefficients by the lower-triangular Toeplitz matrix with
    first column (1, -d, -RC, -RMC, ..., -RM^(r-1)C)."""
    ring = a[0][0].ring
    zero, poly = ring.zero(), [ring.one()]
    for r in range(len(a)):
        toeplitz, v = [ring.one(), -a[r][r]], [a[i][r] for i in range(r)]
        for k in range(r):
            if k:       # zip stops at len(v) == r: row a[i] acts as row i of M
                v = [_dot(a[i], v, zero) for i in range(r)]
            toeplitz.append(-_dot(a[r], v, zero))
        poly = [_dot(toeplitz[i::-1], poly, zero) for i in range(r + 2)]
    return poly


def _matrix_poly(coeffs, a):
    """Sum of coeffs[k] * A^k by Paterson and Stockmeyer: Horner in A^s over
    chunks of s ~ sqrt(len(coeffs)) coefficients, about 2s block products."""
    n, zero = len(a), a[0][0].ring.zero()
    s = isqrt(len(coeffs) - 1) + 1
    powers = [identity(zero.ring, n), a]
    while len(powers) <= s:
        powers.append(mat_mul(powers[-1], a))
    out = [[zero] * n for _ in range(n)]
    for start in reversed(range(0, len(coeffs), s)):
        if start + s < len(coeffs):
            out = mat_mul(out, powers[s])
        for c, power in zip(coeffs[start:start + s], powers):
            out = [[o if v.is_zero() else o + c * v for o, v in zip(row, prow)]
                   for row, prow in zip(out, power)]
    return out


def determinant(a) -> RingElement:
    """Determinant (-1)^n * cn of an n x n block, n >= 1, from Berkowitz's
    characteristic polynomial."""
    n = len(a)
    if n == 0:
        raise ValueError("empty matrix")
    _check_size(n)
    c = _char_poly(a)[n]
    return c if n % 2 == 0 else -c


def diagonal_inverse(entries, block_index=None) -> list:
    """The inverses of the diagonal entries of a diagonal block; raises
    NonInvertibleError (carrying the offending entry and the block index)
    at the first entry that is not a unit."""
    out = []
    for i, d in enumerate(entries):
        v = rings.is_unit(d)
        if v is None:
            where = "" if block_index is None else f" (block {block_index})"
            raise NonInvertibleError(
                f"diagonal entry {rings.render(d)} at {i} is not a unit{where}",
                det=d, block_index=block_index)
        out.append(v)
    return out


def adjugate_inverse(a, block_index=None):
    """Exact inverse of a square block whose determinant is a unit.

    A diagonal block is inverted entrywise, at any size; a 0x0 block is its
    own inverse.  Any other block is inverted through Cayley-Hamilton,
    adj(A) = (-1)^(n-1) (A^(n-1) + c1 A^(n-2) + ... + c(n-1) I), times the
    inverse of the determinant.  Raises NonInvertibleError (carrying the
    determinant or the offending diagonal entry, and the block index)
    otherwise.
    """
    n = len(a)
    if n == 0:
        return []
    ring = a[0][0].ring
    if all(a[i][j].is_zero() for i in range(n) for j in range(n) if i != j):
        inv = diagonal_inverse([a[i][i] for i in range(n)], block_index)
        return [[inv[i] if i == j else ring.zero() for j in range(n)]
                for i in range(n)]
    _check_size(n, block_index)
    poly = _char_poly(a)
    det = poly[n] if n % 2 == 0 else -poly[n]
    det_inv = rings.is_unit(det)
    if det_inv is None:
        where = "" if block_index is None else f" (block {block_index})"
        raise NonInvertibleError(
            f"determinant {rings.render(det)} is not a unit of {ring}{where}",
            det=det, block_index=block_index)
    adj = _matrix_poly(poly[n - 1::-1], a)
    scale = det_inv if n % 2 == 1 else -det_inv      # (-1)^(n-1) / det
    return [[v * scale for v in row] for row in adj]
