"""Exact dense linear algebra over a ring, for small square blocks.

Inversion goes through the adjugate, which needs no division until the
final multiplication by the inverse of the determinant; this is exact over
every supported ring but is exponential in the block size, so blocks are
capped at a desk-scale bound.
"""

from __future__ import annotations

from . import rings
from .rings import RingDescriptor, RingElement

MAX_ADJUGATE_SIZE = 14


class NonInvertibleError(Exception):
    """Dense block with non-unit determinant."""

    def __init__(self, message: str, det=None, block_index=None):
        super().__init__(message)
        self.det = det
        self.block_index = block_index


class DenseSizeError(ValueError):
    """Dense block larger than MAX_ADJUGATE_SIZE."""

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


def from_ints(ring: RingDescriptor, rows):
    return [[ring.from_int(v) if isinstance(v, int) else v for v in row]
            for row in rows]


def mat_mul(a, b):
    n, k, m = len(a), len(b), len(b[0])
    zero = a[0][0].ring.zero()
    out = []
    for i in range(n):
        row = []
        ai = a[i]
        for j in range(m):
            acc = zero
            for t in range(k):
                if not ai[t].is_zero() and not b[t][j].is_zero():
                    acc = acc + ai[t] * b[t][j]
            row.append(acc)
        out.append(row)
    return out


def mat_vec(a, v):
    zero = a[0][0].ring.zero()
    out = []
    for row in a:
        acc = zero
        for x, y in zip(row, v):
            if not x.is_zero() and not y.is_zero():
                acc = acc + x * y
        out.append(acc)
    return out


def mat_eq(a, b) -> bool:
    return len(a) == len(b) and all(ra == rb for ra, rb in zip(a, b))


def mat_neg(a):
    return [[-x for x in row] for row in a]


def determinant(a) -> RingElement:
    """Determinant by expansion along remaining rows, memoized on column sets."""
    n = len(a)
    if n == 0:
        raise ValueError("empty matrix")
    _check_size(n)
    ring = a[0][0].ring
    return _det_rows(a, tuple(range(n)), tuple(range(n)), {}, ring)


def _det_rows(a, row_idx, col_idx, memo, ring):
    if not row_idx:
        return ring.one()
    key = (row_idx, col_idx)
    if key in memo:
        return memo[key]
    i = row_idx[0]
    rest_rows = row_idx[1:]
    acc = ring.zero()
    sign = 1
    for pos, j in enumerate(col_idx):
        entry = a[i][j]
        if not entry.is_zero():
            sub = _det_rows(a, rest_rows, col_idx[:pos] + col_idx[pos + 1:], memo, ring)
            term = entry * sub
            acc = acc + (term if sign > 0 else -term)
        sign = -sign
    memo[key] = acc
    return acc


def adjugate_inverse(a, block_index=None):
    """Exact inverse of a square block whose determinant is a unit.

    Raises NonInvertibleError (carrying the determinant and the offending
    block index) otherwise.
    """
    n = len(a)
    _check_size(n, block_index)
    ring = a[0][0].ring
    det = determinant(a)
    det_inv = rings.is_unit(det)
    if det_inv is None:
        where = "" if block_index is None else f" (block {block_index})"
        raise NonInvertibleError(
            f"determinant {rings.render(det)} is not a unit of {ring}{where}",
            det=det, block_index=block_index)
    if n == 1:
        return [[det_inv]]
    memo = {}
    rows = tuple(range(n))
    cols = tuple(range(n))
    out = [[None] * n for _ in range(n)]
    for i in range(n):
        sub_rows = rows[:i] + rows[i + 1:]
        for j in range(n):
            sub_cols = cols[:j] + cols[j + 1:]
            minor = _det_rows(a, sub_rows, sub_cols, memo, ring)
            cof = minor if (i + j) % 2 == 0 else -minor
            out[j][i] = cof * det_inv        # adjugate transposes indices
    return out
