"""Structured, lazily evaluated column-finite N x N matrices over a ring.

Every supported form guarantees finite column support structurally.  Columns
are exact sparse maps {row: element}; the top-left n x n window is the
verification surface.  Equality of general lazy matrices is undecidable, so
exact equality is only decided for forms that normalize to an eventually
periodic block-diagonal shape, on a window whose size makes the check a
proof: two such matrices with corner offsets o1, o2 and tail periods p1, p2
agree everywhere iff they agree on the square window of size
max(o1, o2) + 2*lcm(p1, p2).  Everything else is an explicit
"equal on window n" assertion.

Matrices are immutable; product columns are memoized in a per-object dict
that is safe for concurrent readers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from . import dense, rings
from .dense import NonInvertibleError
from .rings import RingDescriptor, RingElement, RingError


class MatrixFormError(Exception):
    """Structurally invalid matrix description."""


class NotEventuallyPeriodicError(Exception):
    """Operand does not normalize to an eventually periodic form."""


# ---------------------------------------------------------------------------
# Index sets and bijections
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FiniteIndexSet:
    members: frozenset

    def __contains__(self, j: int) -> bool:
        return j in self.members


@dataclass(frozen=True)
class EventuallyPeriodicIndexSet:
    """head holds explicit members below offset; at and beyond offset,
    membership is (j - offset) % period in residues."""

    head: frozenset
    offset: int
    period: int
    residues: frozenset

    def __contains__(self, j: int) -> bool:
        if j < self.offset:
            return j in self.head
        return (j - self.offset) % self.period in self.residues


@dataclass(frozen=True)
class FinitePermutation:
    """A bijection of N moving only finitely many indices."""

    mapping: tuple  # ((i, sigma(i)), ...) for the moved indices only

    def __post_init__(self):
        m = dict(self.mapping)
        if set(m) != set(m.values()):
            raise MatrixFormError("finite permutation mapping is not a bijection")
        object.__setattr__(self, "_forward", m)
        object.__setattr__(self, "_inverse", {v: k for k, v in m.items()})

    def __call__(self, j: int) -> int:
        return self._forward.get(j, j)

    def inverse_apply(self, j: int) -> int:
        return self._inverse.get(j, j)

    def inverted(self) -> "FinitePermutation":
        return FinitePermutation(tuple(sorted((v, k) for k, v in self.mapping)))

    def moved_bound(self) -> int:
        return 1 + max((max(k, v) for k, v in self.mapping), default=-1)


@dataclass(frozen=True)
class BlockPeriodicPermutation:
    """Identity below offset; beyond it, applies a fixed permutation of the
    residues within each consecutive period-sized block."""

    offset: int
    period: int
    residue_images: tuple  # residue_images[r] = image residue

    def __post_init__(self):
        if sorted(self.residue_images) != list(range(self.period)):
            raise MatrixFormError("residue images are not a permutation")
        inv = [0] * self.period
        for r, s in enumerate(self.residue_images):
            inv[s] = r
        object.__setattr__(self, "_inverse_images", tuple(inv))

    def __call__(self, j: int) -> int:
        if j < self.offset:
            return j
        q, r = divmod(j - self.offset, self.period)
        return self.offset + q * self.period + self.residue_images[r]

    def inverse_apply(self, j: int) -> int:
        if j < self.offset:
            return j
        q, r = divmod(j - self.offset, self.period)
        return self.offset + q * self.period + self._inverse_images[r]

    def inverted(self) -> "BlockPeriodicPermutation":
        return BlockPeriodicPermutation(self.offset, self.period, self._inverse_images)

    def moved_bound(self) -> int:
        return self.offset


# ---------------------------------------------------------------------------
# Matrix forms
# ---------------------------------------------------------------------------

class ColFinMatrix:
    """Base class; subclasses provide exact sparse columns."""

    ring: RingDescriptor
    form: str

    def column(self, j: int) -> dict:
        raise NotImplementedError

    def apply_to(self, vec: dict) -> dict:
        """Matrix-vector product for a finite-support vector."""
        out = {}
        for j, c in vec.items():
            if c.is_zero():
                continue
            for i, v in self.column(j).items():
                acc = out.get(i)
                acc = v * c if acc is None else acc + v * c
                if acc.is_zero():
                    out.pop(i, None)
                else:
                    out[i] = acc
        return out

    def map_entries(self, h) -> "ColFinMatrix":
        raise NotImplementedError

    def support_bound(self, j: int) -> int:
        """An index B with column(j) supported in [0, B)."""
        raise NotImplementedError

    def entry(self, i: int, j: int) -> RingElement:
        return self.column(j).get(i, self.ring.zero())

    def __repr__(self):
        return f"<{self.form} matrix over {self.ring}>"


class Identity(ColFinMatrix):
    form = "identity"

    def __init__(self, ring: RingDescriptor):
        self.ring = ring

    def column(self, j):
        return {j: self.ring.one()}

    def apply_to(self, vec):
        return dict(vec)

    def map_entries(self, h):
        return Identity(h.target)

    def support_bound(self, j):
        return j + 1


def _minimal_cycle(cycle: tuple) -> tuple:
    """The shortest prefix of `cycle` whose repetition is `cycle`; entries
    share one ring, so comparing payloads compares the elements."""
    n = len(cycle)
    keys = [d.payload for d in cycle]
    for p in range(1, n):
        if n % p == 0 and keys[p:] == keys[:-p]:
            return cycle[:p]
    return cycle


class ScalarDiagonal(ColFinMatrix):
    """diag(prefix..., c_0, ..., c_{p-1}, c_0, ..., c_{p-1}, ...).

    `tail` is one element (period 1) or a sequence of elements repeated
    forever; the stored cycle is reduced to its minimal period.  The
    `tail` attribute gives back the single element when the period is 1
    and the cycle tuple otherwise.
    """

    form = "scalar_diagonal"

    def __init__(self, ring, prefix, tail):
        self.ring = ring
        self.prefix = tuple(prefix)
        cycle = (tail,) if isinstance(tail, RingElement) else tuple(tail)
        if not cycle:
            raise MatrixFormError("scalar diagonal tail cycle is empty")
        self.tail_cycle = _minimal_cycle(cycle)
        self.period = len(self.tail_cycle)

    @property
    def tail(self):
        return self.tail_cycle[0] if self.period == 1 else self.tail_cycle

    def tail_is_one(self) -> bool:
        return self.period == 1 and self.tail_cycle[0].is_one()

    def diagonal_entry(self, j: int) -> RingElement:
        n = len(self.prefix)
        return self.prefix[j] if j < n else self.tail_cycle[(j - n) % self.period]

    def column(self, j):
        d = self.diagonal_entry(j)
        return {} if d.is_zero() else {j: d}

    def map_entries(self, h):
        return ScalarDiagonal(h.target, tuple(h.apply(d) for d in self.prefix),
                              tuple(h.apply(d) for d in self.tail_cycle))

    def support_bound(self, j):
        return j + 1


class FinitePerturbation(ColFinMatrix):
    """diag(corner, Id) for a dense square corner."""

    form = "finite_perturbation"

    def __init__(self, ring, corner):
        self.ring = ring
        self.corner = tuple(tuple(row) for row in corner)
        n = len(self.corner)
        if any(len(row) != n for row in self.corner):
            raise MatrixFormError("corner must be square")
        self.size = n

    def column(self, j):
        if j >= self.size:
            return {j: self.ring.one()}
        return {i: self.corner[i][j] for i in range(self.size)
                if not self.corner[i][j].is_zero()}

    def map_entries(self, h):
        return FinitePerturbation(
            h.target, [[h.apply(v) for v in row] for row in self.corner])

    def support_bound(self, j):
        return max(self.size, j + 1)


class BlockDiagonal(ColFinMatrix):
    """diag(prefix blocks..., tail, tail, ...); tail None means identity."""

    form = "block_diagonal"

    def __init__(self, ring, prefix_blocks, tail_block):
        self.ring = ring
        self.prefix_blocks = tuple(tuple(tuple(r) for r in blk) for blk in prefix_blocks)
        self.tail_block = (tuple(tuple(r) for r in tail_block)
                           if tail_block is not None else None)
        for blk in self.prefix_blocks + ((self.tail_block,) if self.tail_block else ()):
            if any(len(row) != len(blk) for row in blk):
                raise MatrixFormError("blocks must be square")
        starts = []
        pos = 0
        for blk in self.prefix_blocks:
            starts.append(pos)
            pos += len(blk)
        self.prefix_end = pos
        self.block_starts = tuple(starts)
        self.period = len(self.tail_block) if self.tail_block else 1

    def _locate(self, j: int):
        """(block, start) containing column j, or (None, j) in an identity tail."""
        if j >= self.prefix_end:
            if self.tail_block is None:
                return None, j
            off = (j - self.prefix_end) % self.period
            return self.tail_block, j - off
        for start, blk in zip(reversed(self.block_starts),
                              reversed(self.prefix_blocks)):
            if j >= start:
                return blk, start
        raise AssertionError

    def column(self, j):
        blk, start = self._locate(j)
        if blk is None:
            return {j: self.ring.one()}
        c = j - start
        return {start + i: blk[i][c] for i in range(len(blk))
                if not blk[i][c].is_zero()}

    def map_entries(self, h):
        mp = lambda blk: [[h.apply(v) for v in row] for row in blk]
        return BlockDiagonal(h.target, [mp(b) for b in self.prefix_blocks],
                             mp(self.tail_block) if self.tail_block else None)

    def support_bound(self, j):
        blk, start = self._locate(j)
        return j + 1 if blk is None else start + len(blk)


@dataclass(frozen=True)
class ColumnFamily:
    """Periodic family of elementary columns: for t >= 0, column
    start + t*period carries entries at rows (column + offset) for each
    (offset, value) pair."""

    start: int
    period: int
    entries: tuple  # ((rel_offset, RingElement), ...)

    def covers(self, j: int) -> bool:
        return j >= self.start and (j - self.start) % self.period == 0


class Elementary(ColFinMatrix):
    """id + M with the columns of M indexed by a set J and supported in rows
    outside J; always invertible with inverse id - M.

    Families are indexed by period, then by start % period, so a column
    looks up one bucket per distinct period instead of scanning them all.
    """

    form = "elementary"

    def __init__(self, ring, head_cols=None, families=()):
        self.ring = ring
        cols = {}
        for j, col in (head_cols or {}).items():
            kept = {i: v for i, v in col.items() if not v.is_zero()}
            if kept:
                cols[j] = kept
        self.head_cols = cols
        fams = []
        for fam in families:
            entries = tuple((off, v) for off, v in fam.entries if not v.is_zero())
            if entries:
                if fam.period < 1:
                    raise MatrixFormError("column family period must be positive")
                fams.append(ColumnFamily(fam.start, fam.period, entries))
        self.families = tuple(fams)
        buckets = {}          # period -> {start % period: [families]}
        for fam in self.families:
            buckets.setdefault(fam.period, {}).setdefault(
                fam.start % fam.period, []).append(fam)
        self._validate(buckets)
        # after validation every bucket holds exactly one family
        self._buckets = tuple((p, {r: fs[0] for r, fs in by_res.items()})
                              for p, by_res in buckets.items())

    def index_set(self):
        """J as an index-set value: finite when there are no families, else
        eventually periodic with the families' progressions as residues."""
        head = frozenset(self.head_cols)
        if not self.families:
            return FiniteIndexSet(head)
        period = 1
        for f in self.families:
            period = period * f.period // math.gcd(period, f.period)
        offset = max(f.start for f in self.families)
        offset += (-offset) % period
        residues = set()
        below = set(head)
        for f in self.families:
            residues.update((f.start - offset) % f.period + k * f.period
                            for k in range(period // f.period))
            below.update(c for c in range(f.start, offset) if f.covers(c))
        return EventuallyPeriodicIndexSet(frozenset(below), offset, period,
                                          frozenset(residues))

    def _validate(self, buckets):
        """Rows of every column avoid the column set J.  Linear in the
        families that share a period; only distinct periods are compared
        pairwise (two progressions meet iff their starts agree modulo the
        gcd of their periods)."""
        head = self.head_cols
        # per period and residue, the largest head column: "some head column
        # j >= x with j = x mod p" becomes one lookup
        head_top = {}
        for p in buckets:
            top = head_top[p] = {}
            for j in head:
                r = j % p
                if r not in top or top[r] < j:
                    top[r] = j
        # per period p, for every other period q: (gcd(p, q), start residues
        # of the q-families modulo that gcd)
        cross = {p: [(g, {f.start % g for fs in buckets[q].values() for f in fs})
                     for q in buckets if q != p
                     for g in (math.gcd(p, q),)]
                 for p in buckets}

        for j, col in head.items():
            for i in col:
                if i < 0 or i == j or i in head or any(
                        f.start <= i for p, by_res in buckets.items()
                        for f in by_res.get(i % p, ())):
                    raise MatrixFormError(
                        f"elementary row {i} of column {j} lies inside the column set")
        for fam in self.families:
            p = fam.period
            top = head_top[p]
            if len(buckets[p][fam.start % p]) > 1 or any(
                    fam.start % g in starts for g, starts in cross[p]):
                raise MatrixFormError("overlapping column families")
            if top.get(fam.start % p, fam.start - 1) >= fam.start:
                raise MatrixFormError("family columns meet a head column")
            for off, _ in fam.entries:
                if off == 0:
                    raise MatrixFormError("elementary diagonal perturbation")
                if fam.start + off < 0:
                    raise MatrixFormError("elementary row index below zero")
                # rows start+off + t*period must avoid every column progression
                row0 = fam.start + off
                if row0 % p in buckets[p] or any(
                        row0 % g in starts for g, starts in cross[p]):
                    raise MatrixFormError(
                        "elementary family rows meet a column progression")
                if top.get(row0 % p, row0 - 1) >= row0:
                    raise MatrixFormError(
                        "elementary family rows meet a head column")

    def column(self, j):
        out = {j: self.ring.one()}
        col = self.head_cols.get(j)
        if col:
            out.update(col)
        for period, by_res in self._buckets:
            fam = by_res.get(j % period)
            if fam is not None and j >= fam.start:
                for off, v in fam.entries:
                    out[j + off] = v
        return out

    def negated(self) -> "Elementary":
        return Elementary(
            self.ring,
            {j: {i: -v for i, v in col.items()} for j, col in self.head_cols.items()},
            [ColumnFamily(f.start, f.period, tuple((o, -v) for o, v in f.entries))
             for f in self.families])

    def map_entries(self, h):
        return Elementary(
            h.target,
            {j: {i: h.apply(v) for i, v in col.items()}
             for j, col in self.head_cols.items()},
            [ColumnFamily(f.start, f.period,
                          tuple((o, h.apply(v)) for o, v in f.entries))
             for f in self.families])

    def support_bound(self, j):
        bound = j + 1
        col = self.head_cols.get(j)
        if col:
            bound = max(bound, max(col) + 1)
        for fam in self.families:
            if fam.covers(j):
                bound = max(bound, max(j + off for off, _ in fam.entries) + 1)
        return bound


class Permutation(ColFinMatrix):
    """Sends basis vector e_j to e_{sigma(j)}; entries are 0 and 1."""

    form = "permutation"

    def __init__(self, ring, bijection):
        self.ring = ring
        self.bijection = bijection

    def column(self, j):
        return {self.bijection(j): self.ring.one()}

    def apply_to(self, vec):
        return {self.bijection(j): c for j, c in vec.items()}

    def map_entries(self, h):
        return Permutation(h.target, self.bijection)

    def support_bound(self, j):
        return self.bijection(j) + 1


class ProductMatrix(ColFinMatrix):
    """An explicit factor word; the product of the factors in listed order.

    Columns are computed right to left through the factors, which stays
    exact because every factor is column-finite.
    """

    form = "product"

    def __init__(self, ring, factors):
        self.ring = ring
        flat = []
        for f in factors:
            if f.ring != ring:
                raise RingError("product factors must share the ring")
            if isinstance(f, ProductMatrix):
                flat.extend(f.factors)
            elif not isinstance(f, Identity):
                flat.append(f)
        self.factors = tuple(flat)
        self._column_cache = {}

    def column(self, j):
        cached = self._column_cache.get(j)
        if cached is not None:
            return dict(cached)
        vec = {j: self.ring.one()}
        for f in reversed(self.factors):
            vec = f.apply_to(vec)
        self._column_cache[j] = dict(vec)
        return vec

    def map_entries(self, h):
        return ProductMatrix(h.target, [f.map_entries(h) for f in self.factors])

    def support_bound(self, j):
        bound = j + 1
        for f in reversed(self.factors):
            bound = max(f.support_bound(k) for k in range(bound))
        return bound


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def column(m: ColFinMatrix, j: int) -> dict:
    if j < 0:
        raise ValueError("column index must be nonnegative")
    return {i: v for i, v in m.column(j).items() if not v.is_zero()}

def window(m: ColFinMatrix, n: int):
    """Dense top-left n x n corner, computed column by column.

    Computing through column() keeps this exact for products: the window of
    a product equals a product of windows only when the factors' support
    bounds fit inside the window, so windows are never multiplied here.
    """
    if n < 1:
        raise ValueError("window size must be >= 1")
    zero = m.ring.zero()
    out = [[zero] * n for _ in range(n)]
    for j in range(n):
        for i, v in m.column(j).items():
            if i < n:
                out[i][j] = v
    return out


def window_rendered(m: ColFinMatrix, n: int):
    """Row-major dense window with entries rendered as expression strings."""
    return [[rings.render(v) for v in row] for row in window(m, n)]


def window_slice(m: ColFinMatrix, start: int, end: int):
    """Dense square slice rows/cols [start, end); only sound when columns in
    the range are supported in the range (block-diagonal slices)."""
    zero = m.ring.zero()
    k = end - start
    out = [[zero] * k for _ in range(k)]
    for j in range(start, end):
        for i, v in m.column(j).items():
            if start <= i < end:
                out[i - start][j - start] = v
    return out


def multiply(a: ColFinMatrix, b: ColFinMatrix) -> ColFinMatrix:
    """Product a*b, fused into a structured diagonal form when both operands
    are diagonal-like with alignable block boundaries, else a factor word."""
    if a.ring != b.ring:
        raise RingError(f"ring mismatch: {a.ring} vs {b.ring}")
    if isinstance(a, Identity):
        return b
    if isinstance(b, Identity):
        return a
    if isinstance(a, ScalarDiagonal) and isinstance(b, ScalarDiagonal):
        k = max(len(a.prefix), len(b.prefix))
        prefix = tuple(a.diagonal_entry(i) * b.diagonal_entry(i) for i in range(k))
        period = math.lcm(a.period, b.period)
        tail = tuple(a.diagonal_entry(i) * b.diagonal_entry(i)
                     for i in range(k, k + period))
        return _normalize(ScalarDiagonal(a.ring, prefix, tail))
    if isinstance(a, FinitePerturbation) and isinstance(b, FinitePerturbation):
        n = max(a.size, b.size)
        ca = _pad_corner(a, n)
        cb = _pad_corner(b, n)
        return _normalize(FinitePerturbation(a.ring, dense.mat_mul(ca, cb)))
    da, db = _diag_profile(a), _diag_profile(b)
    if da is not None and db is not None:
        fused = _fuse_diagonal(a, b, da, db)
        if fused is not None:
            return fused
    return ProductMatrix(a.ring, [a, b])


def _pad_corner(f: FinitePerturbation, n: int):
    ring = f.ring
    out = dense.identity(ring, n)
    for i in range(f.size):
        for j in range(f.size):
            out[i][j] = f.corner[i][j]
    return out


def _diag_profile(m: ColFinMatrix):
    """(prefix_end, period or None-for-identity-tail) for diagonal-like forms."""
    if isinstance(m, Identity):
        return (0, None)
    if isinstance(m, ScalarDiagonal):
        return (len(m.prefix), None if m.tail_is_one() else m.period)
    if isinstance(m, FinitePerturbation):
        return (m.size, None)
    if isinstance(m, BlockDiagonal):
        if m.tail_block is None:
            return (m.prefix_end, None)
        return (m.prefix_end, m.period)
    return None


def _boundary_beyond(profile, x: int) -> bool:
    end, period = profile
    if x < end:
        return False
    return period is None or (x - end) % period == 0


def _fuse_diagonal(a, b, da, db) -> Optional[ColFinMatrix]:
    ring = a.ring
    start = max(da[0], db[0])
    pa = da[1] or 1
    pb = db[1] or 1
    lcm = pa * pb // math.gcd(pa, pb)
    cut = None
    for x in range(start, start + lcm + 1):
        if _boundary_beyond(da, x) and _boundary_beyond(db, x):
            cut = x
            break
    if cut is None:
        return None
    if da[1] is None and db[1] is None:
        tail = None
        period = 1
    else:
        period = lcm if (da[1] and db[1]) else (da[1] or db[1])
        ta = window_slice(a, cut, cut + period)
        tb = window_slice(b, cut, cut + period)
        tail = dense.mat_mul(ta, tb)
    if cut == 0:
        prefix = []
    else:
        ca = window_slice(a, 0, cut)
        cb = window_slice(b, 0, cut)
        prefix = [dense.mat_mul(ca, cb)]
    return _normalize(BlockDiagonal(ring, prefix, tail))


def _is_identity_block(blk) -> bool:
    n = len(blk)
    for i in range(n):
        for j in range(n):
            v = blk[i][j]
            if i == j:
                if not v.is_one():
                    return False
            elif not v.is_zero():
                return False
    return True


def _normalize(m: ColFinMatrix) -> ColFinMatrix:
    if isinstance(m, ScalarDiagonal):
        if m.tail_is_one() and all(d.is_one() for d in m.prefix):
            return Identity(m.ring)
        return m
    if isinstance(m, FinitePerturbation):
        if _is_identity_block(m.corner) or m.size == 0:
            return Identity(m.ring)
        return m
    if isinstance(m, BlockDiagonal):
        tail = m.tail_block
        if tail is not None and _is_identity_block(tail):
            tail = None
        prefix = list(m.prefix_blocks)
        while prefix and tail is None and _is_identity_block(prefix[-1]):
            prefix.pop()
        if not prefix and tail is None:
            return Identity(m.ring)
        return BlockDiagonal(m.ring, prefix, tail)
    return m


# ---------------------------------------------------------------------------
# Inversion
# ---------------------------------------------------------------------------

def _invert_block(blk, block_index):
    """Blockwise inverse with a fast path for diagonal blocks (common for
    sign diagonals and identity paddings, which can be large)."""
    n = len(blk)
    ring = blk[0][0].ring
    if all(blk[i][j].is_zero() for i in range(n) for j in range(n) if i != j):
        out = [[ring.zero()] * n for _ in range(n)]
        for i in range(n):
            v = rings.is_unit(blk[i][i])
            if v is None:
                raise NonInvertibleError(
                    f"diagonal entry {rings.render(blk[i][i])} at {i} is not a unit"
                    f" (block {block_index})",
                    det=blk[i][i], block_index=block_index)
            out[i][i] = v
        return out
    return dense.adjugate_inverse(blk, block_index=block_index)


@dataclass(frozen=True)
class InvertibleColFin:
    """A matrix paired with a two-sided inverse; checked on windows."""

    matrix: ColFinMatrix
    inverse: ColFinMatrix

    def verify_window(self, n: int) -> bool:
        left = multiply(self.matrix, self.inverse)
        right = multiply(self.inverse, self.matrix)
        ident = window(Identity(self.matrix.ring), n)
        return (dense.mat_eq(window(left, n), ident)
                and dense.mat_eq(window(right, n), ident))

    def swapped(self) -> "InvertibleColFin":
        return InvertibleColFin(self.inverse, self.matrix)


def invert(m: ColFinMatrix) -> InvertibleColFin:
    """Pair m with its inverse; m must be invertible by construction.

    Elementary: id - M.  Permutation: the inverse bijection.  Diagonal
    forms: unit entries / blocks with unit determinant, inverted exactly;
    a non-unit block raises NonInvertibleError naming the block.
    Products invert factorwise in reverse order.
    """
    ring = m.ring
    if isinstance(m, Identity):
        return InvertibleColFin(m, m)
    if isinstance(m, Elementary):
        return InvertibleColFin(m, m.negated())
    if isinstance(m, Permutation):
        return InvertibleColFin(m, Permutation(ring, m.bijection.inverted()))
    if isinstance(m, ScalarDiagonal):
        inv_prefix = []
        for idx, d in enumerate(m.prefix):
            v = rings.is_unit(d)
            if v is None:
                raise NonInvertibleError(
                    f"diagonal entry {rings.render(d)} at index {idx} is not a unit",
                    det=d, block_index=idx)
            inv_prefix.append(v)
        tail_inv = []
        for d in m.tail_cycle:
            v = rings.is_unit(d)
            if v is None:
                raise NonInvertibleError(
                    f"diagonal tail {rings.render(d)} is not a unit",
                    det=d, block_index="tail")
            tail_inv.append(v)
        return InvertibleColFin(m, ScalarDiagonal(ring, inv_prefix, tail_inv))
    if isinstance(m, FinitePerturbation):
        inv = _invert_block(m.corner, 0)
        return InvertibleColFin(m, FinitePerturbation(ring, inv))
    if isinstance(m, BlockDiagonal):
        inv_prefix = [_invert_block(blk, i)
                      for i, blk in enumerate(m.prefix_blocks)]
        inv_tail = (_invert_block(m.tail_block, "tail")
                    if m.tail_block is not None else None)
        return InvertibleColFin(m, BlockDiagonal(ring, inv_prefix, inv_tail))
    if isinstance(m, ProductMatrix):
        inv_factors = [invert(f).inverse for f in reversed(m.factors)]
        return InvertibleColFin(m, ProductMatrix(ring, inv_factors))
    raise MatrixFormError(f"no inversion rule for form {m.form!r}")


# ---------------------------------------------------------------------------
# Homomorphism application and periodic equality
# ---------------------------------------------------------------------------

def map_hom(h, m: ColFinMatrix) -> ColFinMatrix:
    """Apply a ring hom to every stored entry; zeros stay absent, so the
    structural form (and column-finiteness) is preserved."""
    if m.ring != h.source:
        raise RingError(f"map_hom: matrix over {m.ring}, hom source {h.source}")
    return m.map_entries(h)


def _as_eventually_periodic(m: ColFinMatrix) -> ColFinMatrix:
    if isinstance(m, (Identity, ScalarDiagonal, FinitePerturbation, BlockDiagonal)):
        return m
    if isinstance(m, ProductMatrix):
        acc = Identity(m.ring)
        for f in m.factors:
            acc = multiply(acc, _as_eventually_periodic(f))
            if isinstance(acc, ProductMatrix):
                raise NotEventuallyPeriodicError(
                    "product does not fuse to an eventually periodic form")
        return acc
    raise NotEventuallyPeriodicError(
        f"form {m.form!r} does not normalize to an eventually periodic form")


def eq_eventually_periodic(a: ColFinMatrix, b: ColFinMatrix) -> bool:
    """Exact equality for eventually periodic operands, decided on the
    window of size max(offsets) + 2*lcm(periods)."""
    if a.ring != b.ring:
        return False
    na, nb = _as_eventually_periodic(a), _as_eventually_periodic(b)
    oa, pa = _diag_profile(na)
    ob, pb = _diag_profile(nb)
    pa, pb = pa or 1, pb or 1
    size = max(oa, ob) + 2 * (pa * pb // math.gcd(pa, pb))
    size = max(size, 1)
    return dense.mat_eq(window(na, size), window(nb, size))


# ---------------------------------------------------------------------------
# JSON matrix specs
# ---------------------------------------------------------------------------

def matrix_to_json(m: ColFinMatrix) -> dict:
    r = rings.render
    if isinstance(m, Identity):
        return {"form": "identity"}
    if isinstance(m, ScalarDiagonal):
        tail = [r(d) for d in m.tail_cycle]
        return {"form": "scalar_diagonal", "prefix": [r(d) for d in m.prefix],
                "tail": tail[0] if m.period == 1 else tail}
    if isinstance(m, FinitePerturbation):
        return {"form": "finite_perturbation",
                "corner": [[r(v) for v in row] for row in m.corner]}
    if isinstance(m, BlockDiagonal):
        return {"form": "block_diagonal",
                "prefix": [[[r(v) for v in row] for row in blk]
                           for blk in m.prefix_blocks],
                "tail": ([[r(v) for v in row] for row in m.tail_block]
                         if m.tail_block is not None else None)}
    if isinstance(m, Elementary):
        out = {"form": "elementary",
               "cols": {str(j): {str(i): r(v) for i, v in col.items()}
                        for j, col in sorted(m.head_cols.items())}}
        if m.families:
            out["families"] = [
                {"start": f.start, "period": f.period,
                 "entries": {str(o): r(v) for o, v in f.entries}}
                for f in m.families]
        return out
    if isinstance(m, Permutation):
        bij = m.bijection
        if isinstance(bij, FinitePermutation):
            return {"form": "permutation",
                    "map": {str(i): s for i, s in bij.mapping}}
        return {"form": "permutation", "offset": bij.offset,
                "period": bij.period, "residues": list(bij.residue_images)}
    if isinstance(m, ProductMatrix):
        return {"form": "product", "factors": [matrix_to_json(f) for f in m.factors]}
    raise MatrixFormError(f"cannot serialize form {m.form!r}")


def matrix_from_json(ring: RingDescriptor, data: dict) -> ColFinMatrix:
    form = data.get("form")
    parse = lambda s: rings.parse_element(ring, s)
    if form == "identity":
        return Identity(ring)
    if form == "scalar_diagonal":
        tail = data["tail"]
        return ScalarDiagonal(ring, [parse(s) for s in data.get("prefix", [])],
                              [parse(s) for s in tail] if isinstance(tail, list)
                              else parse(tail))
    if form == "finite_perturbation":
        return FinitePerturbation(ring, [[parse(v) for v in row]
                                         for row in data["corner"]])
    if form == "block_diagonal":
        tail = data.get("tail")
        return BlockDiagonal(
            ring,
            [[[parse(v) for v in row] for row in blk]
             for blk in data.get("prefix", [])],
            [[parse(v) for v in row] for row in tail] if tail is not None else None)
    if form == "elementary":
        head = {int(j): {int(i): parse(v) for i, v in col.items()}
                for j, col in data.get("cols", {}).items()}
        fams = [ColumnFamily(f["start"], f["period"],
                             tuple((int(o), parse(v))
                                   for o, v in f["entries"].items()))
                for f in data.get("families", [])]
        return Elementary(ring, head, fams)
    if form == "permutation":
        if "map" in data:
            bij = FinitePermutation(tuple(sorted(
                (int(i), int(s)) for i, s in data["map"].items())))
        else:
            bij = BlockPeriodicPermutation(int(data.get("offset", 0)),
                                           int(data["period"]),
                                           tuple(data["residues"]))
        return Permutation(ring, bij)
    if form == "product":
        return ProductMatrix(ring, [matrix_from_json(ring, f)
                                    for f in data["factors"]])
    raise MatrixFormError(f"unknown matrix form {form!r}")
