"""Structured, lazily evaluated column-finite N x N matrices over a ring.

Every supported form guarantees finite column support structurally.  Columns
are exact sparse maps {row: element}; the top-left n x n window is the
verification surface.  Equality of general lazy matrices is undecidable, but
every structured form, and every product of them, has a shift-equivariance
profile (o, P, b): past column o it commutes with the shift by P, with
entries within b of the diagonal.  Two profiled matrices are equal iff
their columns below max(o1, o2) + lcm(P1, P2) are equal, which decides
exact equality (`eq_eventually_periodic`).  Everything else is an explicit
"equal on window n" assertion.

Matrices are immutable; product columns are memoized in a per-object dict.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

from . import dense, rings
from .dense import NonInvertibleError
from .rings import RingDescriptor, RingElement, RingError


class MatrixFormError(Exception):
    """Structurally invalid matrix description."""


class NotEventuallyPeriodicError(Exception):
    """Operand does not normalize to an eventually periodic form."""


# The most family columns, diagonal entries or permutation residues one form
# may hold: the columns of an elementary form's family runs, the entries of a
# scalar diagonal's prefix and tail cycle, the residues of a block-periodic
# permutation.  A compressed form over the limit ([expr, count] runs, a
# rotation, stride/count runs) is refused before it is expanded.
MAX_EXPANSION = 2 ** 18


def _check_expansion(size: int, what: str) -> None:
    if size > MAX_EXPANSION:
        raise MatrixFormError(
            f"a form expands to {size} {what}, over MAX_EXPANSION = {MAX_EXPANSION}")


# ---------------------------------------------------------------------------
# Bijections
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FinitePermutation:
    """A bijection of N moving only finitely many indices."""

    mapping: tuple  # ((i, sigma(i)), ...) for the moved indices only

    def __post_init__(self):
        m = dict(self.mapping)
        if any(i < 0 for i in m):
            raise MatrixFormError("permutation indices must be nonnegative")
        if set(m) != set(m.values()):
            raise MatrixFormError("finite permutation mapping is not a bijection")
        object.__setattr__(self, "_forward", m)

    def __call__(self, j: int) -> int:
        return self._forward.get(j, j)

    def inverted(self) -> "FinitePermutation":
        return FinitePermutation(tuple(sorted((v, k) for k, v in self.mapping)))


@dataclass(frozen=True)
class BlockPeriodicPermutation:
    """Identity below offset; beyond it, applies a fixed permutation of the
    residues within each consecutive period-sized block."""

    offset: int
    period: int
    residue_images: tuple  # residue_images[r] = image residue

    def __post_init__(self):
        if self.period < 1 or self.offset < 0:
            raise MatrixFormError(
                "block-periodic permutation needs period >= 1 and offset >= 0")
        _check_expansion(self.period, "permutation residues")
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

    def inverted(self) -> "BlockPeriodicPermutation":
        return BlockPeriodicPermutation(self.offset, self.period, self._inverse_images)


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
        _check_expansion(len(self.prefix) + len(cycle), "diagonal entries")
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

    def map_values(self, ring, fn) -> "ScalarDiagonal":
        """The diagonal over `ring` with fn applied once per distinct entry;
        sign diagonals repeat two entries thousands of times."""
        image = {d: fn(d) for d in dict.fromkeys(self.prefix + self.tail_cycle)}
        return ScalarDiagonal(ring, tuple(image[d] for d in self.prefix),
                              tuple(image[d] for d in self.tail_cycle))

    def map_entries(self, h):
        return self.map_values(h.target, h.apply)


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


class BlockDiagonal(ColFinMatrix):
    """diag(prefix blocks..., tail, tail, ...); tail None means identity."""

    form = "block_diagonal"

    def __init__(self, ring, prefix_blocks, tail_block):
        self.ring = ring
        self.prefix_blocks = tuple(tuple(tuple(r) for r in blk) for blk in prefix_blocks)
        self.tail_block = (tuple(tuple(r) for r in tail_block)
                           if tail_block is not None else None)
        for blk in self.prefix_blocks + (
                (self.tail_block,) if self.tail_block is not None else ()):
            if not blk:
                raise MatrixFormError("blocks must not be 0x0")
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


class ColumnFamily(NamedTuple):
    """A run of periodic elementary columns: for 0 <= s < count and t >= 0,
    column start + s*stride + t*period carries entries at rows
    (column + offset) for each (offset, value) pair.  Every column of the
    run shares the one `entries` tuple; count 1 is a single periodic
    family."""

    start: int
    period: int
    entries: tuple  # ((rel_offset, RingElement), ...)
    stride: int = 1
    count: int = 1

    @property
    def last_start(self) -> int:
        return self.start + (self.count - 1) * self.stride


class Elementary(ColFinMatrix):
    """id + M with the columns of M indexed by a set J and supported in rows
    outside J; always invertible with inverse id - M.

    `families` keeps the runs as given (zero entries dropped); each run is
    expanded into one family per column, indexed by period, then by
    start % period, so a column looks up one bucket per distinct period
    instead of scanning them all.
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
        runs = []
        for fam in families:
            entries = tuple((off, v) for off, v in fam.entries if not v.is_zero())
            if entries:
                if fam.period < 1:
                    raise MatrixFormError("column family period must be positive")
                if fam.stride < 1 or fam.count < 1:
                    raise MatrixFormError(
                        "column family stride and count must be at least 1")
                runs.append(ColumnFamily(fam.start, fam.period, entries,
                                         fam.stride, fam.count))
        self.families = tuple(runs)
        total = sum(f.count for f in runs)
        if total > MAX_EXPANSION and any(f.count > f.period for f in runs):
            # a run longer than its period covers some column twice
            raise MatrixFormError("overlapping column families")
        _check_expansion(total, "family columns")
        # every run expands into one family per column, sharing its entries;
        # a count-1 run is its own expansion
        expanded = [ColumnFamily(f.start + s * f.stride, f.period, f.entries)
                    if f.count > 1 else f for f in runs for s in range(f.count)]
        buckets = {}          # period -> {start % period: [families]}
        for fam in expanded:
            buckets.setdefault(fam.period, {}).setdefault(
                fam.start % fam.period, []).append(fam)
        self._validate(buckets, expanded)
        # after validation every bucket holds exactly one family
        self._buckets = tuple((p, {r: fs[0] for r, fs in by_res.items()})
                              for p, by_res in buckets.items())

    def _validate(self, buckets, families):
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
        for fam in families:
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

    def map_values(self, ring, fn) -> "Elementary":
        """The elementary matrix over `ring` with fn applied to every stored
        entry, once per head entry and once per run."""
        return Elementary(
            ring,
            {j: {i: fn(v) for i, v in col.items()} for j, col in self.head_cols.items()},
            [ColumnFamily(f.start, f.period, tuple((o, fn(v)) for o, v in f.entries),
                          f.stride, f.count)
             for f in self.families])

    def negated(self) -> "Elementary":
        return self.map_values(self.ring, lambda v: -v)

    def map_entries(self, h):
        return self.map_values(h.target, h.apply)


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


def multiply(a: ColFinMatrix, b: ColFinMatrix) -> ColFinMatrix:
    """Product a*b.  The identity is absorbed and two scalar diagonals
    multiply entrywise (giving the identity when every entry is one) unless
    the product would hold more than MAX_EXPANSION entries; every other
    product is a factor word."""
    if a.ring != b.ring:
        raise RingError(f"ring mismatch: {a.ring} vs {b.ring}")
    if isinstance(a, Identity):
        return b
    if isinstance(b, Identity):
        return a
    if isinstance(a, ScalarDiagonal) and isinstance(b, ScalarDiagonal):
        k = max(len(a.prefix), len(b.prefix))
        period = math.lcm(a.period, b.period)
        if k + period > MAX_EXPANSION:
            return ProductMatrix(a.ring, [a, b])
        prefix = tuple(a.diagonal_entry(i) * b.diagonal_entry(i) for i in range(k))
        tail = tuple(a.diagonal_entry(i) * b.diagonal_entry(i)
                     for i in range(k, k + period))
        d = ScalarDiagonal(a.ring, prefix, tail)
        if d.tail_is_one() and all(x.is_one() for x in d.prefix):
            return Identity(a.ring)
        return d
    return ProductMatrix(a.ring, [a, b])


# ---------------------------------------------------------------------------
# Inversion
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InvertibleColFin:
    """A matrix paired with its two-sided inverse."""

    matrix: ColFinMatrix
    inverse: ColFinMatrix

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
        def unit_inverse(d):
            v = rings.is_unit(d)
            if v is None:
                idx = m.prefix.index(d) if d in m.prefix else "tail"
                where = f"tail {rings.render(d)}" if idx == "tail" else \
                    f"entry {rings.render(d)} at index {idx}"
                raise NonInvertibleError(f"diagonal {where} is not a unit",
                                         det=d, block_index=idx)
            return v

        return InvertibleColFin(m, m.map_values(ring, unit_inverse))
    if isinstance(m, FinitePerturbation):
        inv = dense.adjugate_inverse(m.corner, block_index=0)
        return InvertibleColFin(m, FinitePerturbation(ring, inv))
    if isinstance(m, BlockDiagonal):
        inv_prefix = [dense.adjugate_inverse(blk, block_index=i)
                      for i, blk in enumerate(m.prefix_blocks)]
        inv_tail = (dense.adjugate_inverse(m.tail_block, block_index="tail")
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


def profile(m: ColFinMatrix) -> tuple:
    """The shift-equivariance profile (o, P, b) of a structured form: for
    every column j >= o, column(j + P) is column(j) shifted down by P, and
    the rows of column j lie within b of j.  Forms without one raise
    NotEventuallyPeriodicError.

    A product A*B has the profile (max(o_B, o_A + b_B), lcm(P_A, P_B),
    b_A + b_B), so a factor word folds right to left.  Proof: let
    P = lcm(P_A, P_B) and j >= max(o_B, o_A + b_B).  Shifting by P_B a
    column at or past o_B gives another such column, so column_B(j + P) is
    column_B(j) shifted by P, and its rows i satisfy i >= j - b_B >= o_A.
    Hence column_AB(j + P) = sum_i B[i, j] column_A(i + P) is the same sum
    of the columns column_A(i) shifted by P, that is column_AB(j) shifted
    by P; its rows lie within b_A of a row i that lies within b_B of j.
    """
    if isinstance(m, Identity):
        return 0, 1, 0
    if isinstance(m, ScalarDiagonal):
        return len(m.prefix), m.period, 0
    if isinstance(m, FinitePerturbation):
        return m.size, 1, 0
    if isinstance(m, BlockDiagonal):
        return m.prefix_end, m.period, m.period - 1
    if isinstance(m, Elementary):
        fams = m.families
        return (max([j + 1 for j in m.head_cols] + [f.last_start for f in fams],
                    default=0),
                math.lcm(*(f.period for f in fams)),
                max((abs(o) for f in fams for o, _ in f.entries), default=0))
    if isinstance(m, Permutation):
        bij = m.bijection
        if isinstance(bij, FinitePermutation):
            return 1 + max((k for k, _ in bij.mapping), default=-1), 1, 0
        return bij.offset, bij.period, bij.period - 1
    if isinstance(m, ProductMatrix):
        o, p, b = 0, 1, 0
        for f in reversed(m.factors):
            fo, fp, fb = profile(f)
            o, p, b = max(o, fo + b), math.lcm(fp, p), fb + b
        return o, p, b
    raise NotEventuallyPeriodicError(
        f"form {m.form!r} has no shift-equivariance profile")


def eq_eventually_periodic(a: ColFinMatrix, b: ColFinMatrix) -> bool:
    """Exact equality of two profiled matrices.  Past o = max(o_a, o_b)
    both commute with the shift by P = lcm(P_a, P_b), so every later column
    is a shifted copy of one of columns o .. o + P - 1: comparing the full
    sparse columns below o + P decides equality at every index."""
    if a.ring != b.ring:
        return False
    (oa, pa, _), (ob, pb, _) = profile(a), profile(b)
    return all(column(a, j) == column(b, j)
               for j in range(max(oa, ob) + math.lcm(pa, pb)))


# ---------------------------------------------------------------------------
# JSON matrix specs
# ---------------------------------------------------------------------------

def matrix_to_json(m: ColFinMatrix) -> dict:
    r = rings.render
    if isinstance(m, Identity):
        return {"form": "identity"}
    if isinstance(m, ScalarDiagonal):
        return {"form": "scalar_diagonal", "prefix": _runs_to_json(m.prefix),
                "tail": r(m.tail_cycle[0]) if m.period == 1
                else _runs_to_json(m.tail_cycle)}
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
                 "entries": {str(o): r(v) for o, v in f.entries},
                 **({"stride": f.stride, "count": f.count} if f.count > 1 else {})}
                for f in m.families]
        return out
    if isinstance(m, Permutation):
        bij = m.bijection
        if isinstance(bij, FinitePermutation):
            return {"form": "permutation",
                    "map": {str(i): s for i, s in bij.mapping}}
        out = {"form": "permutation", "offset": bij.offset, "period": bij.period}
        images = bij.residue_images
        if all(s == (i + images[0]) % bij.period for i, s in enumerate(images)):
            out["rotate"] = images[0]
        else:
            out["residues"] = list(images)
        return out
    if isinstance(m, ProductMatrix):
        return {"form": "product", "factors": [matrix_to_json(f) for f in m.factors]}
    raise MatrixFormError(f"cannot serialize form {m.form!r}")


def matrix_from_json(ring: RingDescriptor, data: dict) -> ColFinMatrix:
    if not isinstance(data, dict):
        raise MatrixFormError(f"a matrix is a JSON object, got {data!r:.40}")
    form = data.get("form")
    parse = lambda s: rings.parse_element(ring, s)
    if form == "identity":
        return Identity(ring)
    if form == "scalar_diagonal":
        tail = data["tail"]
        prefix = _runs_from_json(ring, _json_list(data, "prefix", []))
        cycle = _runs_from_json(ring, tail) if isinstance(tail, list) \
            else [(parse(tail), 1)]
        _check_expansion(sum(n for _, n in prefix + cycle), "diagonal entries")
        return ScalarDiagonal(ring, _expand_runs(prefix), _expand_runs(cycle))
    if form == "finite_perturbation":
        return FinitePerturbation(
            ring, _block_from_json(ring, data["corner"], "'corner'"))
    if form == "block_diagonal":
        return BlockDiagonal(
            ring,
            [_block_from_json(ring, blk, "a 'prefix' block")
             for blk in _json_list(data, "prefix", [])],
            _block_from_json(ring, data["tail"], "'tail'")
            if data.get("tail") is not None else None)
    if form == "elementary":
        head = {int(j): {int(i): parse(v) for i, v in
                         _json_checked(col, "each value of 'cols'", dict).items()}
                for j, col in _json_object(data, "cols", {}).items()}
        fams = [ColumnFamily(_json_int(f, "start"), _json_int(f, "period"),
                             tuple((int(o), parse(v))
                                   for o, v in _json_object(f, "entries").items()),
                             _json_int(f, "stride", 1), _json_int(f, "count", 1))
                for f in (_json_checked(f, "each item of 'families'", dict)
                          for f in _json_list(data, "families", []))]
        return Elementary(ring, head, fams)
    if form == "permutation":
        if "map" in data:
            bij = FinitePermutation(tuple(sorted(
                (int(i), _json_checked(s, "each value of 'map'", int))
                for i, s in _json_object(data, "map").items())))
        else:
            period = _json_int(data, "period")
            if "rotate" in data:
                if "residues" in data:
                    raise MatrixFormError("a permutation gives residues or rotate, not both")
                images = _rotation(_json_int(data, "rotate"), period)
            else:
                images = tuple(_json_list(data, "residues"))
            bij = BlockPeriodicPermutation(_json_int(data, "offset", 0),
                                           period, images)
        return Permutation(ring, bij)
    if form == "product":
        try:
            factors = [matrix_from_json(ring, f)
                       for f in _json_list(data, "factors")]
        except RecursionError:
            # a JSON decoder allowed deeper C recursion than Python's limit
            # hands over products nested past that limit
            raise MatrixFormError("product forms nested too deeply") from None
        return ProductMatrix(ring, factors)
    raise MatrixFormError(f"unknown matrix form {form!r}")


_JSON_KINDS = {int: "an integer", dict: "an object", list: "a list"}


def _json_checked(value, what: str, kind: type):
    """value, whose JSON type must be `kind` (so true is not an integer);
    `what` names it in the error."""
    if type(value) is not kind:
        raise MatrixFormError(f"{what} must be {_JSON_KINDS[kind]}, got {value!r:.40}")
    return value


def _json_field(data: dict, key: str, kind: type, default=None):
    """data[key], or `default` when one is given and the key is absent."""
    value = data.get(key, default) if default is not None else data[key]
    return _json_checked(value, repr(key), kind)


def _json_int(data: dict, key: str, default=None) -> int:
    return _json_field(data, key, int, default)


def _json_object(data: dict, key: str, default=None) -> dict:
    return _json_field(data, key, dict, default)


def _json_list(data: dict, key: str, default=None) -> list:
    return _json_field(data, key, list, default)


def _block_from_json(ring, block, what: str) -> list:
    """A dense block: a list of rows, each a list of entries."""
    return [[rings.parse_element(ring, v)
             for v in _json_checked(row, f"each row of {what}", list)]
            for row in _json_checked(block, what, list)]


def _runs_to_json(seq) -> list:
    """Diagonal entries with every maximal run of two or more equal entries
    written as [expr, count]; each run is rendered once."""
    out = []
    for d, run in itertools.groupby(seq):
        n = sum(1 for _ in run)
        out.append(rings.render(d) if n == 1 else [rings.render(d), n])
    return out


def _runs_from_json(ring, items) -> list:
    """(element, count) pairs of a diagonal entry list: a string is one
    entry, an [expr, count] pair a run of count equal entries, parsed once."""
    runs = []
    for item in items:
        if isinstance(item, list):
            if len(item) != 2 or type(item[1]) is not int or item[1] < 1:
                raise MatrixFormError(
                    f"a diagonal run is [expr, count] with count >= 1, got {item!r:.40}")
            runs.append((rings.parse_element(ring, item[0]), item[1]))
        else:
            runs.append((rings.parse_element(ring, item), 1))
    return runs


def _expand_runs(runs) -> tuple:
    return tuple(d for d, n in runs for _ in range(n))


def _rotation(rotate: int, period: int) -> tuple:
    """The residue images of the rotation i -> (i + rotate) mod period."""
    _check_expansion(period, "permutation residues")
    if period >= 1 and not 0 <= rotate < period:
        raise MatrixFormError(f"rotate must satisfy 0 <= rotate < period, got {rotate}")
    return tuple((i + rotate) % period for i in range(period))
