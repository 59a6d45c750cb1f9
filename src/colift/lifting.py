"""Constructive lifting of invertible column-finite matrices along a
surjective ring map.

The factorization machinery: reduce a unimodular column to a basis vector by
elementary operations (using one spare zero slot), turn block pairs
diag(A, B) into diag(A*B, Id) by the classical four block operations, and
factor the alternating infinite diagonal diag(V, V^-1, V, V^-1, ...) into
five infinite structured factors by applying those block operations on
every disjoint pair at once (the Eilenberg swindle).  A supported
eventually-periodic input is lifted through its own corner V: two
swindles, the second shifted by the size of V, multiply to diag(V, Id).
Every emitted factor is an elementary matrix (lifted entrywise by the hom's
zero-preserving section), a permutation, or a sign diagonal (both defined
over the image of Z, hence lifted exactly); the paired inverse word is
exact by construction.

A certificate records the factor word over the source ring, per-factor
provenance, and the window on which the image of the lift was checked
against the input.  Window checks are exact corner comparisons; for inputs
with a nontrivial periodic tail the corner reaches at least twice the
requested window, beyond which the word is the identity, and the
certificate records that window rather than claiming more.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

from . import dense, matrices, rings
from .homs import RingHom, hom_section
from .matrices import (BlockDiagonal, BlockPeriodicPermutation, ColFinMatrix,
                       ColumnFamily, Elementary, FinitePermutation,
                       FinitePerturbation, Identity, InvertibleColFin,
                       Permutation, ProductMatrix, ScalarDiagonal, invert)
from .rings import BezoutWitness, RingDescriptor, RingElement


class LiftError(Exception):
    pass


class WitnessError(LiftError):
    """Supplied Bezout coefficients do not combine to 1."""


class UnsupportedMatrixError(LiftError):
    """Input matrix is outside the supported invertible classes."""


class LiftVerificationError(LiftError):
    """A constructed lift failed its own window check (internal bug)."""


# ---------------------------------------------------------------------------
# Elementary words
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WordStep:
    """One factor of an elementary word.

    side "L" factors multiply on the left (row operations), side "R" on the
    right (column operations); steps apply in listed order.
    """

    inv: InvertibleColFin
    side: str = "L"
    tag: str = ""


@dataclass(frozen=True)
class ElementaryWord:
    ring: RingDescriptor
    steps: tuple

    @property
    def factors(self):
        return tuple(s.inv for s in self.steps)

    def apply_to_vector(self, vec: dict) -> dict:
        out = dict(vec)
        for step in self.steps:
            if step.side != "L":
                raise LiftError("column operations cannot act on a column vector")
            out = step.inv.matrix.apply_to(out)
        return out


def _elem(ring, head_cols, tag: str, families=()) -> WordStep:
    e = Elementary(ring, head_cols, families)
    return WordStep(inv=invert(e), tag=tag)


def _perm(ring, mapping, tag: str) -> WordStep:
    p = Permutation(ring, FinitePermutation(tuple(sorted(mapping.items()))))
    return WordStep(inv=invert(p), tag=tag)


# ---------------------------------------------------------------------------
# Unimodular column reduction
# ---------------------------------------------------------------------------

def unimodular_reduce(vector, witness: BezoutWitness) -> ElementaryWord:
    """An elementary word over indices 0..n sending the padded column
    (a_1, ..., a_n, 0)^T to e_0, checked exactly.

    The Bezout row (row n += c_i * row i) lands a 1 in the spare slot n, the
    clearing column (row i -= a_i * row n) zeroes the rest, and a final
    0 <-> n transposition (a permutation, which lifts exactly) moves the 1
    to slot 0.  Zero coefficients give no factor.
    """
    vector = list(vector)
    n = len(vector)
    if n == 0:
        raise WitnessError("empty vector")
    if not witness.check(vector):
        raise WitnessError("witness coefficients do not satisfy sum(c_i * a_i) = 1")
    ring = vector[0].ring
    steps = [_elem(ring, {i: {n: c}}, "column-reduction")
             for i, c in enumerate(witness.coefficients) if not c.is_zero()]
    steps += [_elem(ring, {n: {i: -a}}, "column-reduction")
              for i, a in enumerate(vector) if not a.is_zero()]
    steps.append(_perm(ring, {0: n, n: 0}, "column-reduction"))
    word = ElementaryWord(ring, tuple(steps))
    padded = {i: a for i, a in enumerate(vector) if not a.is_zero()}
    result = word.apply_to_vector(padded)
    if result != {0: ring.one()}:
        raise LiftVerificationError("column reduction failed to produce e_0")
    return word


# ---------------------------------------------------------------------------
# Block operations (Whitehead lemma)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SparseBlock:
    """A square block stored by its nonzero entries: cols[j] = {i: value},
    rows ascending; columns absent from `cols` are zero."""

    size: int
    cols: dict

    @classmethod
    def from_dense(cls, block) -> "SparseBlock":
        cols = {}
        for j in range(len(block)):
            col = {i: row[j] for i, row in enumerate(block) if not row[j].is_zero()}
            if col:
                cols[j] = col
        return cls(len(block), cols)

    @classmethod
    def diagonal(cls, entries) -> "SparseBlock":
        return cls(len(entries), {j: {j: d} for j, d in enumerate(entries)
                                  if not d.is_zero()})

    def is_diagonal(self) -> bool:
        return all(col.keys() == {j} for j, col in self.cols.items())

    def is_identity(self, ring) -> bool:
        return self == SparseBlock.diagonal((ring.one(),) * self.size)

    def to_dense(self, ring):
        rows = [[ring.zero()] * self.size for _ in range(self.size)]
        for j, col in self.cols.items():
            for i, v in col.items():
                rows[i][j] = v
        return rows


def _block_operations(ring, a: SparseBlock, b: SparseBlock, b_inv: SparseBlock,
                      offset: int = 0, periodic: bool = False,
                      tail_size: int = 1) -> list:
    """The block operations turning diag(A, B) into diag(A*B, Id_k), as five
    matrices: C1 += C2 * B^-1, C2 -= C1 * B, the block swap C1 <-> C2 and
    C1 *= -1 (right factors, in this order), then R1 -= A * R2 (a left
    factor).  The signed swap is split into a permutation and a sign
    diagonal so every matrix stays in a liftable generator class.

    The pair sits at `offset`; with `periodic` the operations act on every
    pair offset + t*2k at once (their supports are disjoint), through column
    family runs (see _column_runs; for a swindle corner whose tail repeats
    every `tail_size` columns, one run per prefix column and per tail-column
    residue), and each run is negated once."""
    k = a.size
    period = 2 * k
    minus_one, one = -ring.one(), ring.one()

    def corner(blk, row_base, col_base, negate=False):
        """id + (+-blk) with blk's (0, 0) entry at (row_base, col_base)."""
        if periodic:
            shift = row_base - col_base
            return Elementary(ring, {}, [
                ColumnFamily(offset + col_base + j, period,
                             tuple((shift + o, -v if negate else v) for o, v in rel),
                             stride, count)
                for j, stride, count, rel in _column_runs(blk, tail_size)])
        return Elementary(ring, {
            offset + col_base + j: {offset + row_base + i: -v if negate else v
                                    for i, v in col.items()}
            for j, col in sorted(blk.cols.items())})

    swap = tuple(range(k, period)) + tuple(range(k))
    if periodic:
        swap_perm = BlockPeriodicPermutation(offset, period, swap)
        signs = ScalarDiagonal(ring, (one,) * offset, (minus_one,) * k + (one,) * k)
    else:
        swap_perm = FinitePermutation(tuple(
            (offset + r, offset + s) for r, s in enumerate(swap)))
        signs = ScalarDiagonal(ring, (one,) * offset + (minus_one,) * k, one)
    return [corner(b_inv, row_base=k, col_base=0),
            corner(b, row_base=0, col_base=k, negate=True),
            Permutation(ring, swap_perm),
            signs,
            corner(a, row_base=0, col_base=k, negate=True)]


def _column_runs(blk: SparseBlock, tail_size: int = 1) -> list:
    """The nonzero columns of blk as runs (first column, stride, count,
    entries as (row - column, value) pairs), ordered by first column.

    Columns with equal entries are split into maximal arithmetic
    progressions, either in column order or within each residue class mod
    `tail_size`, whichever gives fewer runs.  Residues keep a short tail
    cycle repeated many times at one run per residue (the cycle (u, u, -u)
    lifted at window 1024: 6.0 KB, not 0.8 MB); column order keeps a long
    cycle repeated a few times at one run per stretch of equal columns (the
    period-3200 cycle of 1600 u then 1600 -1 at window 8: 4.9 KB and 0.3 s,
    not 2.8 MB and 2.6 s)."""
    groups = {}
    for j in sorted(blk.cols):
        rel = tuple((i - j, v) for i, v in blk.cols[j].items())
        groups.setdefault(rel, []).append(j)
    runs = []
    for rel, cols in groups.items():
        in_order = _progressions(cols)
        residues = {}
        for j in cols:
            residues.setdefault(j % tail_size, []).append(j)
        if len(residues) < len(in_order):   # else residues cannot do better
            by_residue = [run for r in sorted(residues)
                          for run in _progressions(residues[r])]
            if len(by_residue) < len(in_order):
                in_order = by_residue
        runs += [(first, stride, count, rel) for first, stride, count in in_order]
    return sorted(runs, key=lambda run: run[0])


def _progressions(cols) -> list:
    """Ascending columns split greedily into maximal arithmetic
    progressions, as (first, stride, count)."""
    out, first = [], 0
    while first < len(cols):
        last = first + 1            # cols[first:last] is one progression
        stride = cols[last] - cols[first] if last < len(cols) else 1
        while last < len(cols) and cols[last] - cols[last - 1] == stride:
            last += 1
        out.append((cols[first], stride, last - first))
        first = last
    return out


def whitehead_word(block_a, block_b, ring: RingDescriptor) -> ElementaryWord:
    """The four block operations turning diag(A, B) into diag(A*B, Id_k).

    Column operations are right factors, the final row operation a left
    factor.
    """
    k = len(block_a)
    if len(block_b) != k:
        raise LiftError("blocks must have equal size")
    det_a = dense.determinant(block_a) if k else ring.one()
    if rings.is_unit(det_a) is None:
        raise dense.NonInvertibleError(
            f"determinant {rings.render(det_a)} is not a unit of {ring}", det=det_a)
    b_inv = dense.adjugate_inverse(block_b)
    ops = _block_operations(ring, *map(SparseBlock.from_dense,
                                       (block_a, block_b, b_inv)))
    return ElementaryWord(ring, tuple(
        WordStep(invert(op), side=side, tag="whitehead")
        for op, side in zip(ops, "RRRRL")))


# ---------------------------------------------------------------------------
# Swindle factorization
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CertFactor:
    inv: InvertibleColFin
    tag: str


@dataclass(frozen=True, eq=False)
class SwindleWord:
    """Factors (in product order) whose product is the alternating diagonal
    diag(U, U^-1, U, U^-1, ...) starting at `offset`, identity below."""

    ring: RingDescriptor
    factors: tuple  # CertFactor, product order
    block: SparseBlock
    block_inverse: SparseBlock
    offset: int

    def product(self) -> ColFinMatrix:
        return ProductMatrix(self.ring, [f.inv.matrix for f in self.factors])

    @cached_property
    def target(self) -> ColFinMatrix:
        """The alternating diagonal as a dense-tailed block diagonal, built
        on first use (its tail has (2k)^2 entries)."""
        tail = _sparse_diagonal([self.block, self.block_inverse]).to_dense(self.ring)
        prefix = [dense.identity(self.ring, self.offset)] if self.offset else []
        return BlockDiagonal(self.ring, prefix, tail)


def swindle_factorization(block_u, ring: RingDescriptor, offset: int = 0,
                          u_inverse=None, tag: str = "swindle",
                          tail_size: int = 1) -> SwindleWord:
    """Factor diag(U, U^-1, U, U^-1, ...) into five infinite structured
    factors: the block operations that turn every disjoint pair
    diag(U, U^-1) into the identity, applied simultaneously on all pairs,
    inverted and read backwards.

    U may be a ring element, a dense block or a SparseBlock; U^-1 is given
    in the same form, or omitted for a dense U and computed by the
    adjugate.  Only nonzero entries are visited, so the work and the word
    are linear in the number of nonzero entries.  `tail_size` is the period
    of U's repeating tail, if any; it only shapes the column runs."""
    if isinstance(block_u, RingElement):
        block_u = [[block_u]]
    if u_inverse is None:
        u_inverse = dense.adjugate_inverse(block_u)
    u, u_inv = (b if isinstance(b, SparseBlock) else SparseBlock.from_dense(b)
                for b in (block_u, u_inverse))
    ops = _block_operations(ring, u, u_inv, u, offset, periodic=True,
                            tail_size=tail_size)
    factors = tuple(CertFactor(invert(op).swapped(), tag) for op in reversed(ops))
    return SwindleWord(ring, factors, u, u_inv, offset)


# ---------------------------------------------------------------------------
# Block decomposition of supported inputs
# ---------------------------------------------------------------------------

def _as_blocks(m: ColFinMatrix):
    """(prefix SparseBlocks, tail SparseBlock or None) for the supported
    classes; a scalar diagonal's tail cycle is one diagonal block."""
    ring = m.ring
    if isinstance(m, Identity):
        return [], None
    if isinstance(m, ScalarDiagonal):
        prefix = [SparseBlock.diagonal((d,)) for d in m.prefix]
        tail = None if m.tail_is_one() else SparseBlock.diagonal(m.tail_cycle)
        return prefix, tail
    if isinstance(m, FinitePerturbation):
        return ([SparseBlock.from_dense(m.corner)] if m.size else []), None
    if isinstance(m, BlockDiagonal):
        tail = m.tail_block
        if tail is not None:
            tail = SparseBlock.from_dense(tail)
            if tail.is_identity(ring):
                tail = None
        return [SparseBlock.from_dense(b) for b in m.prefix_blocks], tail
    raise UnsupportedMatrixError(
        f"form {m.form!r} is not in the supported lifting classes "
        "(finite perturbation, unit scalar diagonal, invertible block "
        "diagonal, elementary, permutation, or a product of these)")


def _block_inverse(blk: SparseBlock, name, ring) -> SparseBlock:
    """The inverse of input block `name` (its prefix index or "tail"): a
    diagonal block entrywise, any other through the dense adjugate.  Dense
    size and invertibility errors become UnsupportedMatrixError here."""
    try:
        if blk.is_diagonal():
            entries = [blk.cols.get(j, {}).get(j, ring.zero())
                       for j in range(blk.size)]
            return SparseBlock.diagonal(dense.diagonal_inverse(entries, name))
        return SparseBlock.from_dense(
            dense.adjugate_inverse(blk.to_dense(ring), block_index=name))
    except dense.DenseSizeError as exc:
        raise UnsupportedMatrixError(str(exc)) from exc
    except dense.NonInvertibleError as exc:
        raise UnsupportedMatrixError(
            f"block {name} is not invertible over {ring}: {exc}") from exc


# ---------------------------------------------------------------------------
# Certificates
# ---------------------------------------------------------------------------

@dataclass
class LiftCertificate:
    """A lift of `input_matrix` along `hom`: a word of liftable factors over
    the source ring whose image matches the input on the verified window."""

    hom: RingHom
    input_matrix: ColFinMatrix
    lift: InvertibleColFin
    factor_log: tuple            # provenance tag per factor
    verified_window: int
    # the self-check run when the lift was built (None when deserialized)
    report: Optional["VerificationReport"] = field(default=None, compare=False)

    @property
    def factors(self):
        return _word(self.lift.matrix)

    def word_length(self) -> int:
        return len(self.factor_log)


def _word(m: ColFinMatrix) -> tuple:
    """The factors of a word in product order; none for the identity."""
    if isinstance(m, ProductMatrix):
        return m.factors
    if isinstance(m, Identity):
        return ()
    return (m,)


def _is_sign_diagonal(m: ColFinMatrix) -> bool:
    one = m.ring.one()
    minus = -one
    if isinstance(m, Identity):
        return True
    if isinstance(m, ScalarDiagonal):
        return set(m.prefix + m.tail_cycle) <= {one, minus}
    if isinstance(m, BlockDiagonal):
        blocks = list(m.prefix_blocks)
        if m.tail_block is not None:
            blocks.append(m.tail_block)
        for blk in blocks:
            for i, row in enumerate(blk):
                for j, v in enumerate(row):
                    if i == j:
                        if not (v == one or v == minus):
                            return False
                    elif not v.is_zero():
                        return False
        return True
    return False


def _liftable_class(m: ColFinMatrix) -> Optional[str]:
    if isinstance(m, Elementary):
        return "elementary"
    if isinstance(m, Permutation):
        return "permutation"
    if _is_sign_diagonal(m):
        return "sign-diagonal"
    return None


def _inverse_defect(f: ColFinMatrix, g: ColFinMatrix) -> Optional[str]:
    """Why g is not the exact two-sided inverse of the generator f, or None.

    Decided on the stored structure, so it holds at every index:
    - an elementary id + M is inverted by id - M, stored with the same head
      columns and families and every entry negated (Elementary._validate
      keeps the rows of M outside its column set, so M*M = 0);
    - a permutation by the inverse bijection: a finite one undoes every
      index either side moves, a block-periodic one has the same offset
      and period and residue images that undo each other;
    - a sign diagonal by itself, entry for entry.
    Any other form has no exact rule and fails."""
    if isinstance(f, Elementary):
        if not isinstance(g, Elementary):
            return "the inverse of an elementary factor is not elementary"
        negations = {}      # swindle families repeat a few entries many times

        def negates(w, v):
            if v not in negations:
                negations[v] = -v
            return w == negations[v]

        if g.head_cols.keys() != f.head_cols.keys():
            return "the inverse has other head columns"
        for j, col in f.head_cols.items():
            inv = g.head_cols[j]
            if inv.keys() != col.keys() or not all(
                    negates(inv[i], v) for i, v in col.items()):
                return f"column {j} of the inverse is not the negated column"
        run = lambda fam: (fam.start, fam.period, fam.stride, fam.count)
        inv_families = {run(fam): fam.entries for fam in g.families}
        if len(inv_families) != len(f.families):
            return "the inverse has other column families"
        for fam in f.families:
            inv = inv_families.get(run(fam), ())
            if len(inv) != len(fam.entries) or not all(
                    p == o and negates(w, v) for (o, v), (p, w) in zip(fam.entries, inv)):
                return (f"the family at column {fam.start} (period {fam.period}, "
                        f"stride {fam.stride}, count {fam.count}) "
                        "of the inverse is not the negated family")
        return None
    if isinstance(f, Permutation):
        if not isinstance(g, Permutation):
            return "the inverse of a permutation is not a permutation"
        a, b = f.bijection, g.bijection
        if isinstance(a, FinitePermutation) and isinstance(b, FinitePermutation):
            bad = next((j for j, _ in a.mapping + b.mapping if b(a(j)) != j), None)
            return None if bad is None else \
                f"the inverse bijection does not undo index {bad}"
        if isinstance(a, BlockPeriodicPermutation) and \
                isinstance(b, BlockPeriodicPermutation) and \
                (a.offset, a.period) == (b.offset, b.period):
            bad = next((r for r, s in enumerate(a.residue_images)
                        if b.residue_images[s] != r), None)
            return None if bad is None else \
                f"the inverse bijection does not undo residue {bad} of period {a.period}"
        return "the inverse bijection has another shape"
    if _is_sign_diagonal(f):
        same = type(g) is type(f) and (
            isinstance(f, Identity)
            or isinstance(f, ScalarDiagonal)
            and (g.prefix, g.tail_cycle) == (f.prefix, f.tail_cycle)
            or isinstance(f, BlockDiagonal)
            and (g.prefix_blocks, g.tail_block) == (f.prefix_blocks, f.tail_block))
        return None if same else "the inverse of a sign diagonal differs from it"
    return f"no exact inverse rule for form {f.form!r}"


def _paired_inverse_defect(pair: InvertibleColFin) -> Optional[str]:
    """Why the paired inverse word is not exact, naming the factor, or None.

    Lift factor i pairs with inverse factor n-1-i.  When every pair is an
    exact two-sided inverse, lift * inverse = inverse * lift = identity at
    every index, in time linear in the word and independent of any window.
    """
    if pair.inverse.ring != pair.matrix.ring:
        return f"the inverse lives over {pair.inverse.ring}, the lift over {pair.matrix.ring}"
    word, inverse = _word(pair.matrix), _word(pair.inverse)
    if len(word) != len(inverse):
        return f"the lift has {len(word)} factors, its inverse {len(inverse)}"
    for idx, (f, g) in enumerate(zip(word, reversed(inverse))):
        defect = _inverse_defect(f, g)
        if defect is not None:
            return f"factor {idx}: {defect}"
    return None


def _lift_factor(h: RingHom, m: ColFinMatrix) -> ColFinMatrix:
    """Lift one liftable generator from the target ring to the source ring.

    Elementary factors lift entrywise by the hom's zero-preserving section;
    permutations and sign diagonals are carried by 1 -> 1 and -1 -> -1,
    which any unital ring map respects.
    """
    src = h.source
    if isinstance(m, Elementary):
        return m.map_values(src, lambda v: hom_section(h, v))
    if isinstance(m, Permutation):
        return Permutation(src, m.bijection)
    one_t, minus_t = m.ring.one(), -m.ring.one()
    one_s, minus_s = src.one(), -src.one()

    def lift_sign(v):
        if v == one_t:
            return one_s
        if v == minus_t:
            return minus_s
        raise LiftError("sign factor carries an entry other than +-1")

    if isinstance(m, Identity):
        return Identity(src)
    if isinstance(m, ScalarDiagonal):
        return m.map_values(src, lift_sign)
    if isinstance(m, BlockDiagonal):
        zero_s = src.zero()

        def lift_block(blk):
            return [[lift_sign(v) if i == j else zero_s
                     for j, v in enumerate(row)] for i, row in enumerate(blk)]

        return BlockDiagonal(src, [lift_block(b) for b in m.prefix_blocks],
                             lift_block(m.tail_block)
                             if m.tail_block is not None else None)
    raise LiftError(f"factor of form {m.form!r} is not a liftable generator")


# ---------------------------------------------------------------------------
# The end-to-end lift
# ---------------------------------------------------------------------------

def gl_lift(h: RingHom, p, requested_window: int = 64) -> LiftCertificate:
    """Produce a verified lift certificate for a supported invertible input.

    `p` is the input matrix; an InvertibleColFin is unwrapped and its
    inverse is not read.  Invertibility is checked here, each input block
    being inverted once; a block that is not invertible, or too large for
    dense inversion, raises UnsupportedMatrixError naming it.

    A block-diagonal input diag(B_1, B_2, ...) is lifted through its own
    corner V = diag(B_1, ..., B_r) up to a horizon h: the two swindles
    diag(V, V^-1, V, V^-1, ...) and diag(Id_h, V, V^-1, V, ...) multiply to
    diag(V, Id), which is the input on [0, h) and, for an identity tail,
    everywhere.  h is the end of the prefix for an identity tail, else the
    first tail-block boundary at or beyond twice the requested window, so
    the certificate re-verifies at double its stated window.  Elementary
    and permutation inputs are liftable generators and become one-factor
    words ("generator"); products are lifted factor by factor.  The
    returned certificate carries the report of its own check on
    `requested_window`.
    """
    m = p.matrix if isinstance(p, InvertibleColFin) else p
    if m.ring != h.target:
        raise UnsupportedMatrixError(
            f"input lives over {m.ring}, hom target is {h.target}")
    factors = _word_factors(m, requested_window)
    return _assemble_certificate(h, m, factors, requested_window)


def _word_factors(m: ColFinMatrix, requested_window: int) -> list:
    """The target-side factor word of one supported input: two swindles of
    its corner (see gl_lift), or one generator factor; products are lifted
    factor by factor and their words concatenated."""
    if isinstance(m, ProductMatrix):
        return [cf for f in m.factors for cf in _word_factors(f, requested_window)]
    if isinstance(m, (Elementary, Permutation)):
        return [CertFactor(invert(m), "generator")]
    ring = m.ring
    prefix, tail = _as_blocks(m)
    blocks = [(b, _block_inverse(b, idx, ring)) for idx, b in enumerate(prefix)]
    tail_size = 1
    if tail is not None:
        tail_size = tail.size
        prefix_end = sum(b.size for b in prefix)
        copies = -(-max(2 * requested_window - prefix_end, 0) // tail_size)
        blocks += [(tail, _block_inverse(tail, "tail", ring))] * copies
    if all(b.is_identity(ring) for b, _ in blocks):
        return []
    corner, corner_inv = (_sparse_diagonal([pair[side] for pair in blocks])
                          for side in (0, 1))
    first, second = (swindle_factorization(corner, ring, offset=offset,
                                           u_inverse=corner_inv,
                                           tail_size=tail_size)
                     for offset in (0, corner.size))
    return list(first.factors + second.factors)


def _sparse_diagonal(blocks) -> SparseBlock:
    """diag(blocks...) as one SparseBlock."""
    cols, start = {}, 0
    for b in blocks:
        for j, col in b.cols.items():
            cols[start + j] = {start + i: v for i, v in col.items()}
        start += b.size
    return SparseBlock(start, cols)


def _word_pair(ring, factors) -> InvertibleColFin:
    """The product of the paired factors in listed order, with the product
    of their inverses in reverse order; the identity for an empty word."""
    if not factors:
        return InvertibleColFin(Identity(ring), Identity(ring))
    return InvertibleColFin(
        ProductMatrix(ring, [f.matrix for f in factors]),
        ProductMatrix(ring, [f.inverse for f in reversed(factors)]))


def _assemble_certificate(h, m, cert_factors, requested_window) -> LiftCertificate:
    lifted = []
    for cf in cert_factors:
        if _liftable_class(cf.inv.matrix) is None:
            raise LiftError("internal: emitted factor outside the liftable classes")
        lifted.append(invert(_lift_factor(h, cf.inv.matrix)))
    cert = LiftCertificate(h, m, _word_pair(h.source, lifted),
                           tuple(cf.tag for cf in cert_factors), requested_window)
    cert.report = verify_certificate(cert, requested_window)
    if not cert.report.passed:
        raise LiftVerificationError(
            "constructed lift failed verification: "
            + "; ".join(c.name + ": " + c.detail for c in cert.report.checks
                        if not c.passed))
    return cert


# ---------------------------------------------------------------------------
# Verification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float


@dataclass(frozen=True)
class VerificationReport:
    window: int
    checks: tuple

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self) -> dict:
        return {"window": self.window,
                "passed": self.passed,
                "checks": [{"name": c.name, "passed": c.passed,
                            "detail": c.detail,
                            "seconds": round(c.seconds, 6)}
                           for c in self.checks]}


def _first_window_mismatch(a: ColFinMatrix, b: ColFinMatrix, n: int):
    zero_a, zero_b = a.ring.zero(), b.ring.zero()
    for j in range(n):
        ca, cb = a.column(j), b.column(j)
        # rows absent from both sparse columns hold zero on both sides
        for i in sorted(i for i in ca.keys() | cb.keys() if i < n):
            va = ca.get(i, zero_a)
            vb = cb.get(i, zero_b)
            if va != vb:
                return (i, j, va, vb)
    return None


def verify_certificate(cert: LiftCertificate, window_size: int) -> VerificationReport:
    """Re-check a certificate: the image of the lift matches the input on
    the window, the paired inverse is two-sided exactly at every index
    (checked factor by factor, in time independent of the window), and
    every factor is a liftable generator.  Failures are report entries.
    """
    checks = []

    t0 = time.perf_counter()
    image = matrices.map_hom(cert.hom, cert.lift.matrix)
    mismatch = _first_window_mismatch(image, cert.input_matrix, window_size)
    detail = "image of lift equals input on window" if mismatch is None else \
        (f"first mismatch at (row {mismatch[0]}, col {mismatch[1]}): "
         f"{rings.render(mismatch[2])} != {rings.render(mismatch[3])}")
    checks.append(CheckResult("image_matches_input", mismatch is None,
                              detail, time.perf_counter() - t0))

    t0 = time.perf_counter()
    defect = _paired_inverse_defect(cert.lift)
    detail = "lift * inverse = inverse * lift = identity exactly, factor by factor" \
        if defect is None else defect
    checks.append(CheckResult("two_sided_inverse", defect is None,
                              detail, time.perf_counter() - t0))

    t0 = time.perf_counter()
    bad = None
    for idx, f in enumerate(cert.factors):
        if _liftable_class(f) is None:
            bad = idx
            break
    detail = "all factors are elementary/permutation/sign-diagonal" \
        if bad is None else f"factor {bad} is outside the liftable classes"
    checks.append(CheckResult("factor_classes", bad is None,
                              detail, time.perf_counter() - t0))

    return VerificationReport(window_size, tuple(checks))


# ---------------------------------------------------------------------------
# Certificate serialization
# ---------------------------------------------------------------------------

def certificate_to_json(cert: LiftCertificate) -> dict:
    factors = []
    for f, tag in zip(cert.factors, cert.factor_log):
        # product order: every factor composes by left multiplication
        factors.append({"tag": tag, "side": "L",
                        "matrix": matrices.matrix_to_json(f)})
    body = {
        "hom": cert.hom.name,
        "source_ring": rings.descriptor_to_json(cert.hom.source),
        "target_ring": rings.descriptor_to_json(cert.hom.target),
        "section_rule": cert.hom.section_rule,
        "input": matrices.matrix_to_json(cert.input_matrix),
        "factors": factors,
        "verified_window": cert.verified_window,
    }
    body["content_hash"] = _content_hash(body)
    return body


def _content_hash(body: dict) -> str:
    trimmed = {k: v for k, v in body.items() if k != "content_hash"}
    canon = json.dumps(trimmed, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def certificate_from_json(data: dict, registry) -> LiftCertificate:
    factors = data.get("factors") if isinstance(data, dict) else None
    if not isinstance(factors, list) or not all(isinstance(f, dict) for f in factors):
        raise ValueError("a certificate is a JSON object whose 'factors' is a "
                         "list of objects")
    hom = registry.get(data["hom"])
    source = rings.descriptor_from_json(data["source_ring"])
    target = rings.descriptor_from_json(data["target_ring"])
    if hom.source != source or hom.target != target:
        raise LiftError("certificate rings do not match the registered hom")
    input_matrix = matrices.matrix_from_json(target, data["input"])
    lift = _word_pair(source, [invert(matrices.matrix_from_json(source, f["matrix"]))
                               for f in factors])
    return LiftCertificate(hom, input_matrix, lift, tuple(f["tag"] for f in factors),
                           int(data["verified_window"]))
