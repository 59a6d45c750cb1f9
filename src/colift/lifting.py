"""Constructive lifting of invertible column-finite matrices along a
surjective ring map.

The factorization machinery: reduce a unimodular column to a basis vector by
elementary operations (using one spare zero slot), turn block pairs
diag(A, B) into diag(A*B, Id) by the classical four block operations, factor
the alternating infinite diagonal diag(U, U^-1, U, U^-1, ...) into at most
five infinite structured factors by applying those block operations on every
disjoint pair at once, and combine the three to lift any supported
eventually-periodic invertible matrix.  Every emitted factor is an
elementary matrix (lifted entrywise by the hom's zero-preserving section), a
permutation, or a sign diagonal (both defined over the image of Z, hence
lifted exactly); the paired inverse word is exact by construction.

A certificate records the factor word over the source ring, per-factor
provenance, and the window on which the image of the lift was checked
against the input.  Window checks are exact corner comparisons; for inputs
whose periodic tail genuinely requires the infinite-repetition trick the
word agrees with the input on (at least twice) the requested window, and
the certificate records that window rather than claiming more.
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
                       Permutation, ProductMatrix, ScalarDiagonal, invert,
                       multiply)
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

    def apply_to_matrix(self, m: ColFinMatrix) -> ColFinMatrix:
        out = m
        for step in self.steps:
            if step.side == "L":
                out = multiply(step.inv.matrix, out)
            else:
                out = multiply(out, step.inv.matrix)
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

def _reduction_entries(vector, witness: BezoutWitness):
    """The entries of the two operation families sending the padded column
    (a_1, ..., a_n, 0)^T to e_n: the Bezout row {i: c_i} (row n += c_i *
    row i) and the clearing column {i: -a_i} (row i -= a_i * row n), zeros
    left out.  The witness is checked first."""
    if not witness.check(vector):
        raise WitnessError("witness coefficients do not satisfy sum(c_i * a_i) = 1")
    bezout = {i: c for i, c in enumerate(witness.coefficients) if not c.is_zero()}
    clearing = {i: -a for i, a in enumerate(vector) if not a.is_zero()}
    return bezout, clearing


def unimodular_reduce(vector, witness: BezoutWitness) -> ElementaryWord:
    """An elementary word over indices 0..n sending the padded column
    (a_1, ..., a_n, 0)^T to e_0, checked exactly.

    The two displayed operation families land the created 1 in the spare
    slot n; a final 0 <-> n transposition (a permutation, which lifts
    exactly) moves it to slot 0.
    """
    vector = list(vector)
    n = len(vector)
    if n == 0:
        raise WitnessError("empty vector")
    ring = vector[0].ring
    bezout, clearing = _reduction_entries(vector, witness)
    steps = [_elem(ring, {i: {n: c}}, "column-reduction") for i, c in bezout.items()]
    steps += [_elem(ring, {n: {i: v}}, "column-reduction") for i, v in clearing.items()]
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


def _block_operations(ring, a: SparseBlock, b: SparseBlock, b_inv: SparseBlock,
                      offset: int = 0, periodic: bool = False) -> list:
    """The block operations turning diag(A, B) into diag(A*B, Id_k), as five
    matrices: C1 += C2 * B^-1, C2 -= C1 * B, the block swap C1 <-> C2 and
    C1 *= -1 (right factors, in this order), then R1 -= A * R2 (a left
    factor).  The signed swap is split into a permutation and a sign
    diagonal so every matrix stays in a liftable generator class.

    The pair sits at `offset`; with `periodic` the operations act on every
    pair offset + t*2k at once (their supports are disjoint), through one
    column family per nonzero column of a block."""
    k = a.size
    period = 2 * k
    minus_one, one = -ring.one(), ring.one()

    def corner(blk, row_base, col_base, negate=False):
        """id + (+-blk) with blk's (0, 0) entry at (row_base, col_base)."""
        cols = {col_base + j: {row_base + i: -v if negate else v
                               for i, v in blk.cols[j].items()}
                for j in sorted(blk.cols)}
        if periodic:
            return Elementary(ring, {}, [
                ColumnFamily(offset + j, period,
                             tuple((i - j, v) for i, v in col.items()))
                for j, col in cols.items()])
        return Elementary(ring, {offset + j: {offset + i: v for i, v in col.items()}
                                 for j, col in cols.items()})

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


def whitehead_word(block_a, block_b, ring: RingDescriptor) -> ElementaryWord:
    """The four block operations turning diag(A, B) into diag(A*B, Id_k).

    Column operations are right factors, the final row operation a left
    factor.
    """
    k = len(block_a)
    if len(block_b) != k:
        raise LiftError("blocks must have equal size")
    dense.adjugate_inverse(block_a)          # invertibility check
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
        ring, k = self.ring, self.block.size
        tail = [[ring.zero()] * (2 * k) for _ in range(2 * k)]
        for base, blk in ((0, self.block), (k, self.block_inverse)):
            for j, col in blk.cols.items():
                for i, v in col.items():
                    tail[base + i][base + j] = v
        prefix = [dense.identity(ring, self.offset)] if self.offset else []
        return BlockDiagonal(ring, prefix, tail)


def swindle_factorization(block_u, ring: RingDescriptor, offset: int = 0,
                          u_inverse=None, tag: str = "swindle") -> SwindleWord:
    """Factor diag(U, U^-1, U, U^-1, ...) into five infinite structured
    factors: the block operations that turn every disjoint pair
    diag(U, U^-1) into the identity, applied simultaneously on all pairs,
    inverted and read backwards.

    U may be a ring element, a dense block or a SparseBlock; U^-1 is given
    in the same form, or omitted for a dense U and computed by the
    adjugate.  Only nonzero entries are visited, so the work and the word
    are linear in the number of nonzero entries."""
    if isinstance(block_u, RingElement):
        block_u = [[block_u]]
    if u_inverse is None:
        u_inverse = dense.adjugate_inverse(block_u)
    u, u_inv = (b if isinstance(b, SparseBlock) else SparseBlock.from_dense(b)
                for b in (block_u, u_inverse))
    ops = _block_operations(ring, u, u_inv, u, offset, periodic=True)
    factors = tuple(CertFactor(invert(op).swapped(), tag) for op in reversed(ops))
    return SwindleWord(ring, factors, u, u_inv, offset)


# ---------------------------------------------------------------------------
# Block decomposition of supported inputs
# ---------------------------------------------------------------------------

def _as_blocks(m: ColFinMatrix):
    """(prefix dense blocks, tail block or None) for the supported classes."""
    ring = m.ring
    if isinstance(m, Identity):
        return [], None
    if isinstance(m, ScalarDiagonal):
        prefix = [[[d]] for d in m.prefix]
        cycle = m.tail_cycle
        tail = None if m.tail_is_one() else \
            [[d if i == j else ring.zero() for j, d in enumerate(cycle)]
             for i in range(len(cycle))]
        return prefix, tail
    if isinstance(m, FinitePerturbation):
        return ([list(map(list, m.corner))] if m.size else []), None
    if isinstance(m, BlockDiagonal):
        prefix = [list(map(list, b)) for b in m.prefix_blocks]
        tail = (list(map(list, m.tail_block))
                if m.tail_block is not None and not matrices._is_identity_block(m.tail_block)
                else None)
        return prefix, tail
    raise UnsupportedMatrixError(
        f"form {m.form!r} is not in the supported lifting classes "
        "(finite perturbation, unit scalar diagonal, invertible block "
        "diagonal, elementary, permutation, or a product of these)")


@dataclass
class _Pair:
    start: int
    b1: list
    b1_inv: list
    b2: list
    b2_inv: list


def _block_inverse(blk, name, ring):
    """The inverse of input block `name` (its prefix index or "tail"); dense
    size and invertibility errors become UnsupportedMatrixError here."""
    try:
        return dense.adjugate_inverse(blk, block_index=name)
    except dense.DenseSizeError as exc:
        raise UnsupportedMatrixError(str(exc)) from exc
    except dense.NonInvertibleError as exc:
        raise UnsupportedMatrixError(
            f"block {name} is not invertible over {ring}: {exc}") from exc


def _pair_blocks(prefix, tail, ring):
    """Group consecutive blocks into pairs; returns (exceptional pairs,
    first periodic pair start, periodic pair or None).

    Exceptional pairs cover all prefix blocks (padding with a tail or
    identity copy) so that beyond them the pairing is the exact repetition
    (tail, tail).  Every input block is inverted once, here; the padding
    and the periodic pair reuse the tail's inverse.
    """
    blocks = [(b, _block_inverse(b, idx, ring)) for idx, b in enumerate(prefix)]
    if tail is not None:
        padding = (tail, _block_inverse(tail, "tail", ring))
    else:
        padding = (dense.identity(ring, 1),) * 2
    if len(blocks) % 2:
        blocks.append(padding)
    pairs = []
    pos = 0
    for first, second in zip(blocks[::2], blocks[1::2]):
        pairs.append(_Pair(pos, *first, *second))
        pos += len(first[0]) + len(second[0])
    if tail is None:
        return pairs, pos, None
    return pairs, pos, _Pair(pos, *padding, *padding)


# ---------------------------------------------------------------------------
# Per-pair reduction data
# ---------------------------------------------------------------------------

@dataclass
class _PairWord:
    """Stage data for one block pair: the reduction word (as sparse pieces),
    the peeled row, and the residual invertible block."""

    start: int
    size: int
    k1: int
    bezout: dict              # {local row i: c_i}: row spare += c_i * row i
    clearing: dict            # {local row i: -a_i}: row i -= a_i * row spare
    swap: bool
    peel_entries: list        # (t*U^-1)[j] for j in 0..size-2, on the pair's first row
    v_block: list             # dense diag(1, U) block of this pair
    v_block_inv: list
    trivial: bool             # pair contributes nothing anywhere


def _reduce_pair(pair: _Pair, ring) -> _PairWord:
    """Reduce the first column of d = diag(B1, B2) to e_0 by row operations:
    column reduction of B1's first column, with the first row of B2 as the
    spare slot, then the 0 <-> spare swap.  This leaves d_red = [[1, t],
    [0, U]].  Its inverse [[1, -t*U^-1], [0, U^-1]] is built alongside from
    diag(B1^-1, B2^-1) by the mirrored column operations, so the residual
    needs no inversion of its own."""
    k1 = len(pair.b1)
    size = k1 + len(pair.b2)
    zero, one = ring.zero(), ring.one()

    def diag(x1, x2):
        out = [[zero] * size for _ in range(size)]
        for base, blk in ((0, x1), (k1, x2)):
            for i, row in enumerate(blk):
                out[base + i][base:base + len(row)] = row
        return out

    d = diag(pair.b1, pair.b2)
    d_inv = diag(pair.b1_inv, pair.b2_inv)
    col = [d[i][0] for i in range(k1)]
    bezout, clearing, swap = {}, {}, False
    if not (col[0].is_one() and all(v.is_zero() for v in col[1:])):
        # row 0 of B1^-1 is a witness for B1's first column
        bezout, clearing = _reduction_entries(
            col, BezoutWitness(tuple(pair.b1_inv[0])))
        spare = k1
        # d_red = R_n ... R_1 d, so d_red^-1 = d^-1 R_1^-1 ... R_n^-1
        for i, c in bezout.items():
            d[spare] = [x + c * y for x, y in zip(d[spare], d[i])]
            for row in d_inv:
                row[i] = row[i] - c * row[spare]
        for i, v in clearing.items():
            d[i] = [x + v * y for x, y in zip(d[i], d[spare])]
            for row in d_inv:
                row[spare] = row[spare] - v * row[i]
        d[0], d[spare] = d[spare], d[0]
        for row in d_inv:
            row[0], row[spare] = row[spare], row[0]
        swap = True

    if not (d[0][0].is_one()
            and all(d[i][0].is_zero() for i in range(1, size))):
        raise LiftVerificationError("pair reduction did not fix the first column")

    tu_inv = [-v for v in d_inv[0][1:]]
    # clearing the first rows leaves diag(1, U) and diag(1, U^-1)
    d[0] = [one] + [zero] * (size - 1)
    d_inv[0] = list(d[0])
    trivial = (not bezout and not clearing and not swap
               and all(v.is_zero() for v in tu_inv)
               and matrices._is_identity_block(d))
    return _PairWord(pair.start, size, k1, bezout, clearing, swap,
                     tu_inv, d, d_inv, trivial)


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
        if isinstance(self.lift.matrix, ProductMatrix):
            return tuple(self.lift.matrix.factors)
        if isinstance(self.lift.matrix, Identity):
            return ()
        return (self.lift.matrix,)

    def word_length(self) -> int:
        return len(self.factor_log)


def _is_sign_diagonal(m: ColFinMatrix) -> bool:
    one = m.ring.one()
    minus = -one
    if isinstance(m, Identity):
        return True
    if isinstance(m, ScalarDiagonal):
        return all(d == one or d == minus for d in m.prefix + m.tail_cycle)
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


def _lift_factor(h: RingHom, m: ColFinMatrix) -> ColFinMatrix:
    """Lift one liftable generator from the target ring to the source ring.

    Elementary factors lift entrywise by the hom's zero-preserving section;
    permutations and sign diagonals are carried by 1 -> 1 and -1 -> -1,
    which any unital ring map respects.
    """
    src = h.source
    if isinstance(m, Elementary):
        return Elementary(
            src,
            {j: {i: hom_section(h, v) for i, v in col.items()}
             for j, col in m.head_cols.items()},
            [ColumnFamily(f.start, f.period,
                          tuple((o, hom_section(h, v)) for o, v in f.entries))
             for f in m.families])
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
        return ScalarDiagonal(src, tuple(lift_sign(d) for d in m.prefix),
                              tuple(lift_sign(d) for d in m.tail_cycle))
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
    being inverted once when the pairs are reduced; a block that is not
    invertible, or too large for dense inversion, raises
    UnsupportedMatrixError naming it.

    Pipeline per block pair: reduce the pair's leading column with the spare
    slot of the second block (column-reduction), move the created unit into
    place with a transposition (rearrange), peel the elementary top-row
    factor (peel-elementary); the residual diag(1, U, 1, U, ...) is split
    into a finite corner handled exactly by two interleaved alternating
    diagonals (swindle).  The corner horizon is at least twice the requested
    window plus the factor bandwidth, so the certificate re-verifies at
    double its stated window.  Elementary and permutation inputs are
    liftable generators and become one-factor words ("generator"); products
    are lifted factor by factor.  The returned certificate carries the
    report of its own check on `requested_window`.
    """
    m = p.matrix if isinstance(p, InvertibleColFin) else p
    if m.ring != h.target:
        raise UnsupportedMatrixError(
            f"input lives over {m.ring}, hom target is {h.target}")
    factors = _word_factors(m, requested_window)
    return _assemble_certificate(h, m, factors, requested_window)


def _word_factors(m: ColFinMatrix, requested_window: int) -> list:
    """The target-side factor word of one supported input; products are
    lifted factor by factor and their words concatenated."""
    if isinstance(m, ProductMatrix):
        return [cf for f in m.factors for cf in _word_factors(f, requested_window)]
    if isinstance(m, (Elementary, Permutation)):
        return [CertFactor(invert(m), "generator")]
    target = m.ring
    prefix, tail = _as_blocks(m)
    pairs, prefix_end, periodic = _pair_blocks(prefix, tail, target)

    pair_words = [_reduce_pair(pr, target) for pr in pairs]
    periodic_word = _reduce_pair(periodic, target) if periodic else None

    return (_stage_factors(target, pair_words, periodic_word, prefix_end)
            + _corner_factors(target, pair_words, periodic_word,
                              prefix_end, requested_window))


def _stage_factors(ring, pair_words, periodic_word, prefix_end):
    """Column-reduction, rearrange and peel factors, fused across all pairs."""
    f1_head, f2_head, peel_head = {}, {}, {}
    swap_map = {}
    f1_fams, f2_fams, peel_fams = [], [], []
    period = None
    swap_periodic = None

    for pw in pair_words:
        spare = pw.start + pw.k1
        for i, c in pw.bezout.items():
            f1_head[pw.start + i] = {spare: c}
        if pw.clearing:
            f2_head[spare] = {pw.start + i: v for i, v in pw.clearing.items()}
        if pw.swap:
            swap_map[pw.start] = spare
            swap_map[spare] = pw.start
        for j, v in enumerate(pw.peel_entries):
            if not v.is_zero():
                peel_head.setdefault(pw.start + 1 + j, {})[pw.start] = v

    if periodic_word is not None and not periodic_word.trivial:
        pw = periodic_word
        period = pw.size
        spare_rel = pw.k1
        for i, c in pw.bezout.items():
            f1_fams.append(ColumnFamily(pw.start + i, period,
                                        ((spare_rel - i, c),)))
        if pw.clearing:
            f2_fams.append(ColumnFamily(
                pw.start + spare_rel, period,
                tuple((i - spare_rel, v) for i, v in pw.clearing.items())))
        if pw.swap:
            images = list(range(period))
            images[0], images[spare_rel] = images[spare_rel], images[0]
            swap_periodic = BlockPeriodicPermutation(pw.start, period, tuple(images))
        for j, v in enumerate(pw.peel_entries):
            if not v.is_zero():
                peel_fams.append(ColumnFamily(pw.start + 1 + j, period,
                                              ((-(1 + j), v),)))

    out = []
    if f1_head or f1_fams:
        f1 = Elementary(ring, f1_head, f1_fams)
        out.append(CertFactor(invert(f1).swapped(), "column-reduction"))
    if f2_head or f2_fams:
        f2 = Elementary(ring, f2_head, f2_fams)
        out.append(CertFactor(invert(f2).swapped(), "column-reduction"))
    if swap_map:
        out.append(CertFactor(invert(Permutation(
            ring, FinitePermutation(tuple(sorted(swap_map.items()))))).swapped(),
            "rearrange"))
    if swap_periodic is not None:
        out.append(CertFactor(invert(Permutation(ring, swap_periodic)).swapped(),
                              "rearrange"))
    if peel_head or peel_fams:
        out.append(CertFactor(invert(Elementary(ring, peel_head, peel_fams)),
                              "peel-elementary"))
    return out


def _corner_factors(ring, pair_words, periodic_word, prefix_end, requested_window):
    """Factor the residual diag(1, U_1, 1, U_2, ...) exactly when its tail is
    trivial, else through a corner whose two interleaved alternating
    diagonals reproduce it beyond twice the requested window."""
    max_size = max([pw.size for pw in pair_words], default=1)
    if periodic_word is not None:
        max_size = max(max_size, periodic_word.size)

    tail_trivial = periodic_word is None or \
        matrices._is_identity_block(periodic_word.v_block)
    if tail_trivial:
        horizon = prefix_end
    else:
        horizon = max(2 * requested_window + 8 * max_size, prefix_end)
        steps = -(-max(horizon - prefix_end, 0) // periodic_word.size)
        horizon = prefix_end + steps * periodic_word.size

    segments = []       # (start, v_block, v_inv)
    for pw in pair_words:
        segments.append((pw.start, pw.v_block, pw.v_block_inv))
    if periodic_word is not None:
        start = prefix_end
        while start < horizon:
            segments.append((start, periodic_word.v_block,
                             periodic_word.v_block_inv))
            start += periodic_word.size

    if all(matrices._is_identity_block(b) for _, b, _ in segments):
        return []

    # the nonzero entries of diag(1, U_1, 1, U_2, ...) and of its inverse,
    # column by column; the segments tile [0, horizon)
    cols, cols_inv = {}, {}
    for s, blk, binv in segments:
        for out, b in ((cols, blk), (cols_inv, binv)):
            for j in range(len(b)):
                out[s + j] = {s + i: row[j] for i, row in enumerate(b)
                              if not row[j].is_zero()}
    corner = SparseBlock(horizon, cols)
    corner_inv = SparseBlock(horizon, cols_inv)

    first = swindle_factorization(corner, ring, offset=0, u_inverse=corner_inv)
    second = swindle_factorization(corner, ring, offset=horizon,
                                   u_inverse=corner_inv)
    return list(first.factors) + list(second.factors)


def _lift_invertible(h: RingHom, inv: InvertibleColFin) -> InvertibleColFin:
    """Lift a liftable generator together with an exact two-sided inverse.

    The inverse of a lifted elementary factor is its structural negation
    (not the entrywise section of the target inverse, which need not negate
    under a residue-style section); permutations and sign diagonals invert
    structurally.
    """
    lifted = _lift_factor(h, inv.matrix)
    if isinstance(lifted, Elementary):
        return InvertibleColFin(lifted, lifted.negated())
    return InvertibleColFin(lifted, invert(lifted).inverse)


def _assemble_certificate(h, m, cert_factors, requested_window) -> LiftCertificate:
    source = h.source
    lifted = []
    for cf in cert_factors:
        if _liftable_class(cf.inv.matrix) is None:
            raise LiftError("internal: emitted factor outside the liftable classes")
        lifted.append(CertFactor(_lift_invertible(h, cf.inv), cf.tag))
    if lifted:
        lift = InvertibleColFin(
            ProductMatrix(source, [cf.inv.matrix for cf in lifted]),
            ProductMatrix(source, [cf.inv.inverse for cf in reversed(lifted)]))
    else:
        lift = InvertibleColFin(Identity(source), Identity(source))
    cert = LiftCertificate(h, m, lift, tuple(cf.tag for cf in lifted),
                           requested_window)
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
    the window, the paired inverse is two-sided on the window, and every
    factor is a liftable generator.  Failures are report entries.
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
    ident = Identity(cert.lift.matrix.ring)
    left = multiply(cert.lift.matrix, cert.lift.inverse)
    mismatch = _first_window_mismatch(left, ident, window_size)
    if mismatch is None:
        right = multiply(cert.lift.inverse, cert.lift.matrix)
        mismatch = _first_window_mismatch(right, ident, window_size)
    detail = "lift * inverse = inverse * lift = identity on window" \
        if mismatch is None else \
        (f"first mismatch at (row {mismatch[0]}, col {mismatch[1]})")
    checks.append(CheckResult("two_sided_inverse", mismatch is None,
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
    hom = registry.get(data["hom"])
    source = rings.descriptor_from_json(data["source_ring"])
    target = rings.descriptor_from_json(data["target_ring"])
    if hom.source != source or hom.target != target:
        raise LiftError("certificate rings do not match the registered hom")
    input_matrix = matrices.matrix_from_json(target, data["input"])
    factor_invs = []
    tags = []
    for f in data["factors"]:
        m = matrices.matrix_from_json(source, f["matrix"])
        factor_invs.append(invert(m))
        tags.append(f["tag"])
    if factor_invs:
        lift = InvertibleColFin(
            ProductMatrix(source, [fi.matrix for fi in factor_invs]),
            ProductMatrix(source, [fi.inverse for fi in reversed(factor_invs)]))
    else:
        lift = InvertibleColFin(Identity(source), Identity(source))
    return LiftCertificate(hom, input_matrix, lift, tuple(tags),
                           int(data["verified_window"]))
