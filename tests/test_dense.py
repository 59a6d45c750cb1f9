"""Berkowitz determinants and Cayley-Hamilton inverses against the memoized
cofactor expansion they replaced, which is kept here as the oracle."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from colift import dense, rings
from colift.dense import DenseSizeError, NonInvertibleError
from colift.rings import integers, laurent, polynomial, residue

from conftest import random_invertible_mod

# -- oracle: cofactor expansion along rows, memoized on column sets -------------


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


def oracle_determinant(a):
    n = len(a)
    return _det_rows(a, tuple(range(n)), tuple(range(n)), {}, a[0][0].ring)


def oracle_inverse(a, block_index=None):
    """Inverse of a non-diagonal block by its matrix of minors."""
    n = len(a)
    ring = a[0][0].ring
    where = "" if block_index is None else f" (block {block_index})"
    det = oracle_determinant(a)
    det_inv = rings.is_unit(det)
    if det_inv is None:
        raise NonInvertibleError(
            f"determinant {rings.render(det)} is not a unit of {ring}{where}",
            det=det, block_index=block_index)
    memo = {}
    rows = cols = tuple(range(n))
    out = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = _det_rows(a, rows[:i] + rows[i + 1:], cols[:j] + cols[j + 1:],
                              memo, ring)
            out[j][i] = (minor if (i + j) % 2 == 0 else -minor) * det_inv
    return out


# -- differential test over rings with and without zero divisors ----------------

Z, Z101, Z12 = integers(), residue(101), residue(12)
LAU = laurent("u")
Z4X = polynomial(["x"], residue(4))


def _terms(ring):
    if ring.kind in ("integers", "residue"):
        return st.integers(-3, 3).map(ring.from_int)
    keys = st.integers(-2, 2) if ring.kind == "laurent" else \
        st.integers(0, 2).map(lambda e: (e,))
    return st.lists(st.tuples(keys, st.integers(-3, 3)), max_size=2).map(
        lambda terms: sum((ring.monomial(k, c) for k, c in terms), ring.zero()))


# units put on the diagonals of the triangular factors; 1 + 2x is a unit of
# (Z/4)[x] because 2x is nilpotent
UNITS = {
    Z: ["1", "-1"],
    Z101: ["1", "5", "100", "37"],
    Z12: ["1", "5", "7", "11"],
    LAU: ["1", "-1", "u", "-u^-2"],
    Z4X: ["1", "3", "1 + 2*x", "3 + 2*x^2"],
}


@st.composite
def _blocks(draw, ring):
    """A random n x n block, n <= 8, or a product of unit triangular blocks,
    which is invertible; either way never diagonal for n >= 2."""
    n = draw(st.integers(1, 8))
    entry = _terms(ring)
    square = lambda: [[draw(entry) for _ in range(n)] for _ in range(n)]
    a = square()
    if n >= 2 and a[0][1].is_zero():
        a[0][1] = ring.one()
    if draw(st.booleans()):
        units = st.sampled_from(UNITS[ring]).map(
            lambda s: rings.parse_element(ring, s))
        lower = square()
        lower = [[lower[i][j] if i > j else draw(units) if i == j
                  else ring.zero() for j in range(n)] for i in range(n)]
        upper = [[a[i][j] if i < j else draw(units) if i == j else ring.zero()
                  for j in range(n)] for i in range(n)]
        a = dense.mat_mul(lower, upper)       # a[0][1] is a unit times a[0][1]
    return a


@pytest.mark.parametrize("ring", list(UNITS), ids=str)
def test_berkowitz_matches_cofactor_expansion(ring):
    @settings(max_examples=40, deadline=None)
    @given(_blocks(ring), st.sampled_from([None, 2, "tail"]))
    def agree(a, block_index):
        assert dense.determinant(a) == oracle_determinant(a)
        if len(a) == 1:
            return
        try:
            want = oracle_inverse(a, block_index)
        except NonInvertibleError as exc:
            with pytest.raises(NonInvertibleError) as info:
                dense.adjugate_inverse(a, block_index=block_index)
            assert str(info.value) == str(exc)
            assert info.value.det == exc.det
            assert info.value.block_index == block_index
        else:
            assert dense.adjugate_inverse(a, block_index=block_index) == want

    agree()


@pytest.mark.parametrize("n", [9, 16, 32])
def test_inverse_of_random_z101_blocks_up_to_the_cap(n):
    a = random_invertible_mod(Z101, n, random.Random(n))
    inv = dense.adjugate_inverse(a)
    ident = dense.identity(Z101, n)
    assert dense.mat_mul(a, inv) == ident
    assert dense.mat_mul(inv, a) == ident


def test_determinant_of_a_triangular_product():
    """det(L U) is the product of U's diagonal when L is unit lower
    triangular: an oracle that needs no expansion at 16 x 16."""
    rng = random.Random(7)
    n, p = 16, 101
    lower = [[Z101.from_int(rng.randrange(p)) if i > j else Z101.from_int(i == j)
              for j in range(n)] for i in range(n)]
    diag = [rng.randrange(1, p) for _ in range(n)]
    upper = [[Z101.from_int(rng.randrange(p)) if i < j
              else Z101.from_int(diag[i]) if i == j else Z101.zero()
              for j in range(n)] for i in range(n)]
    want = 1
    for d in diag:
        want = want * d % p
    assert dense.determinant(dense.mat_mul(lower, upper)) == Z101.from_int(want)


def test_the_cap_holds_for_non_diagonal_blocks_only():
    n = dense.MAX_ADJUGATE_SIZE + 1
    diagonal = [[Z101.from_int(3 if i == j else 0) for j in range(n)]
                for i in range(n)]
    assert dense.adjugate_inverse(diagonal)[n - 1][n - 1] == Z101.from_int(34)
    diagonal[0][1] = Z101.one()
    with pytest.raises(DenseSizeError, match="block 0 is 33x33"):
        dense.adjugate_inverse(diagonal, block_index=0)
    with pytest.raises(DenseSizeError):
        dense.determinant(diagonal)
