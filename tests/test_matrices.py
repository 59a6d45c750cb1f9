import json
import math
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from colift import dense, matrices, rings
from colift.dense import NonInvertibleError
from colift.homs import HomRegistry
from colift.matrices import (BlockDiagonal, BlockPeriodicPermutation,
                             ColumnFamily, Elementary, FinitePermutation,
                             FinitePerturbation, Identity, MatrixFormError,
                             NotEventuallyPeriodicError, Permutation,
                             ProductMatrix, ScalarDiagonal     ,
                             eq_eventually_periodic, invert, map_hom,
                             matrix_from_json, matrix_to_json, multiply,
                             window)

from conftest import inverse_apply, two_sided_on_window

REG = HomRegistry.builtin()
FLAGSHIP = REG.get("zxy_to_laurent")
Z = rings.integers()
Z5 = rings.residue(5)
LAU = rings.laurent("u")


def ints(ring, rows):
    return [[ring.from_int(v) for v in row] for row in rows]


def as_int_window(m, n):
    w = window(m, n)
    return [[v.payload for v in row] for row in w]


# ---------------------------------------------------------------------------
# column examples
# ---------------------------------------------------------------------------

def test_identity_column():
    assert matrices.column(Identity(Z), 7) == {7: Z.one()}


def test_scalar_diagonal_column_is_the_tail_everywhere():
    u = LAU.variable("u")
    d = ScalarDiagonal(LAU, (), u)
    assert matrices.column(d, 3) == {3: u}


def test_elementary_column_adds_the_perturbation():
    x = rings.parse_element(rings.polynomial(["x", "y"]), "x")
    ring = x.ring
    e = Elementary(ring, {0: {1: x}})
    assert matrices.column(e, 0) == {0: ring.one(), 1: x}
    assert matrices.column(e, 5) == {5: ring.one()}


def test_negative_column_rejected():
    with pytest.raises(ValueError):
        matrices.column(Identity(Z), -1)


# ---------------------------------------------------------------------------
# window examples
# ---------------------------------------------------------------------------

def test_identity_window():
    assert as_int_window(Identity(Z), 3) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


def test_permutation_window_swap():
    p = Permutation(Z, FinitePermutation(((0, 1), (1, 0))))
    assert as_int_window(p, 2) == [[0, 1], [1, 0]]


def test_product_of_elementary_and_inverse_is_identity_on_window():
    x = rings.parse_element(rings.polynomial(["x", "y"]), "x^2 - 1")
    ring = x.ring
    e = Elementary(ring, {0: {1: x}, 3: {5: ring.one()}})
    prod = ProductMatrix(ring, [e, invert(e).inverse])
    assert window(prod, 16) == window(Identity(ring), 16)


# ---------------------------------------------------------------------------
# multiply: fusion rules
# ---------------------------------------------------------------------------

def test_multiply_identity_absorbs():
    d = ScalarDiagonal(LAU, (), LAU.variable("u"))
    assert multiply(d, Identity(LAU)) is d
    assert multiply(Identity(LAU), d) is d


def test_scalar_diagonal_fusion_to_identity():
    u = LAU.variable("u")
    d = ScalarDiagonal(LAU, (), u)
    dinv = ScalarDiagonal(LAU, (), rings.is_unit(u))
    fused = multiply(d, dinv)
    assert isinstance(fused, Identity)


def test_finite_perturbation_fusion_matches_dense_product():
    rng = random.Random(5)
    for _ in range(20):
        n = rng.randrange(1, 4)
        a = ints(Z, [[rng.randrange(-3, 4) for _ in range(n)] for _ in range(n)])
        b = ints(Z, [[rng.randrange(-3, 4) for _ in range(n)] for _ in range(n)])
        fa, fb = FinitePerturbation(Z, a), FinitePerturbation(Z, b)
        fused = multiply(fa, fb)
        # oracle: dense product of the corners
        expect = dense.mat_mul(a, b)
        got = window(fused, n)
        assert got == expect


def test_block_and_scalar_fuse_with_alignable_periods():
    d = ScalarDiagonal(Z, (Z.from_int(2),), Z.from_int(1))
    b = BlockDiagonal(Z, [], ints(Z, [[1, 1], [0, 1]]))
    fused = multiply(d, b)
    assert window(fused, 6) == window(ProductMatrix(Z, [d, b]), 6)


def test_incompatible_forms_stay_products():
    e = Elementary(Z, {0: {1: Z.one()}})
    d = ScalarDiagonal(Z, (), Z.from_int(-1))
    assert isinstance(multiply(e, d), ProductMatrix)


# ---------------------------------------------------------------------------
# invert examples
# ---------------------------------------------------------------------------

def test_invert_elementary_negates():
    x = rings.parse_element(rings.polynomial(["x", "y"]), "x")
    e = Elementary(x.ring, {0: {1: x}})
    inv = invert(e).inverse
    assert matrices.column(inv, 0) == {0: x.ring.one(), 1: -x}


def test_invert_permutation():
    p = Permutation(Z, FinitePermutation(((0, 1), (1, 2), (2, 0))))
    inv = invert(p)
    assert as_int_window(multiply(inv.matrix, inv.inverse), 4) \
        == as_int_window(Identity(Z), 4)


def test_invert_block_diagonal_by_adjugate():
    b = BlockDiagonal(Z, [], ints(Z, [[2, 1], [1, 1]]))
    inv = invert(b).inverse
    # oracle: 2x2 adjugate formula, det = 2*1 - 1*1 = 1
    assert 2 * 1 - 1 * 1 == 1
    assert [[v.payload for v in row] for row in inv.tail_block] \
        == [[1, -1], [-1, 2]]


def test_invert_non_unit_scalar_reports_entry():
    d = ScalarDiagonal(LAU, (), rings.parse_element(LAU, "u + 1"))
    with pytest.raises(NonInvertibleError) as info:
        invert(d)
    assert "u + 1" in str(info.value)


def test_invert_non_unit_block_reports_index():
    b = BlockDiagonal(Z, [ints(Z, [[1]]), ints(Z, [[2]])], None)
    with pytest.raises(NonInvertibleError) as info:
        invert(b)
    assert info.value.block_index == 1


def test_invertible_verify_window():
    u = LAU.variable("u")
    inv = invert(ScalarDiagonal(LAU, (u * u,), rings.is_unit(u)))
    assert two_sided_on_window(inv.matrix, inv.inverse, 10)


# ---------------------------------------------------------------------------
# map_hom
# ---------------------------------------------------------------------------

def test_map_hom_identity():
    assert isinstance(map_hom(FLAGSHIP, Identity(FLAGSHIP.source)), Identity)


def test_map_hom_scalar_diagonal():
    x = rings.parse_element(FLAGSHIP.source, "x")
    d = ScalarDiagonal(FLAGSHIP.source, (), x)
    out = map_hom(FLAGSHIP, d)
    assert out.tail == rings.parse_element(FLAGSHIP.target, "u")


def test_map_hom_window_property():
    rng = random.Random(17)
    for _ in range(25):
        m = _random_structured(FLAGSHIP.source, rng, max_index=6)
        out = map_hom(FLAGSHIP, m)
        n = 10
        wm = window(m, n)
        wout = window(out, n)
        for i in range(n):
            for j in range(n):
                assert wout[i][j] == FLAGSHIP.apply(wm[i][j])


def test_map_hom_ring_mismatch():
    with pytest.raises(rings.RingError):
        map_hom(FLAGSHIP, Identity(FLAGSHIP.target))


# ---------------------------------------------------------------------------
# eventually periodic equality
# ---------------------------------------------------------------------------

def test_eq_identity_vs_all_one_scalar_diagonal():
    assert eq_eventually_periodic(Identity(Z), ScalarDiagonal(Z, (), Z.one()))


def test_eq_scalar_u_vs_identity_false():
    d = ScalarDiagonal(LAU, (), LAU.variable("u"))
    assert not eq_eventually_periodic(d, Identity(LAU))


def test_eq_fused_product_with_inverse():
    d = ScalarDiagonal(LAU, (LAU.variable("u", 2),), LAU.variable("u"))
    inv = invert(d)
    prod = ProductMatrix(LAU, [d, inv.inverse])
    assert eq_eventually_periodic(prod, Identity(LAU))


class _Opaque(matrices.ColFinMatrix):
    """A column-finite form without a shift-equivariance profile."""

    form = "opaque"

    def __init__(self, ring):
        self.ring = ring

    def column(self, j):
        return {j: self.ring.one()}


def test_eq_rejects_non_periodic_forms():
    with pytest.raises(NotEventuallyPeriodicError):
        eq_eventually_periodic(_Opaque(Z), Identity(Z))
    e = Elementary(Z, {0: {1: Z.one()}})
    assert eq_eventually_periodic(e, Identity(Z)) is False


def test_eq_different_block_alignment():
    two_block = BlockDiagonal(Z, [], ints(Z, [[3, 0], [0, 3]]))
    scalar = ScalarDiagonal(Z, (), Z.from_int(3))
    assert eq_eventually_periodic(two_block, scalar)


# ---------------------------------------------------------------------------
# randomized structural suites (200 cases each)
# ---------------------------------------------------------------------------

from conftest import random_structured as _random_structured


def _random_invertible(ring, rng):
    while True:
        try:
            return invert(_random_structured(ring, rng))
        except NonInvertibleError:
            pass


@st.composite
def _word_pairs(draw):
    """Two products of 1-3 random forms; half the time the second is the
    first with g*g^-1 inserted at a random position, so the two are equal."""
    ring = draw(st.sampled_from([Z, Z5, LAU]))
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    a = [_random_structured(ring, rng) for _ in range(rng.randint(1, 3))]
    if draw(st.booleans()):
        g = _random_invertible(ring, rng)
        k = rng.randint(0, len(a))
        b = a[:k] + [g.matrix, g.inverse] + a[k:]
    else:
        b = [_random_structured(ring, rng) for _ in range(rng.randint(1, 3))]
    return ProductMatrix(ring, a), ProductMatrix(ring, b)


_REVERSE4 = Permutation(Z, BlockPeriodicPermutation(0, 4, (3, 2, 1, 0)))


@given(_word_pairs())
@example((ProductMatrix(Z, [ScalarDiagonal(Z, (Z.from_int(2),), Z.one()),
                            _REVERSE4]),
          ProductMatrix(Z, [_REVERSE4,
                            ScalarDiagonal(Z, (), ints(Z, [[1, 1, 1, 2]])[0])])))
@settings(max_examples=200, deadline=None)
def test_eq_agrees_with_a_column_by_column_comparison(pair):
    """The profile decider against the column oracle, well past the
    columns it reads.  The pinned pair differs first at column 7, which a
    product rule without the `+ b_B` in its offset never reads."""
    a, b = pair
    (oa, pa, ba), (ob, pb, bb) = matrices.profile(a), matrices.profile(b)
    n = 3 * (max(oa, ob) + 2 * math.lcm(pa, pb) + ba + bb) + 8
    oracle = all(matrices.column(a, j) == matrices.column(b, j)
                 for j in range(n))
    assert eq_eventually_periodic(a, b) == oracle


def test_flagship_lift_times_its_inverse_is_exactly_the_identity():
    from colift.lifting import gl_lift
    u = LAU.variable("u")
    cert = gl_lift(FLAGSHIP, invert(ScalarDiagonal(LAU, (), u)), 16)
    ident = Identity(FLAGSHIP.source)
    assert eq_eventually_periodic(
        multiply(cert.lift.matrix, cert.lift.inverse), ident)
    assert not eq_eventually_periodic(cert.lift.matrix, ident)


@pytest.mark.parametrize("ring", [Z, Z5, LAU], ids=str)
def test_column_finiteness_and_support_bounds(ring):
    rng = random.Random(23)
    cases = 0
    while cases < 200:
        m = _random_structured(ring, rng)
        for _ in range(50):
            j = rng.randrange(24)
            col = matrices.column(m, j)
            assert all(i >= 0 for i in col)
            assert len(col) < 10_000
        cases += 1


def test_window_associativity_200_cases():
    rng = random.Random(29)
    for _ in range(200):
        ring = rng.choice([Z, Z5, LAU])
        a, b, c = (_random_structured(ring, rng) for _ in range(3))
        n = rng.choice([4, 8, 16, 32])
        left = multiply(a, multiply(b, c))
        right = multiply(multiply(a, b), c)
        assert window(left, n) == window(right, n)


def test_elementary_inverse_identity_200_cases():
    rng = random.Random(31)
    for _ in range(200):
        ring = rng.choice([Z, Z5, LAU])
        while True:
            m = _random_structured(ring, rng)
            if isinstance(m, Elementary):
                break
        prod = multiply(m, invert(m).inverse)
        assert window(prod, 64) == window(Identity(ring), 64)


def test_hom_functoriality_200_cases():
    rng = random.Random(37)
    src = FLAGSHIP.source
    for _ in range(200):
        a = _random_structured(src, rng)
        b = _random_structured(src, rng)
        lhs = map_hom(FLAGSHIP, multiply(a, b))
        rhs = multiply(map_hom(FLAGSHIP, a), map_hom(FLAGSHIP, b))
        assert window(lhs, 32) == window(rhs, 32)


def test_permutations_lift_exactly_200_cases():
    rng = random.Random(41)
    for _ in range(200):
        if rng.random() < 0.5:
            idx = list(range(rng.randrange(2, 8)))
            images = idx[:]
            rng.shuffle(images)
            bij = FinitePermutation(tuple((i, s) for i, s in zip(idx, images)
                                          if i != s))
        else:
            period = rng.randrange(2, 5)
            images = list(range(period))
            rng.shuffle(images)
            bij = BlockPeriodicPermutation(rng.randrange(3), period,
                                           tuple(images))
        p = Permutation(FLAGSHIP.source, bij)
        out = map_hom(FLAGSHIP, p)
        assert isinstance(out, Permutation)
        assert out.bijection is p.bijection
        for j in range(20):
            assert matrices.column(out, j) == {bij(j): FLAGSHIP.target.one()}


# ---------------------------------------------------------------------------
# structural validation and serialization
# ---------------------------------------------------------------------------

def test_elementary_rejects_rows_inside_column_set():
    with pytest.raises(MatrixFormError):
        Elementary(Z, {0: {1: Z.one()}, 1: {2: Z.one()}})


def test_elementary_rejects_overlapping_family_rows():
    fam = ColumnFamily(0, 2, ((2, Z.one()),))   # rows hit even columns
    with pytest.raises(MatrixFormError):
        Elementary(Z, {}, [fam])


def test_permutation_validation():
    with pytest.raises(MatrixFormError):
        FinitePermutation(((0, 1),))            # not a bijection
    with pytest.raises(MatrixFormError):
        BlockPeriodicPermutation(0, 2, (0, 0))


def test_matrix_json_roundtrip():
    rng = random.Random(43)
    for ring in (Z, LAU):
        for _ in range(30):
            m = _random_structured(ring, rng)
            data = matrix_to_json(m)
            back = matrix_from_json(ring, data)
            assert window(back, 12) == window(m, 12)


def test_index_bijection_forward_inverse_on_window():
    bij = BlockPeriodicPermutation(2, 3, (1, 2, 0))
    for idx in range(40):
        assert inverse_apply(bij, bij(idx)) == idx
        assert bij(inverse_apply(bij, idx)) == idx


def test_matrix_json_spec_examples():
    d = matrix_from_json(LAU, {"form": "scalar_diagonal", "prefix": [],
                               "tail": "u"})
    assert isinstance(d, ScalarDiagonal)
    x_ring = rings.polynomial(["x", "y"])
    e = matrix_from_json(x_ring, {"form": "elementary", "J": {"finite": [0]},
                                  "cols": {"0": {"1": "x"}}})
    assert matrices.column(e, 0) == {0: x_ring.one(),
                                     1: x_ring.variable("x")}
    p = matrix_from_json(LAU, {"form": "product", "factors": [
        {"form": "identity"},
        {"form": "scalar_diagonal", "prefix": [], "tail": "u"}]})
    assert matrices.column(p, 2) == {2: LAU.variable("u")}


# ---------------------------------------------------------------------------
# periodic scalar-diagonal tails
# ---------------------------------------------------------------------------

def test_scalar_diagonal_periodic_tail_columns():
    d = ScalarDiagonal(Z, ints(Z, [[7]])[0], ints(Z, [[1, -1, 2]])[0])
    assert [matrices.column(d, j)[j].payload for j in range(8)] \
        == [7, 1, -1, 2, 1, -1, 2, 1]
    assert d.period == 3


def test_scalar_diagonal_cycle_reduces_to_minimal_period():
    d = ScalarDiagonal(Z, (), ints(Z, [[-1, 1, -1, 1]])[0])
    assert d.period == 2
    single = ScalarDiagonal(Z, (), ints(Z, [[5, 5, 5]])[0])
    assert single.period == 1 and single.tail == Z.from_int(5)


def test_scalar_diagonal_empty_cycle_rejected():
    with pytest.raises(MatrixFormError):
        ScalarDiagonal(Z, (), ())
    with pytest.raises(MatrixFormError):
        matrix_from_json(Z, {"form": "scalar_diagonal", "prefix": [], "tail": []})


def test_invert_periodic_scalar_diagonal():
    u = LAU.variable("u")
    uinv = rings.is_unit(u)
    d = ScalarDiagonal(LAU, (u * u,), (u, -LAU.one(), uinv))
    inv = invert(d)
    assert inv.inverse.tail == (uinv, -LAU.one(), u)
    assert two_sided_on_window(inv.matrix, inv.inverse, 12)
    assert eq_eventually_periodic(multiply(d, inv.inverse), Identity(LAU))


def test_invert_periodic_tail_reports_the_non_unit_entry():
    d = ScalarDiagonal(LAU, (), (LAU.one(), rings.parse_element(LAU, "u + 1")))
    with pytest.raises(NonInvertibleError) as info:
        invert(d)
    assert "u + 1" in str(info.value)
    assert info.value.block_index == "tail"


def test_multiply_periodic_tails_uses_the_lcm_cycle():
    a = ScalarDiagonal(Z, ints(Z, [[3]])[0], ints(Z, [[1, -1]])[0])
    b = ScalarDiagonal(Z, (), ints(Z, [[2, 1, 5]])[0])
    c = multiply(a, b)
    assert isinstance(c, ScalarDiagonal)
    assert c.period == 6
    n = 20
    wa, wb = as_int_window(a, n), as_int_window(b, n)
    assert [as_int_window(c, n)[j][j] for j in range(n)] \
        == [wa[j][j] * wb[j][j] for j in range(n)]


def test_multiply_inverse_cycles_normalizes_to_identity():
    d = ScalarDiagonal(Z, (), ints(Z, [[-1, -1, 1, 1]])[0])
    assert isinstance(multiply(d, d), Identity)


def test_eq_eventually_periodic_with_periodic_tails():
    a = ScalarDiagonal(Z, (), ints(Z, [[1, -1]])[0])
    shifted = ScalarDiagonal(Z, ints(Z, [[1]])[0], ints(Z, [[-1, 1]])[0])
    assert eq_eventually_periodic(a, shifted)
    block = BlockDiagonal(Z, [], ints(Z, [[1, 0], [0, -1]]))
    assert eq_eventually_periodic(a, block)
    other = ScalarDiagonal(Z, (), ints(Z, [[1, -1, 1]])[0])
    assert not eq_eventually_periodic(a, other)


def test_periodic_tail_json_roundtrip_and_map_hom():
    src = FLAGSHIP.source
    x = rings.parse_element(src, "x")
    d = ScalarDiagonal(src, (x,), (src.one(), -src.one(), x * x))
    data = matrix_to_json(d)
    assert data == {"form": "scalar_diagonal", "prefix": ["x"],
                    "tail": ["1", "-1", "x^2"]}
    back = matrix_from_json(src, json.loads(json.dumps(data)))
    assert window(back, 10) == window(d, 10)
    out = map_hom(FLAGSHIP, d)
    assert out.tail == tuple(rings.parse_element(FLAGSHIP.target, e)
                             for e in ("1", "-1", "u^2"))


def test_single_string_tail_renders_as_before():
    data = {"form": "scalar_diagonal", "prefix": ["u^-2"], "tail": "u"}
    d = matrix_from_json(LAU, data)
    assert d.tail == LAU.variable("u")
    assert json.dumps(matrix_to_json(d), sort_keys=True) \
        == '{"form": "scalar_diagonal", "prefix": ["u^-2"], "tail": "u"}'


# ---------------------------------------------------------------------------
# bucketed elementary families against the pairwise definition
# ---------------------------------------------------------------------------

def _pairwise_validate(head_cols, families):
    """The plain O(F^2) statement of the elementary conditions: the message
    of the first violated condition, or None."""
    def covers(f, j):
        return j >= f.start and (j - f.start) % f.period == 0

    for j, col in head_cols.items():
        for i in col:
            if i < 0 or i == j or i in head_cols or any(
                    covers(f, i) for f in families):
                return f"elementary row {i} of column {j} lies inside the column set"
    for fam in families:
        for f2 in families:
            if fam is not f2 and \
                    (fam.start - f2.start) % math.gcd(fam.period, f2.period) == 0:
                return "overlapping column families"
        if fam.start in head_cols or any(covers(fam, j) for j in head_cols):
            return "family columns meet a head column"
        for off, _ in fam.entries:
            if off == 0:
                return "elementary diagonal perturbation"
            if fam.start + off < 0:
                return "elementary row index below zero"
            row0 = fam.start + off
            for f2 in families:
                if (row0 - f2.start) % math.gcd(fam.period, f2.period) == 0:
                    return "elementary family rows meet a column progression"
            for j in head_cols:
                if j >= row0 and (j - row0) % fam.period == 0:
                    return "elementary family rows meet a head column"
    return None


_heads = st.dictionaries(
    st.integers(0, 20),
    st.dictionaries(st.integers(-2, 24), st.integers(-3, 3), max_size=2),
    max_size=3)
_families = st.lists(
    st.tuples(st.integers(0, 12), st.sampled_from([1, 2, 3, 4, 6, 9]),
              st.dictionaries(st.integers(-7, 7), st.integers(-3, 3),
                              min_size=1, max_size=2)),
    max_size=4)


@settings(max_examples=400, deadline=None)
@given(_heads, _families)
@example({4: {25: 1}}, [(0, 4, {1: 1})])           # family covers a head column
@example({5: {30: 1}}, [(0, 4, {1: 1})])           # family rows hit a head column
@example({}, [(0, 2, {1: 1}), (1, 3, {3: 1})])     # rows hit another period
def test_bucketed_elementary_validation_matches_pairwise(heads, fams):
    head = {j: {i: Z.from_int(v) for i, v in col.items()}
            for j, col in heads.items()}
    families = [ColumnFamily(s, p, tuple((o, Z.from_int(v)) for o, v in e.items()))
                for s, p, e in fams]
    kept_head = {j: {i: v for i, v in col.items() if not v.is_zero()}
                 for j, col in head.items()}
    kept_head = {j: col for j, col in kept_head.items() if col}
    kept_fams = [ColumnFamily(f.start, f.period,
                              tuple((o, v) for o, v in f.entries if not v.is_zero()))
                 for f in families]
    kept_fams = [f for f in kept_fams if f.entries]
    expected = _pairwise_validate(kept_head, kept_fams)
    try:
        e = Elementary(Z, head, families)
    except MatrixFormError as exc:
        assert str(exc) == expected
        return
    assert expected is None
    for j in range(40):      # columns against a scan over every family
        col = {j: Z.one(), **kept_head.get(j, {})}
        for f in kept_fams:
            if j >= f.start and (j - f.start) % f.period == 0:
                col.update({j + o: v for o, v in f.entries})
        assert e.column(j) == col


def test_elementary_family_period_must_be_positive():
    with pytest.raises(MatrixFormError):
        Elementary(Z, {}, [ColumnFamily(0, 0, ((1, Z.one()),))])


# ---------------------------------------------------------------------------
# compressed forms against their expansion
# ---------------------------------------------------------------------------

def _built(make):
    """The form `make` builds, or the message of its MatrixFormError."""
    try:
        return make()
    except MatrixFormError as exc:
        return str(exc)


def _compare_expansions(pairs, n):
    """Each (compressed, expanded) pair either fails with one message or
    builds two forms with equal columns below n that the decider calls
    equal; and when every form builds, the two compressed forms compare as
    the two expanded ones do."""
    for m, m_exp in pairs:
        if isinstance(m, str) or isinstance(m_exp, str):
            assert m == m_exp
            continue
        assert all(m.column(j) == m_exp.column(j) for j in range(n))
        assert eq_eventually_periodic(m, m_exp)
    (a, a_exp), (b, b_exp) = pairs
    if not any(isinstance(m, str) for m in (a, a_exp, b, b_exp)):
        assert eq_eventually_periodic(a, b) == eq_eventually_periodic(a_exp, b_exp)


_runs = st.lists(
    st.tuples(st.integers(0, 12), st.sampled_from([1, 2, 3, 4, 6, 9]),
              st.dictionaries(st.integers(-7, 7), st.integers(-3, 3),
                              min_size=1, max_size=2),
              st.integers(1, 5), st.integers(1, 4)),
    max_size=3)


def _run_forms(heads, runs):
    """An elementary form built from (start, period, entries, stride, count)
    runs, and one built from the same runs expanded into count-1 families."""
    head = {j: {i: Z.from_int(v) for i, v in col.items()} for j, col in heads.items()}
    families = [ColumnFamily(s, p, tuple((o, Z.from_int(v)) for o, v in e.items()),
                             stride, count)
                for s, p, e, stride, count in runs]
    expanded = [ColumnFamily(f.start + k * f.stride, f.period, f.entries)
                for f in families for k in range(f.count)]
    return (_built(lambda: Elementary(Z, head, families)),
            _built(lambda: Elementary(Z, head, expanded)))


@settings(max_examples=300, deadline=None)
@given(_heads, _runs, _runs)
# columns {4t} and {9 + 4t} against {4t} and {5 + 4t}: they differ only at
# column 5, past every run start but below the last one; a profile built
# from `start` instead of the last start, 0 for both, reads columns 0..3
@example({}, [(0, 4, {2: 1}, 9, 2)], [(0, 4, {2: 1}, 5, 2)])
def test_family_runs_match_their_expansion(heads, runs_a, runs_b):
    n = 3 * max((s + count * stride + p for s, p, _, stride, count in runs_a + runs_b),
                default=1)
    _compare_expansions([_run_forms(heads, runs_a), _run_forms(heads, runs_b)],
                        max(n, 3 * max(heads, default=0) + 3))


_diagonal_runs = st.lists(
    st.tuples(st.sampled_from(["1", "-1", "u", "u^-1", "2"]), st.integers(1, 4)),
    max_size=4)


def _diagonal_forms(prefix, tail):
    """A scalar diagonal read from [expr, count] runs, and one read from the
    same entries written out; an empty tail is malformed in both."""
    pairs = lambda runs: [e if n == 1 else [e, n] for e, n in runs]
    flat = lambda runs: [e for e, n in runs for _ in range(n)]
    read = lambda spell: _built(lambda: matrix_from_json(LAU, {
        "form": "scalar_diagonal", "prefix": spell(prefix), "tail": spell(tail)}))
    return read(pairs), read(flat)


@settings(max_examples=200, deadline=None)
@given(_diagonal_runs, _diagonal_runs, _diagonal_runs, _diagonal_runs)
def test_diagonal_runs_match_their_expansion(prefix_a, tail_a, prefix_b, tail_b):
    forms = [_diagonal_forms(prefix_a, tail_a), _diagonal_forms(prefix_b, tail_b)]
    n = 3 * sum(n for _, n in prefix_a + tail_a + prefix_b + tail_b) + 3
    _compare_expansions(forms, n)
    for m, m_exp in forms:
        if not isinstance(m, str):
            data = matrix_to_json(m)
            assert data == matrix_to_json(m_exp)
            runs = [item for item in data["prefix"] + list(data["tail"])
                    if isinstance(item, list)]
            assert all(count >= 2 for _, count in runs)
            back = matrix_from_json(LAU, json.loads(json.dumps(data)))
            assert all(back.column(j) == m.column(j) for j in range(n))


def _rotation_forms(offset, period, rotate):
    spec = {"form": "permutation", "offset": offset, "period": period}
    residues = [(i + rotate) % period for i in range(max(period, 0))]
    return (_built(lambda: matrix_from_json(Z, {**spec, "rotate": rotate})),
            _built(lambda: matrix_from_json(Z, {**spec, "residues": residues})))


@settings(max_examples=200, deadline=None)
@given(st.integers(-1, 3), st.integers(0, 8), st.integers(0, 8),
       st.integers(-1, 3), st.integers(0, 8), st.integers(0, 8))
def test_rotations_match_their_residues(offset_a, period_a, rot_a,
                                        offset_b, period_b, rot_b):
    forms = [_rotation_forms(offset_a, period_a, rot_a % max(period_a, 1)),
             _rotation_forms(offset_b, period_b, rot_b % max(period_b, 1))]
    _compare_expansions(forms, 3 * (max(offset_a, offset_b) + 2 * 8) + 3)
    for m, _ in forms:
        if not isinstance(m, str):
            assert "rotate" in matrix_to_json(m)


def test_runs_are_written_compressed_and_read_back():
    """A count-1 family is written as before, a longer run with its stride
    and count; a permutation that is no rotation keeps its residues."""
    e = Elementary(Z, {}, [ColumnFamily(0, 16, ((8, Z.one()),)),
                           ColumnFamily(1, 16, ((8, Z.from_int(2)),), 2, 3)])
    data = matrix_to_json(e)
    assert data["families"] == [
        {"start": 0, "period": 16, "entries": {"8": "1"}},
        {"start": 1, "period": 16, "entries": {"8": "2"}, "stride": 2, "count": 3}]
    assert eq_eventually_periodic(matrix_from_json(Z, data), e)
    assert matrices.profile(e)[0] == 5          # the last start of the run
    swap = Permutation(Z, BlockPeriodicPermutation(0, 4, (1, 0, 3, 2)))
    assert matrix_to_json(swap)["residues"] == [1, 0, 3, 2]
