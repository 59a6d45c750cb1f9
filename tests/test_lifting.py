import collections
import copy
import dataclasses
import functools
import hashlib
import json
import pathlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from colift import dense, homs, lifting, matrices, rings
from colift.homs import HomRegistry
from colift.lifting import (UnsupportedMatrixError,
                            WitnessError, certificate_from_json,
                            certificate_to_json, gl_lift, swindle_factorization,
                            unimodular_reduce, verify_certificate,
                            whitehead_word)
from colift.matrices import (BlockDiagonal, Elementary, FinitePerturbation,
                             Identity, InvertibleColFin, Permutation,
                             ProductMatrix, ScalarDiagonal, invert, window)
from colift.rings import BezoutWitness

from conftest import apply_to_matrix, two_sided_on_window

REG = HomRegistry.builtin()
FLAGSHIP = REG.get("zxy_to_laurent")
LAU = FLAGSHIP.target
Z = rings.integers()
Z5 = rings.residue(5)
Z7 = rings.residue(7)
Z101 = rings.residue(101)


def ints(ring, rows):
    return [[ring.from_int(v) for v in row] for row in rows]


def int_window(m, n):
    return [[v.payload for v in row] for row in window(m, n)]


@pytest.fixture(scope="module")
def flagship_cert():
    u = LAU.variable("u")
    return gl_lift(FLAGSHIP, invert(ScalarDiagonal(LAU, (), u)), 64)


# ---------------------------------------------------------------------------
# unimodular column reduction
# ---------------------------------------------------------------------------

def test_reduce_laurent_unit_is_a_three_factor_word():
    u = LAU.variable("u")
    word = unimodular_reduce([u], BezoutWitness((rings.is_unit(u),)))
    assert len(word.steps) == 3
    out = word.apply_to_vector({0: u})
    assert out == {0: LAU.one()}


def test_reduce_unit_vector():
    word = unimodular_reduce([Z.one()], BezoutWitness((Z.one(),)))
    assert word.apply_to_vector({0: Z.one()}) == {0: Z.one()}


def test_reduce_two_three_executes_the_displayed_ops():
    a = [Z.from_int(2), Z.from_int(3)]
    witness = BezoutWitness((Z.from_int(-1), Z.from_int(1)))
    word = unimodular_reduce(a, witness)
    # replay the ops one factor at a time: (2,3,0) -> (2,3,1) -> (0,0,1) -> e_0
    states = [{0: Z.from_int(2), 1: Z.from_int(3)}]
    vec = dict(states[0])
    for step in word.steps:
        vec = step.inv.matrix.apply_to(vec)
        states.append(dict(vec))
    as_ints = [
        tuple(s.get(i, Z.zero()).payload for i in range(3)) for s in states]
    assert as_ints[2] == (2, 3, 1)
    assert as_ints[4] == (0, 0, 1)
    assert as_ints[5] == (1, 0, 0)


def test_reduce_rejects_bad_witness():
    with pytest.raises(WitnessError):
        unimodular_reduce([Z.from_int(2)], BezoutWitness((Z.from_int(3),)))


def test_reduce_factors_are_liftable_generators():
    a = [Z.from_int(6), Z.from_int(10), Z.from_int(15)]
    word = unimodular_reduce(a, BezoutWitness(tuple(Z.from_int(c) for c in (1, 1, -1))))
    for step in word.steps:
        assert isinstance(step.inv.matrix, (Elementary, Permutation))


def test_reduce_100_random_unimodular_vectors():
    rng = random.Random(101)
    for _ in range(100):
        n = rng.randrange(1, 6)
        coeffs = [Z.from_int(rng.randrange(-9, 10)) for _ in range(n - 1)]
        vec = [Z.from_int(rng.randrange(-9, 10)) for _ in range(n - 1)]
        partial = sum((c * a for c, a in zip(coeffs, vec)), Z.zero())
        coeffs.append(Z.one())
        vec.append(Z.one() - partial)
        word = unimodular_reduce(vec, BezoutWitness(tuple(coeffs)))
        padded = {i: a for i, a in enumerate(vec) if not a.is_zero()}
        assert word.apply_to_vector(padded) == {0: Z.one()}


# ---------------------------------------------------------------------------
# block pair word
# ---------------------------------------------------------------------------

def _apply_whitehead(word, a_rows, b_rows, ring):
    k = len(a_rows)
    zero = ring.zero()
    corner = [[zero] * (2 * k) for _ in range(2 * k)]
    for i in range(k):
        for j in range(k):
            corner[i][j] = a_rows[i][j]
            corner[k + i][k + j] = b_rows[i][j]
    return apply_to_matrix(word, FinitePerturbation(ring, corner))


def test_whitehead_identity_blocks():
    word = whitehead_word(dense.identity(Z, 2), dense.identity(Z, 2), Z)
    out = _apply_whitehead(word, dense.identity(Z, 2), dense.identity(Z, 2), Z)
    assert int_window(out, 6) == int_window(Identity(Z), 6)


def test_whitehead_mod7_scalars():
    a, b = ints(Z7, [[2]]), ints(Z7, [[4]])
    word = whitehead_word(a, b, Z7)
    out = _apply_whitehead(word, a, b, Z7)
    # oracle: 2 * 4 = 8 = 1 mod 7
    assert (2 * 4) % 7 == 1
    assert int_window(out, 4) == int_window(Identity(Z7), 4)


def test_whitehead_integer_blocks():
    a = ints(Z, [[1, 1], [0, 1]])
    b = ints(Z, [[1, 0], [-1, 1]])
    word = whitehead_word(a, b, Z)
    out = _apply_whitehead(word, a, b, Z)
    expect = dense.mat_mul(a, b)
    got = window(out, 6)
    for i in range(2):
        for j in range(2):
            assert got[i][j] == expect[i][j]
    assert int_window(out, 6)[2:] == int_window(Identity(Z), 6)[2:]


def test_whitehead_checks_a_by_its_determinant_alone(monkeypatch):
    """A is checked through its determinant, never inverted; a singular A
    raises the NonInvertibleError that inverting it would raise."""
    a, b = ints(Z7, [[1, 2], [2, 4]]), ints(Z7, [[1, 1], [0, 1]])
    with pytest.raises(dense.NonInvertibleError) as expected:
        dense.adjugate_inverse(a)
    inverted = []
    real = dense.adjugate_inverse

    def counting(blk, block_index=None):
        inverted.append(blk)
        return real(blk, block_index=block_index)

    monkeypatch.setattr(dense, "adjugate_inverse", counting)
    with pytest.raises(dense.NonInvertibleError) as info:
        whitehead_word(a, b, Z7)
    assert str(info.value) == str(expected.value) == "determinant 0 is not a unit of Z/7"
    assert info.value.det == expected.value.det
    whitehead_word(b, b, Z7)
    assert inverted == [b]


def test_whitehead_sidedness_tags():
    word = whitehead_word(ints(Z, [[1]]), ints(Z, [[1]]), Z)
    assert [s.side for s in word.steps] == ["R", "R", "R", "R", "L"]


def _random_invertible(ring, k, rng):
    p = ring.modulus
    lower = [[ring.from_int(rng.randrange(p)) if i > j
              else ring.one() if i == j else ring.zero()
              for j in range(k)] for i in range(k)]
    upper = [[ring.from_int(rng.randrange(p)) if i < j
              else ring.from_int(rng.randrange(1, p)) if i == j
              else ring.zero()
              for j in range(k)] for i in range(k)]
    return dense.mat_mul(lower, upper)


@pytest.mark.parametrize("p", [5, 7, 101])
def test_whitehead_100_random_pairs(p):
    ring = rings.residue(p)
    rng = random.Random(p)
    for _ in range(100):
        k = rng.randrange(1, 5)
        a = _random_invertible(ring, k, rng)
        b = _random_invertible(ring, k, rng)
        word = whitehead_word(a, b, ring)
        out = _apply_whitehead(word, a, b, ring)
        got = window(out, 2 * k)
        expect = dense.mat_mul(a, b)
        for i in range(2 * k):
            for j in range(2 * k):
                if i < k and j < k:
                    assert got[i][j] == expect[i][j]
                else:
                    assert got[i][j] == (ring.one() if i == j else ring.zero())


# ---------------------------------------------------------------------------
# swindle factorization
# ---------------------------------------------------------------------------

def test_swindle_identity_block():
    sw = swindle_factorization(dense.identity(Z, 2), Z)
    assert window(sw.product(), 12) == window(Identity(Z), 12)


def test_swindle_laurent_unit():
    u = LAU.variable("u")
    sw = swindle_factorization(u, LAU)
    assert len(sw.factors) <= 5
    got = window(sw.product(), 32)
    expect = window(sw.target, 32)
    assert got == expect
    for i in range(8):
        assert got[i][i] == (u if i % 2 == 0 else rings.is_unit(u))
    # factor entries stay within +-1, +-u, +-u^-1
    allowed = {LAU.one(), -LAU.one(), u, -u, rings.is_unit(u),
               -rings.is_unit(u)}
    for f in sw.factors:
        for j in range(8):
            for i, v in matrices.column(f.inv.matrix, j).items():
                assert v in allowed


def test_swindle_permutation_block():
    swap = ints(Z, [[0, 1], [1, 0]])
    sw = swindle_factorization(swap, Z)
    got = window(sw.product(), 16)
    assert got == window(sw.target, 16)
    # the target is itself a permutation matrix
    for j in range(16):
        col = matrices.column(sw.target, j)
        assert len(col) == 1 and list(col.values())[0] == Z.one()


@pytest.mark.parametrize("k", [1, 2, 3])
def test_swindle_soundness_window(k):
    rng = random.Random(k)
    ring = Z7
    u = _random_invertible(ring, k, rng)
    sw = swindle_factorization(u, ring)
    n = 4 * k * 8
    assert window(sw.product(), n) == window(sw.target, n)


@pytest.mark.parametrize("k", [1, 3])
def test_swindle_sparse_block_gives_the_dense_word(k):
    rng = random.Random(10 + k)
    u = _random_invertible(Z7, k, rng)
    u_inv = dense.adjugate_inverse(u)
    from_dense = swindle_factorization(u, Z7, offset=3, u_inverse=u_inv)
    from_sparse = swindle_factorization(
        lifting.SparseBlock.from_dense(u), Z7, offset=3,
        u_inverse=lifting.SparseBlock.from_dense(u_inv))
    assert [matrices.matrix_to_json(f.inv.matrix) for f in from_dense.factors] \
        == [matrices.matrix_to_json(f.inv.matrix) for f in from_sparse.factors]
    n = 3 + 8 * k
    assert window(from_sparse.product(), n) == window(from_sparse.target, n)


def test_swindle_sign_factor_is_a_periodic_scalar_diagonal():
    sw = swindle_factorization(dense.identity(Z, 3), Z, offset=2)
    signs = [f.inv.matrix for f in sw.factors
             if isinstance(f.inv.matrix, ScalarDiagonal)]
    assert len(signs) == 1
    assert [v.payload for v in signs[0].prefix] == [1, 1]
    assert [v.payload for v in signs[0].tail] == [-1, -1, -1, 1, 1, 1]


def test_swindle_factors_are_liftable_classes():
    u = LAU.variable("u")
    sw = swindle_factorization(u, LAU)
    for f in sw.factors:
        assert lifting._liftable_class(f.inv.matrix) is not None


# ---------------------------------------------------------------------------
# the end-to-end lift
# ---------------------------------------------------------------------------

def test_flagship_lift_verifies_on_window_64(flagship_cert):
    report = verify_certificate(flagship_cert, 64)
    assert report.passed
    image = matrices.map_hom(FLAGSHIP, flagship_cert.lift.matrix)
    u = LAU.variable("u")
    for j in range(64):
        col = matrices.column(image, j)
        assert col == {j: u}


def test_flagship_lift_tags(flagship_cert):
    assert set(flagship_cert.factor_log) == {"swindle"}


def test_identity_lift_is_identity():
    cert = gl_lift(FLAGSHIP, invert(Identity(LAU)), 32)
    assert cert.word_length() == 0
    assert isinstance(cert.lift.matrix, Identity)


def test_remark_finite_vs_infinite_contrast():
    """diag(2, 3) over Z -> Z/5 lifts as an infinite word, while the finite
    2x2 corner alone has determinant 6 over Z and admits no finite lift."""
    hom = REG.get("z_to_z5")
    corner5 = ints(Z5, [[2, 0], [0, 3]])
    cert = gl_lift(hom, invert(FinitePerturbation(Z5, corner5)), 32)
    assert verify_certificate(cert, 64).passed
    corner_z = ints(Z, [[2, 0], [0, 3]])
    det = dense.determinant(corner_z)
    assert det == Z.from_int(6)
    assert rings.is_unit(det) is None
    with pytest.raises(dense.NonInvertibleError):
        invert(FinitePerturbation(Z, corner_z))


def test_lift_scalar_diagonal_with_prefix():
    u = LAU.variable("u")
    d = ScalarDiagonal(LAU, (LAU.variable("u", -2),), u)
    cert = gl_lift(FLAGSHIP, invert(d), 24)
    assert verify_certificate(cert, 48).passed


def test_lift_block_diagonal_periodic_tail():
    hom = REG.get("z_to_z7")
    tail = ints(Z7, [[2, 1], [5, 1]])
    b = BlockDiagonal(Z7, [ints(Z7, [[3]])], tail)
    cert = gl_lift(hom, invert(b), 24)
    assert verify_certificate(cert, 48).passed


def test_lift_random_unit_scalar_diagonals_mod7():
    hom = REG.get("z_to_z7")
    rng = random.Random(71)
    for _ in range(10):
        prefix = tuple(Z7.from_int(rng.randrange(1, 7))
                       for _ in range(rng.randrange(3)))
        tail = Z7.from_int(rng.randrange(1, 7))
        cert = gl_lift(hom, invert(ScalarDiagonal(Z7, prefix, tail)), 16)
        assert verify_certificate(cert, 32).passed


def test_lift_random_block_diagonals_mod5():
    hom = REG.get("z_to_z5")
    rng = random.Random(55)
    for _ in range(10):
        k = rng.randrange(1, 4)
        tail = _random_invertible(Z5, k, rng)
        prefix = [_random_invertible(Z5, rng.randrange(1, 3), rng)
                  for _ in range(rng.randrange(2))]
        cert = gl_lift(hom, invert(BlockDiagonal(Z5, prefix, tail)), 16)
        assert verify_certificate(cert, 32).passed


class _Opaque(matrices.ColFinMatrix):
    """A column-finite form outside every lifting class."""

    form = "opaque"

    def __init__(self, ring):
        self.ring = ring

    def column(self, j):
        return {j: self.ring.one()}


def test_lift_rejects_unsupported_form():
    m = _Opaque(LAU)
    with pytest.raises(UnsupportedMatrixError):
        gl_lift(FLAGSHIP, matrices.InvertibleColFin(m, m), 16)


def test_lift_elementary_generator_is_a_one_factor_word():
    e = Elementary(LAU, {0: {1: LAU.variable("u")}})
    cert = gl_lift(FLAGSHIP, invert(e), 16)
    assert cert.factor_log == ("generator",)
    assert cert.report.passed
    assert verify_certificate(cert, 64).passed


def test_lift_mixed_product_factor_by_factor():
    u = LAU.variable("u")
    e = Elementary(LAU, {0: {1: u}})
    p = Permutation(LAU, matrices.FinitePermutation(((0, 2), (2, 0))))
    d = ScalarDiagonal(LAU, (), u)
    cert = gl_lift(FLAGSHIP, invert(ProductMatrix(LAU, [e, d, p])), 16)
    assert cert.factor_log[0] == "generator"
    assert cert.factor_log[-1] == "generator"
    assert verify_certificate(cert, 32).passed


def test_lift_rejects_non_unit_diagonal():
    d = ScalarDiagonal(LAU, (), rings.parse_element(LAU, "u + 1"))
    with pytest.raises((UnsupportedMatrixError, dense.NonInvertibleError)) as info:
        gl_lift(FLAGSHIP, matrices.InvertibleColFin(d, d), 16)
    assert "u + 1" in str(info.value)


def test_lift_soundness_at_twice_the_window(flagship_cert):
    assert verify_certificate(flagship_cert, 128).passed


def test_functoriality_concatenated_word_lifts_the_product():
    u = LAU.variable("u")
    d = ScalarDiagonal(LAU, (), u)
    prod = ProductMatrix(LAU, [d, d])
    cert = gl_lift(FLAGSHIP, invert(prod), 16)
    assert verify_certificate(cert, 32).passed
    image = matrices.map_hom(FLAGSHIP, cert.lift.matrix)
    u2 = u * u
    for j in range(32):
        assert matrices.column(image, j) == {j: u2}


def test_zero_preservation_of_lifted_factors(flagship_cert):
    """Lifted factors have exactly the support of their target-side
    counterparts: the section never turns a zero into a nonzero."""
    b_side = [cf.inv.matrix
              for cf in lifting._word_factors(flagship_cert.input_matrix, 64)]
    a_side = list(flagship_cert.factors)
    assert len(b_side) == len(a_side)
    for bm, am in zip(b_side, a_side):
        for j in range(40):
            assert set(matrices.column(am, j)) == set(matrices.column(bm, j))


def test_lift_factors_stay_in_liftable_classes(flagship_cert):
    for f in flagship_cert.factors:
        assert lifting._liftable_class(f) is not None


# ---------------------------------------------------------------------------
# verification and serialization
# ---------------------------------------------------------------------------

def test_verify_identity_certificate():
    cert = gl_lift(FLAGSHIP, invert(Identity(LAU)), 16)
    for n in (8, 32, 64):
        assert verify_certificate(cert, n).passed


def test_verify_reports_have_timing(flagship_cert):
    report = verify_certificate(flagship_cert, 16)
    assert all(c.seconds >= 0 for c in report.checks)
    assert {c.name for c in report.checks} == {
        "image_matches_input", "two_sided_inverse", "factor_classes"}


def test_certificate_json_roundtrip(flagship_cert):
    data = certificate_to_json(flagship_cert)
    back = certificate_from_json(data, REG)
    assert verify_certificate(back, 64).passed
    assert back.factor_log == flagship_cert.factor_log
    assert back.verified_window == flagship_cert.verified_window


def test_certificate_json_deterministic(flagship_cert):
    a = json.dumps(certificate_to_json(flagship_cert), sort_keys=True)
    b = json.dumps(certificate_to_json(flagship_cert), sort_keys=True)
    assert a == b
    assert certificate_to_json(flagship_cert)["content_hash"] \
        == lifting._content_hash(certificate_to_json(flagship_cert))


def test_tampered_certificate_fails_with_location(flagship_cert):
    """Tamper the V^-1 block of the first swindle (its fourth factor), whose
    entries sit on rows inside the window.  The first factor's families sit
    at columns past the corner horizon, outside every window check by
    design, so tampering them shows nowhere on the window."""
    data = copy.deepcopy(certificate_to_json(flagship_cert))
    fam = data["factors"][3]["matrix"]["families"][0]
    key = next(iter(fam["entries"]))
    assert fam["start"] + int(key) < 64
    fam["entries"][key] = fam["entries"][key] + " + 1"
    tampered = certificate_from_json(data, REG)
    report = verify_certificate(tampered, 64)
    assert not report.passed
    failing = [c for c in report.checks if not c.passed]
    assert any("row" in c.detail and "col" in c.detail for c in failing)


def test_certificate_window_is_an_honest_bound(flagship_cert):
    """The infinite-repetition stage is built to a horizon of at least twice
    the requested window; beyond it the image of the lift may leave the
    input (the certificate records its window rather than claiming more),
    while the paired inverse stays exact at every window."""
    report = verify_certificate(flagship_cert, 192)
    by_name = {c.name: c for c in report.checks}
    assert not by_name["image_matches_input"].passed
    assert "mismatch at" in by_name["image_matches_input"].detail
    assert by_name["two_sided_inverse"].passed
    assert flagship_cert.verified_window == 64


def test_two_sided_inverse_is_exact_and_names_the_factor(flagship_cert):
    """The check passes "exactly, factor by factor"; a corrupted inverse
    factor, a dropped one, or a factor without an exact inverse rule fails
    and names the lift factor it pairs with."""
    pair = flagship_cert.lift
    ring = pair.matrix.ring
    inverse = list(pair.inverse.factors)

    def detail(inv_factors):
        cert = dataclasses.replace(flagship_cert, lift=InvertibleColFin(
            pair.matrix, ProductMatrix(ring, inv_factors)))
        check = {c.name: c for c in verify_certificate(cert, 16).checks}
        assert not check["two_sided_inverse"].passed
        return check["two_sided_inverse"].detail

    ok = {c.name: c for c in verify_certificate(flagship_cert, 16).checks}
    assert ok["two_sided_inverse"].detail.endswith("exactly, factor by factor")
    # inverse factor n-1 pairs with lift factor 0, an elementary swindle factor
    assert detail(inverse[:-1] + [inverse[-1].negated()]).startswith(
        "factor 0: the family at column")
    assert detail(inverse[1:]) == "the lift has 10 factors, its inverse 9"
    odd = FinitePerturbation(ring, [])
    bad = lifting._paired_inverse_defect(InvertibleColFin(odd, odd))
    assert bad == "factor 0: no exact inverse rule for form 'finite_perturbation'"


def test_finite_perturbation_certificates_are_exact_everywhere():
    """Inputs with an identity tail need no truncation: the word equals the
    input at windows far beyond the construction window."""
    hom = REG.get("z_to_z5")
    corner = ints(Z5, [[2, 1], [4, 3]])     # det = 2 mod 5, a unit
    cert = gl_lift(hom, invert(FinitePerturbation(Z5, corner)), 16)
    assert verify_certificate(cert, 200).passed


def test_lift_attaches_its_self_check(flagship_cert):
    assert flagship_cert.report.passed
    assert flagship_cert.report.window == 64


def test_product_lift_verifies_once(monkeypatch):
    calls = []
    real = lifting.verify_certificate

    def counting(cert, n):
        calls.append(n)
        return real(cert, n)

    monkeypatch.setattr(lifting, "verify_certificate", counting)
    u = LAU.variable("u")
    d = ScalarDiagonal(LAU, (), u)
    gl_lift(FLAGSHIP, invert(ProductMatrix(LAU, [d, d])), 16)
    assert calls == [16]


def test_lift_inverts_each_input_block_once(monkeypatch):
    """Every copy of the tail in the swindle corner reuses the tail's
    inverse, and the corner's inverse is assembled from the block inverses
    (diagonal blocks entrywise, the others through the adjugate)."""
    seen = []
    real, real_diagonal = dense.adjugate_inverse, dense.diagonal_inverse

    def counting(a, block_index=None):
        seen.append([[v.payload for v in row] for row in a])
        return real(a, block_index=block_index)

    def counting_diagonal(entries, block_index=None):
        seen.append([[d.payload if i == j else 0 for j in range(len(entries))]
                     for i, d in enumerate(entries)])
        return real_diagonal(entries, block_index=block_index)

    monkeypatch.setattr(dense, "adjugate_inverse", counting)
    monkeypatch.setattr(dense, "diagonal_inverse", counting_diagonal)
    rng = random.Random(3)
    prefix = [_random_invertible(Z5, k, rng) for k in (2, 1, 3)]
    tail = _random_invertible(Z5, 2, rng)
    cert = gl_lift(REG.get("z_to_z5"), BlockDiagonal(Z5, prefix, tail), 16)
    assert cert.report.passed
    assert seen == [[[v.payload for v in row] for row in b]
                    for b in prefix + [tail]]


# SHA-256 of the bytes `colift lift --out` writes for fixed inputs.  They pin
# the certificate format: a change that alters it on purpose updates these
# hashes together with docs/formats.md.
def test_diagonal_block_inverse_keeps_the_adjugate_error_text():
    """A diagonal block is inverted entrywise, without a dense copy, and a
    non-unit entry (a missing one is zero) is reported as the dense
    adjugate's diagonal path reports it."""
    u = LAU.variable("u")
    for entries in ([u, u + 1], [u, LAU.zero(), u]):
        blk = lifting.SparseBlock.diagonal(entries)
        with pytest.raises(dense.NonInvertibleError) as dense_exc:
            dense.adjugate_inverse(blk.to_dense(LAU), block_index="tail")
        with pytest.raises(UnsupportedMatrixError) as lift_exc:
            lifting._block_inverse(blk, "tail", LAU)
        assert str(lift_exc.value) == \
            f"block tail is not invertible over {LAU}: {dense_exc.value}"
    inv = lifting._block_inverse(lifting.SparseBlock.diagonal([u, -u]), 0, LAU)
    assert inv == lifting.SparseBlock.diagonal([LAU.variable("u", -1),
                                                -LAU.variable("u", -1)])


GOLDEN_CERTIFICATES = [
    ("zxy_to_laurent", ScalarDiagonal(LAU, (), LAU.variable("u")),
     "2a69882e85eb6e31c5d8f581c4ba43363cb5af10f6c7ca26cb50c6711cda124c"),
    ("z_to_z101", BlockDiagonal(Z101, [], ints(Z101, [[2, 9], [4, 7]])),
     "186d887698a631df097ffe3e5d8d62830bf624719257d032c530f4bdfddfba3b"),
    ("z_to_z101", FinitePerturbation(Z101, ints(Z101, [[3, 7, 1, 0], [0, 2, 5, 1],
                                                       [9, 0, 1, 4], [2, 2, 0, 3]])),
     "452cfbe49f4821f5cd779e83cccf75a8b4d07978ac4d238132821477c2883044"),
    ("z_to_z5", BlockDiagonal(Z5, [ints(Z5, [[2]]), ints(Z5, [[1, 1], [0, 1]]),
                                   ints(Z5, [[3]])], ints(Z5, [[2, 1], [1, 1]])),
     "7b15d73af4dc4d31ccac334bdcde56597c9faf0f72bcc63e8b043dab54d2d81d"),
]


@pytest.mark.parametrize("hom, m, digest", GOLDEN_CERTIFICATES,
                         ids=["flagship_w16", "z101_periodic_k2",
                              "z101_corner_4x4", "z5_odd_prefix_tail"])
def test_certificate_bytes_match_the_recorded_hashes(hom, m, digest):
    cert = gl_lift(REG.get(hom), m, 16)
    text = json.dumps(certificate_to_json(cert), sort_keys=True, indent=2) + "\n"
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest


def test_sign_factors_stay_linear_in_the_window():
    """Each swindle sign factor of a window-128 flagship certificate has
    O(horizon) JSON entries (horizon = 2 * 128), not O(horizon^2)."""
    u = LAU.variable("u")
    cert = gl_lift(FLAGSHIP, invert(ScalarDiagonal(LAU, (), u)), 128)
    horizon = 2 * 128
    signs = [f["matrix"] for f in certificate_to_json(cert)["factors"]
             if f["tag"] == "swindle"
             and f["matrix"]["form"] in ("scalar_diagonal", "block_diagonal")]
    assert len(signs) == 2
    for m in signs:
        assert m["form"] == "scalar_diagonal"
        assert len(m["prefix"]) + len(m["tail"]) <= 3 * horizon


def test_ring_work_is_flat_in_the_window(monkeypatch):
    """gl_lift followed by verify_certificate applies the hom and its section
    as often at window 1024 as at window 64 on the flagship: each swindle
    run is lifted and mapped once, and each distinct sign entry once."""
    counts = collections.Counter()

    def counting(name, fn):
        def wrapped(*args):
            counts[name] += 1
            return fn(*args)
        return wrapped

    monkeypatch.setattr(homs, "hom_apply", counting("apply", homs.hom_apply))
    monkeypatch.setattr(lifting, "hom_section", counting("section", lifting.hom_section))
    seen = []
    for window in (64, 1024):
        counts.clear()
        cert = gl_lift(FLAGSHIP, ScalarDiagonal(LAU, (), LAU.variable("u")), window)
        assert verify_certificate(cert, window).passed
        seen.append(dict(counts))
    assert seen[0] == seen[1] and seen[0]["apply"] > 0 and seen[0]["section"] > 0


def test_verify_certificate_from_json_identity():
    cert = gl_lift(REG.get("z_to_z5"), invert(Identity(Z5)), 16)
    data = certificate_to_json(cert)
    back = certificate_from_json(data, REG)
    assert verify_certificate(back, 16).passed


def test_parent_certificate_with_dense_sign_blocks_still_verifies():
    """A window-16 flagship certificate written before sign diagonals were
    stored as periodic scalar diagonals: its two sign factors are dense
    block_diagonal forms, which stay accepted."""
    path = pathlib.Path(__file__).parent / "data" / "flagship_w16_parent.json"
    data = json.loads(path.read_text(encoding="utf-8"))
    forms = [f["matrix"]["form"] for f in data["factors"]]
    assert forms.count("block_diagonal") == 2
    assert data["content_hash"] == lifting._content_hash(data)
    cert = certificate_from_json(data, REG)
    assert verify_certificate(cert, 16).passed


# ---------------------------------------------------------------------------
# property test: every supported input lifts by two swindles of its corner
# ---------------------------------------------------------------------------

def _random_part(ring, kind, rng):
    """One non-generator input over `ring`: a scalar diagonal with a tail
    cycle, a block diagonal with a prefix and a tail (or an identity tail),
    or a finite perturbation."""
    if kind == "scalar":
        if ring == LAU:
            unit = lambda: LAU.monomial(rng.randrange(-2, 3), rng.choice((1, -1)))
        else:
            unit = lambda: ring.from_int(rng.randrange(1, ring.modulus))
        prefix = [unit() for _ in range(rng.randrange(4))]
        cycle = [unit() for _ in range(rng.randrange(1, 5))]
        return ScalarDiagonal(ring, prefix, ring.one() if rng.random() < 0.2 else cycle)
    if kind == "blocks":
        prefix = [_random_invertible(ring, rng.randrange(1, 4), rng)
                  for _ in range(rng.randrange(1, 4))]
        tail = None if rng.random() < 0.2 else \
            _random_invertible(ring, rng.randrange(1, 4), rng)
        return BlockDiagonal(ring, prefix, tail)
    return FinitePerturbation(ring, _random_invertible(ring, rng.randrange(1, 5), rng))


def _random_generator(ring, rng):
    if rng.random() < 0.5:
        i, j = rng.sample(range(6), 2)
        return Elementary(ring, {j: {i: ring.from_int(rng.randrange(1, 9))}})
    i, j = rng.sample(range(6), 2)
    return Permutation(ring, matrices.FinitePermutation(((i, j), (j, i))))


@settings(max_examples=40, deadline=None)
@given(hom_name=st.sampled_from(["zxy_to_laurent", "z_to_z5", "z_to_z101"]),
       kind=st.sampled_from(["scalar", "blocks", "finite", "product"]),
       window=st.sampled_from([8, 12, 16]),
       seed=st.integers(0, 2**32 - 1))
def test_every_supported_input_lifts_by_two_swindles(hom_name, kind, window, seed):
    hom = REG.get(hom_name)
    ring = hom.target
    rng = random.Random(seed)
    if ring == LAU and kind != "product":
        kind = "scalar"
    if kind == "product":
        inner = ["scalar"] if ring == LAU else ["scalar", "blocks", "finite"]
        parts = [_random_part(ring, rng.choice(inner), rng)
                 for _ in range(rng.randrange(1, 3))]
        parts += [_random_generator(ring, rng) for _ in range(rng.randrange(1, 3))]
        rng.shuffle(parts)
        m = ProductMatrix(ring, parts)
    else:
        parts = [_random_part(ring, kind, rng)]
        m = parts[0]
    cert = gl_lift(hom, m, window)

    assert cert.report.passed
    assert verify_certificate(cert, 2 * window).passed
    assert set(cert.factor_log) <= {"swindle", "generator"}
    horizons = []
    words = [lifting._word_factors(part, window) for part in parts]
    for part, word in zip(parts, words):
        if isinstance(part, (Elementary, Permutation)):
            assert [cf.tag for cf in word] == ["generator"]
            continue
        assert len(word) <= 10
        prefix, tail = lifting._as_blocks(part)
        if tail is not None:
            horizons = None
        elif horizons is not None:
            horizons.append(sum(b.size for b in prefix))
    assert sum(map(len, words)) == cert.word_length()
    if horizons is not None:
        # identity tails: the word is the input everywhere, so past every h
        assert verify_certificate(cert, max(horizons, default=0) + 2 * window + 6).passed


# ---------------------------------------------------------------------------
# differential test: the exact paired-inverse check against the windowed oracle
# ---------------------------------------------------------------------------

DIFF_INPUTS = [(hom, m) for hom, m, _ in GOLDEN_CERTIFICATES] + [
    ("z_to_z5", ProductMatrix(Z5, [
        Elementary(Z5, {0: {2: Z5.from_int(3)}}),
        Permutation(Z5, matrices.FinitePermutation(((1, 4), (4, 1)))),
        FinitePerturbation(Z5, ints(Z5, [[2, 1], [4, 3]]))]))]
ORACLE_WINDOW = 64


@functools.lru_cache(maxsize=None)
def _diff_certificate_json(idx):
    hom, m = DIFF_INPUTS[idx]
    return certificate_to_json(gl_lift(REG.get(hom), m, 16))


def _tamper_certificate(data, kind, rng):
    """Change the certificate JSON the way a careless or hostile editor
    would; the paired inverse is still rebuilt from the edited factors."""
    factors = data["factors"]
    forms = lambda form: [f["matrix"] for f in factors if f["matrix"]["form"] == form]
    if kind == "entry" and forms("elementary"):
        m = rng.choice(forms("elementary"))
        entries = [fam["entries"] for fam in m.get("families", [])] + list(m["cols"].values())
        entries = rng.choice(entries)
        key = rng.choice(sorted(entries))
        entries[key] = f"{entries[key]} + 1"
    elif kind == "sign" and forms("scalar_diagonal"):
        m = rng.choice(forms("scalar_diagonal"))
        if not isinstance(m["tail"], list):
            m["tail"] = [m["tail"]]
        seq = rng.choice([s for s in (m["prefix"], m["tail"]) if s])
        i = rng.randrange(len(seq))
        flip = lambda e: "1" if e == "-1" else "-1"
        if isinstance(seq[i], list):        # flip one entry inside a run
            expr, count = seq[i]
            at = rng.randrange(count)
            pieces = [[expr, at], flip(expr), [expr, count - at - 1]]
            seq[i:i + 1] = [p for p in pieces if not (isinstance(p, list) and p[1] == 0)]
        else:
            seq[i] = flip(seq[i])
    elif kind == "residue" and forms("permutation"):
        m = rng.choice(forms("permutation"))
        if "residues" in m:
            seq = m["residues"]
            a, b = rng.sample(range(len(seq)), 2)
            seq[a], seq[b] = seq[b], seq[a]
        elif "rotate" in m:
            m["rotate"] = (m["rotate"] + rng.randrange(1, m["period"])) % m["period"]
        else:
            a, b = rng.sample(sorted(m["map"]), 2)
            m["map"][a], m["map"][b] = m["map"][b], m["map"][a]
    elif kind == "drop" and factors:
        del factors[rng.randrange(len(factors))]
    elif kind == "swap" and len(factors) > 1:
        a, b = rng.sample(range(len(factors)), 2)
        factors[a], factors[b] = factors[b], factors[a]
    elif kind == "foreign":
        factors.insert(rng.randrange(len(factors) + 1), {
            "tag": "generator", "side": "L", "matrix": {
                "form": "finite_perturbation", "corner": [["1", "1"], ["0", "1"]]}})


def _corrupt_inverse(pair, kind, rng):
    """The pair with one factor of its inverse word corrupted, or None when
    the word has no factor of the kind's form."""
    inverse = list(lifting._word(pair.inverse))
    ring = pair.matrix.ring
    shapes = {"inv-entry": Elementary, "inv-family": Elementary,
              "inv-residue": Permutation, "inv-sign": ScalarDiagonal}
    candidates = [k for k, g in enumerate(inverse) if isinstance(g, shapes[kind])]
    if not candidates:
        return None
    k = rng.choice(candidates)
    g = inverse[k]
    if kind == "inv-entry":
        cols = {j: dict(col) for j, col in g.head_cols.items()}
        families = [list(fam.entries) for fam in g.families]
        slots = [(cols[j], i) for j in cols for i in cols[j]] + \
            [(entries, pos) for entries in families for pos in range(len(entries))]
        where, key = rng.choice(slots)
        if isinstance(where, dict):
            where[key] = where[key] + ring.one()
        else:
            where[key] = (where[key][0], where[key][1] + ring.one())
        g = Elementary(ring, cols, [fam._replace(entries=tuple(entries))
                                    for fam, entries in zip(g.families, families)])
    elif kind == "inv-family":
        if g.families:
            drop = rng.randrange(len(g.families))
            g = Elementary(ring, g.head_cols,
                           [f for i, f in enumerate(g.families) if i != drop])
        else:
            drop = rng.choice(sorted(g.head_cols))
            g = Elementary(ring, {j: c for j, c in g.head_cols.items() if j != drop})
    elif kind == "inv-residue":
        bij = g.bijection
        if isinstance(bij, matrices.FinitePermutation):
            mapping = list(bij.mapping)
            a, b = rng.sample(range(len(mapping)), 2)
            (i, s), (j, t) = mapping[a], mapping[b]
            mapping[a], mapping[b] = (i, t), (j, s)
            bij = matrices.FinitePermutation(tuple(mapping))
        else:
            images = list(bij.residue_images)
            a, b = rng.sample(range(len(images)), 2)
            images[a], images[b] = images[b], images[a]
            bij = matrices.BlockPeriodicPermutation(bij.offset, bij.period, tuple(images))
        g = Permutation(ring, bij)
    else:
        entries = list(g.prefix + g.tail_cycle)
        i = rng.randrange(len(entries))
        entries[i] = -entries[i]
        n = len(g.prefix)
        g = ScalarDiagonal(ring, entries[:n], entries[n:])
    inverse[k] = g
    return InvertibleColFin(pair.matrix, ProductMatrix(ring, inverse))


@settings(max_examples=80, deadline=None)
@given(idx=st.sampled_from(range(len(DIFF_INPUTS))),
       kind=st.sampled_from(["none", "entry", "sign", "residue", "drop", "swap",
                             "foreign", "inv-entry", "inv-family", "inv-residue",
                             "inv-sign"]),
       seed=st.integers(0, 2**32 - 1))
def test_exact_inverse_check_agrees_with_the_windowed_oracle(idx, kind, seed):
    """If the exact check passes, the column-by-column oracle passes at every
    window up to 64; so if the oracle fails at some window up to 64, the
    exact check fails.  Windows are nested corners, so the oracle at 64
    decides every smaller window.  Corrupting the inverse side always fails
    the exact check, wherever the corruption sits."""
    rng = random.Random(seed)
    data = copy.deepcopy(_diff_certificate_json(idx))
    if not kind.startswith("inv-"):
        _tamper_certificate(data, kind, rng)
    pair = certificate_from_json(data, REG).lift
    if kind.startswith("inv-"):
        pair = _corrupt_inverse(pair, kind, rng)
        if pair is None:
            return
    exact_ok = lifting._paired_inverse_defect(pair) is None
    assert not exact_ok or two_sided_on_window(pair.matrix, pair.inverse,
                                               ORACLE_WINDOW)
    if kind.startswith("inv-"):
        assert not exact_ok
