import copy
import json
import pathlib
import random

import pytest

from colift import dense, lifting, matrices, rings
from colift.homs import HomRegistry
from colift.lifting import (UnsupportedMatrixError,
                            WitnessError, certificate_from_json,
                            certificate_to_json, gl_lift, swindle_factorization,
                            unimodular_reduce, verify_certificate,
                            whitehead_word)
from colift.matrices import (BlockDiagonal, Elementary, FinitePerturbation,
                             Identity, Permutation, ProductMatrix,
                             ScalarDiagonal, invert, window)
from colift.rings import BezoutWitness

REG = HomRegistry.builtin()
FLAGSHIP = REG.get("zxy_to_laurent")
LAU = FLAGSHIP.target
Z = rings.integers()
Z5 = rings.residue(5)
Z7 = rings.residue(7)


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
    word = unimodular_reduce(a, rings.bezout(a))
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
    return word.apply_to_matrix(FinitePerturbation(ring, corner))


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
    assert set(flagship_cert.factor_log) == {
        "column-reduction", "rearrange", "peel-elementary", "swindle"}


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
    b_side = [cf.inv.matrix for cf in flagship_cert._cert_factors]
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
    data = copy.deepcopy(certificate_to_json(flagship_cert))
    factor = data["factors"][0]["matrix"]
    if "families" in factor:
        fam = factor["families"][0]
        key = next(iter(fam["entries"]))
        fam["entries"][key] = fam["entries"][key] + " + 1"
    else:
        col = next(iter(factor["cols"]))
        row = next(iter(factor["cols"][col]))
        factor["cols"][col][row] = factor["cols"][col][row] + " + 1"
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

    def counting(cert, n, threads=1):
        calls.append(n)
        return real(cert, n, threads)

    monkeypatch.setattr(lifting, "verify_certificate", counting)
    u = LAU.variable("u")
    d = ScalarDiagonal(LAU, (), u)
    gl_lift(FLAGSHIP, invert(ProductMatrix(LAU, [d, d])), 16)
    assert calls == [16]


def test_sign_factors_stay_linear_in_the_window():
    """Each swindle sign factor of a window-128 flagship certificate has
    O(horizon) JSON entries (horizon = 2 * 128 + 16), not O(horizon^2)."""
    u = LAU.variable("u")
    cert = gl_lift(FLAGSHIP, invert(ScalarDiagonal(LAU, (), u)), 128)
    horizon = 2 * 128 + 16
    signs = [f["matrix"] for f in certificate_to_json(cert)["factors"]
             if f["tag"] == "swindle"
             and f["matrix"]["form"] in ("scalar_diagonal", "block_diagonal")]
    assert len(signs) == 2
    for m in signs:
        assert m["form"] == "scalar_diagonal"
        assert len(m["prefix"]) + len(m["tail"]) <= 3 * horizon


def test_verify_with_thread_cap_matches_sequential(flagship_cert):
    seq = verify_certificate(flagship_cert, 32, threads=1)
    par = verify_certificate(flagship_cert, 32, threads=4)
    assert seq.passed and par.passed
    assert [c.detail for c in seq.checks] == [c.detail for c in par.checks]


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
