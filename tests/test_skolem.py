import random

import pytest
from hypothesis import given, settings, strategies as st

from colift import rings, skolem
from colift.skolem import (AlgebraAutoSpec, ObstructionError, SkolemError,
                           SpecInvariantError, central_scalar,
                           matrix_inverse, recover_conjugator,
                           spec_from_conjugator, spec_from_json, spec_to_json,
                           validate_auto_spec)

Z = rings.integers()
Z5 = rings.residue(5)
Z101 = rings.residue(101)


def random_invertible(ring, n, rng):
    p = ring.modulus
    while True:
        m = tuple(tuple(rng.randrange(p) for _ in range(n)) for _ in range(n))
        try:
            matrix_inverse(ring, m)
            return m
        except SkolemError:
            continue


# ---------------------------------------------------------------------------
# central_scalar
# ---------------------------------------------------------------------------

def test_scalar_matrix_is_central():
    assert central_scalar([[3, 0, 0], [0, 3, 0], [0, 0, 3]], Z) == Z.from_int(3)


def test_matrix_unit_is_not_central():
    assert central_scalar([[0, 1], [0, 0]], Z) is None


def test_nonconstant_diagonal_is_not_central():
    assert central_scalar([[1, 0], [0, 2]], Z) is None


def test_central_scalar_commutes_with_all_units():
    # oracle: f*Id commutes with every matrix unit; random perturbations fail
    rng = random.Random(51)
    ring = Z5
    n = 3
    for _ in range(100):
        f = rng.randrange(5)
        m = [[f if i == j else 0 for j in range(n)] for i in range(n)]
        assert central_scalar(m, ring) == ring.from_int(f)
        i, j = rng.randrange(n), rng.randrange(n)
        m[i][j] = (m[i][j] + rng.randrange(1, 5)) % 5
        expect_scalar = all(m[a][b] == (m[0][0] if a == b else 0)
                            for a in range(n) for b in range(n))
        assert (central_scalar(m, ring) is not None) == expect_scalar


# ---------------------------------------------------------------------------
# validate_auto_spec
# ---------------------------------------------------------------------------

def test_identity_spec_validates():
    spec = spec_from_conjugator(Z5, ((1, 0), (0, 1)))
    report = validate_auto_spec(spec)
    assert report.passed
    assert [c.name for c in report.checks] == [
        "idempotence", "orthogonality", "completeness", "unit_multiplication"]


def test_non_idempotent_projector_detected():
    spec = spec_from_conjugator(Z5, ((1, 0), (0, 1)))
    images = dict(((i, j), m) for i, j, m in spec.unit_images)
    images[(0, 0)] = ((2, 0), (0, 0))       # 2 is not idempotent mod 5
    bad = AlgebraAutoSpec(2, Z5, tuple((i, j, m)
                                       for (i, j), m in sorted(images.items())))
    report = validate_auto_spec(bad)
    assert not report.checks[0].passed


def test_incomplete_projectors_detected():
    spec = spec_from_conjugator(Z5, ((1, 0), (0, 1)))
    images = dict(((i, j), m) for i, j, m in spec.unit_images)
    images[(1, 1)] = ((0, 0), (0, 0))
    bad = AlgebraAutoSpec(2, Z5, tuple((i, j, m)
                                       for (i, j), m in sorted(images.items())))
    report = validate_auto_spec(bad)
    assert not report.passed
    assert not report.checks[2].passed      # completeness


def test_recover_refuses_invalid_spec():
    spec = spec_from_conjugator(Z5, ((1, 0), (0, 1)))
    images = dict(((i, j), m) for i, j, m in spec.unit_images)
    images[(0, 1)] = ((0, 0), (1, 0))
    bad = AlgebraAutoSpec(2, Z5, tuple((i, j, m)
                                       for (i, j), m in sorted(images.items())))
    with pytest.raises(SpecInvariantError):
        recover_conjugator(bad)


# ---------------------------------------------------------------------------
# recover_conjugator
# ---------------------------------------------------------------------------

def test_identity_automorphism_recovers_identity():
    spec = spec_from_conjugator(Z5, ((1, 0), (0, 1)))
    conj = recover_conjugator(spec)
    assert conj.u == ((1, 0), (0, 1))


def test_recover_upper_triangular_example():
    u_true = ((1, 1), (0, 1))
    spec = spec_from_conjugator(Z5, u_true)
    assert spec.image(0, 0) == ((1, 4), (0, 0))
    conj = recover_conjugator(spec)
    u_inv = matrix_inverse(Z5, conj.u)
    for i in range(2):
        for j in range(2):
            assert skolem.conjugate_unit(Z5, conj.u, u_inv, i, j) \
                == spec.image(i, j)
    ratio = skolem._matmul(Z5, conj.u, matrix_inverse(Z5, u_true))
    assert central_scalar(ratio, Z5) is not None


def test_recover_over_z_with_unimodular_conjugator():
    u_true = ((1, 2), (0, 1))
    spec = spec_from_conjugator(Z, u_true)
    conj = recover_conjugator(spec)
    ratio = skolem._matmul(Z, conj.u, matrix_inverse(Z, u_true))
    assert central_scalar(ratio, Z) is not None


def unit_matrix(n, i, j):
    return tuple(tuple(1 if (r, c) == (i, j) else 0 for c in range(n))
                 for r in range(n))


def test_matrix_unit_rigidity():
    """A spec fixing every matrix unit recovers a scalar (here the identity)."""
    n = 3
    images = tuple((i, j, unit_matrix(n, i, j))
                   for i in range(n) for j in range(n))
    spec = AlgebraAutoSpec(n, Z101, images)
    conj = recover_conjugator(spec)
    assert central_scalar(conj.u, Z101) is not None


def test_roundtrip_100_random_conjugators_mod_101():
    rng = random.Random(53)
    for _ in range(100):
        n = rng.randrange(2, 7)
        u_true = random_invertible(Z101, n, rng)
        spec = spec_from_conjugator(Z101, u_true)
        conj = recover_conjugator(spec)
        u_inv = matrix_inverse(Z101, conj.u)
        for i in range(n):
            for j in range(n):
                assert skolem.conjugate_unit(Z101, conj.u, u_inv, i, j) \
                    == spec.image(i, j)
        ratio = skolem._matmul(Z101, conj.u, matrix_inverse(Z101, u_true))
        assert central_scalar(ratio, Z101) is not None


def test_rank_obstruction_error_paths():
    # a rank-two idempotent and the zero projector both report the
    # free-rank-one obstruction rather than returning a wrong generator
    with pytest.raises(ObstructionError):
        skolem._rank_one_generator(Z, ((1, 0), (0, 1)), 0)
    with pytest.raises(ObstructionError):
        skolem._rank_one_generator(Z, ((0, 0), (0, 0)), 0)
    # sanity: the honest rank-one projector onto (1, 2) recovers its column
    q = ((1, 0), (2, 0))
    assert skolem._rank_one_generator(Z, q, 0) == [1, 2]


def test_ring_restriction():
    with pytest.raises(SkolemError):
        recover_conjugator(spec_from_conjugator(rings.residue(6), ((1, 0), (0, 1))))


def test_composite_modulus_rejected_early():
    with pytest.raises(SkolemError):
        spec_from_conjugator(rings.residue(4), ((1, 0), (0, 1)))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_spec_json_roundtrip():
    rng = random.Random(59)
    u_true = random_invertible(Z101, 3, rng)
    spec = spec_from_conjugator(Z101, u_true)
    back = spec_from_json(spec_to_json(spec))
    assert back.n == spec.n and back.ring == spec.ring
    assert back.unit_images == spec.unit_images


# ---------------------------------------------------------------------------
# differential test against the full multiplication table
# ---------------------------------------------------------------------------

def _reference_report(spec):
    """Per-check booleans from the full n^4 multiplication table."""
    n, ring = spec.n, spec.ring
    mm = skolem._matmul
    zero = tuple(tuple(0 for _ in range(n)) for _ in range(n))
    diag = [spec.image(i, i) for i in range(n)]
    idem = all(mm(ring, d, d) == d for d in diag)
    orth = all(mm(ring, diag[i], diag[j]) == zero
               for i in range(n) for j in range(n) if i != j)
    total = skolem._norm(ring, [[sum(d[r][c] for d in diag)
                                 for c in range(n)] for r in range(n)])
    comp = total == skolem._identity(n)
    units = [(i, j) for i in range(n) for j in range(n)]
    mult = all(mm(ring, spec.image(i, j), spec.image(k, l))
               == (spec.image(i, l) if j == k else zero)
               for i, j in units for k, l in units)
    return [idem, orth, comp, mult]


def _reference_recover(spec):
    """The conjugator by n^2 full conjugations and the cocycle relation."""
    ring, n = spec.ring, spec.n
    mm = skolem._matmul
    if not all(_reference_report(spec)):
        raise SpecInvariantError("invalid")
    gens = [skolem._rank_one_generator(ring, spec.image(i, i), i)
            for i in range(n)]
    u1 = skolem._norm(ring, [[gens[j][i] for j in range(n)]
                             for i in range(n)])
    u1_inv = matrix_inverse(ring, u1)
    s = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            m = mm(ring, u1_inv, mm(ring, spec.image(i, j), u1))
            if any(m[r][c] for r in range(n) for c in range(n)
                   if (r, c) != (i, j)):
                raise SpecInvariantError("not a scalar multiple")
            s[i][j] = m[i][j]
    p = ring.modulus
    for i in range(n):
        for j in range(n):
            for k in range(n):
                lhs = s[i][j] * s[j][k] - s[i][k]
                if (lhs % p if p else lhs) or s[i][i] != 1:
                    raise SpecInvariantError("cocycle")
    u = mm(ring, u1, tuple(tuple(s[i][0] if i == j else 0 for j in range(n))
                           for i in range(n)))
    u_inv = matrix_inverse(ring, u)
    for i in range(n):
        for j in range(n):
            if skolem.conjugate_unit(ring, u, u_inv, i, j) != spec.image(i, j):
                raise SkolemError("final check")
    return u


def _outcome(fn, spec):
    try:
        return fn(spec)
    except SkolemError as exc:
        return type(exc)


def random_unimodular(n, rng):
    """A product of random unit triangular matrices and a signed permutation."""
    u = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    for _ in range(3):
        low = [[rng.randrange(-2, 3) if i > j else int(i == j)
                for j in range(n)] for i in range(n)]
        up = [[rng.randrange(-2, 3) if i < j else int(i == j)
               for j in range(n)] for i in range(n)]
        u = skolem._matmul(Z, skolem._matmul(Z, u, low), up)
    perm = list(range(n))
    rng.shuffle(perm)
    signs = [rng.choice((-1, 1)) for _ in range(n)]
    return tuple(tuple(signs[c] * row[perm[c]] for c in range(n)) for row in u)


def _perturbed_spec(ring, n, rng, edits):
    u = (random_unimodular(n, rng) if ring == Z
         else random_invertible(ring, n, rng))
    images = {(i, j): [list(row) for row in m]
              for i, j, m in spec_from_conjugator(ring, u).unit_images}
    units = sorted(images)
    for kind in edits:
        a, b = rng.choice(units), rng.choice(units)
        if kind == "entry":
            images[a][rng.randrange(n)][rng.randrange(n)] += rng.choice((-1, 1))
        elif kind == "scale":
            f = rng.choice((-1, 2, 3))
            images[a] = [[f * v for v in row] for row in images[a]]
        elif kind == "swap":
            images[a], images[b] = images[b], images[a]
        elif kind == "zero":
            images[a] = [[0] * n for _ in range(n)]
        elif kind == "cocycle":
            # a valid spec again: conjugation by u * diag(t)
            t = [rng.choice((-1, 1)) if ring == Z else rng.randrange(1, ring.modulus)
                 for _ in range(n)]
            images = {(i, j): [[v * t[i] * skolem._scalar_inverse(ring, t[j])
                                for v in row] for row in m]
                      for (i, j), m in images.items()}
    return AlgebraAutoSpec(n, ring, tuple((i, j, m) for (i, j), m
                                          in sorted(images.items())))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([Z5, Z101, Z]), st.integers(1, 5),
       st.integers(0, 2 ** 32),
       st.lists(st.sampled_from(["entry", "scale", "swap", "zero", "cocycle"]),
                max_size=3))
def test_validation_and_recovery_match_full_table(ring, n, seed, edits):
    spec = _perturbed_spec(ring, n, random.Random(seed), edits)
    report = validate_auto_spec(spec)
    assert [c.passed for c in report.checks] == _reference_report(spec)
    ours = _outcome(lambda s: recover_conjugator(s, report).u, spec)
    assert ours == _outcome(_reference_recover, spec)


# ---------------------------------------------------------------------------
# big moduli, exact inverses over Z, one validation per CLI call
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("p", [2 ** 31 - 1, 2 ** 61 - 1])
def test_recover_over_big_prime_fields(p):
    ring = rings.residue(p)
    rng = random.Random(p)
    for n in (2, 5, 8):
        u_true = random_invertible(ring, n, rng)
        spec = spec_from_conjugator(ring, u_true)
        assert validate_auto_spec(spec).passed
        conj = recover_conjugator(spec)
        u_inv = matrix_inverse(ring, conj.u)
        for i in range(n):
            for j in range(n):
                assert skolem.conjugate_unit(ring, conj.u, u_inv, i, j) \
                    == spec.image(i, j)
        ratio = skolem._matmul(ring, conj.u, matrix_inverse(ring, u_true))
        assert central_scalar(ratio, ring) is not None


def test_dense_unimodular_12x12_inverts_and_recovers():
    rng = random.Random(61)
    u = random_unimodular(12, rng)
    assert sum(1 for row in u for v in row if v) > 100
    u_inv = matrix_inverse(Z, u)
    ident = skolem._identity(12)
    assert skolem._matmul(Z, u, u_inv) == ident
    assert skolem._matmul(Z, u_inv, u) == ident
    assert matrix_inverse(Z, u_inv) == u
    conj = recover_conjugator(spec_from_conjugator(Z, u))
    assert central_scalar(skolem._matmul(Z, conj.u, u_inv), Z) is not None


def test_non_unimodular_integer_matrix_is_refused():
    with pytest.raises(SkolemError, match="determinant 2 is not a unit of Z"):
        matrix_inverse(Z, ((1, 1), (-1, 1)))
    with pytest.raises(SkolemError, match="determinant 0 is not a unit of Z"):
        matrix_inverse(Z, ((1, 2), (2, 4)))
    with pytest.raises(SkolemError, match="singular mod p"):
        matrix_inverse(Z5, ((1, 2), (2, 4)))
