"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
All checks are exact (zero tolerance); the two timed criteria carry their
stated wall-clock budgets.
"""

import itertools
import random
import time

from conftest import apply_to_matrix, random_invertible_mod, random_structured

from colift import dense, matrices, rings, skolem
from colift import cohomology as C
from colift.homs import HomRegistry, hom_section
from colift.lifting import (gl_lift, swindle_factorization, unimodular_reduce,
                            verify_certificate, whitehead_word)
from colift.matrices import (Elementary, FinitePerturbation, Identity,
                             Permutation, ScalarDiagonal, invert, map_hom,
                             multiply, window)
from colift.rings import BezoutWitness

REG = HomRegistry.builtin()
FLAGSHIP = REG.get("zxy_to_laurent")
LAU = FLAGSHIP.target
Z = rings.integers()


def report(num, label, passed):
    print(f"\nACCEPTANCE {num} [{label}]: {'PASS' if passed else 'FAIL'}")
    assert passed, f"acceptance criterion {num} ({label}) failed"


def test_criterion_1_flagship_lift():
    u = LAU.variable("u")
    t0 = time.perf_counter()
    cert = gl_lift(FLAGSHIP, invert(ScalarDiagonal(LAU, (), u)), 64)
    ok = True
    image = map_hom(FLAGSHIP, cert.lift.matrix)
    target = window(ScalarDiagonal(LAU, (), u), 64)
    ok &= window(image, 64) == target
    left = multiply(cert.lift.matrix, cert.lift.inverse)
    right = multiply(cert.lift.inverse, cert.lift.matrix)
    ident = window(Identity(FLAGSHIP.source), 64)
    ok &= window(left, 64) == ident and window(right, 64) == ident
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 10.0
    report(1, f"flagship u*Id lift, window 64, {elapsed:.2f}s", ok)


def test_criterion_2_unimodular_reduction_suite():
    rng = random.Random(2024)
    ok = True
    for _ in range(100):
        n = rng.randrange(1, 6)
        coeffs = [Z.from_int(rng.randrange(-9, 10)) for _ in range(n - 1)]
        vec = [Z.from_int(rng.randrange(-9, 10)) for _ in range(n - 1)]
        partial = sum((c * a for c, a in zip(coeffs, vec)), Z.zero())
        coeffs.append(Z.one())
        vec.append(Z.one() - partial)
        word = unimodular_reduce(vec, BezoutWitness(tuple(coeffs)))
        padded = {i: a for i, a in enumerate(vec) if not a.is_zero()}
        ok &= word.apply_to_vector(padded) == {0: Z.one()}
    u = LAU.variable("u")
    word = unimodular_reduce([u], BezoutWitness((rings.is_unit(u),)))
    ok &= word.apply_to_vector({0: u}) == {0: LAU.one()}
    report(2, "100 random unimodular columns over Z + the Laurent (u, 0) case",
           ok)


def test_criterion_3_whitehead_suite():
    ok = True
    for p in (5, 7, 101):
        ring = rings.residue(p)
        rng = random.Random(p * 11)
        for _ in range(100):
            k = rng.randrange(1, 5)
            a = random_invertible_mod(ring, k, rng)
            b = random_invertible_mod(ring, k, rng)
            word = whitehead_word(a, b, ring)
            zero = ring.zero()
            corner = [[zero] * (2 * k) for _ in range(2 * k)]
            for i in range(k):
                for j in range(k):
                    corner[i][j] = a[i][j]
                    corner[k + i][k + j] = b[i][j]
            out = apply_to_matrix(word, FinitePerturbation(ring, corner))
            got = window(out, 2 * k)
            expect = dense.mat_mul(a, b)
            for i in range(2 * k):
                for j in range(2 * k):
                    want = expect[i][j] if (i < k and j < k) else \
                        (ring.one() if i == j else ring.zero())
                    ok &= got[i][j] == want
    report(3, "300 random block pairs over Z/5, Z/7, Z/101 reach "
              "diag(A*B, Id) exactly", ok)


def test_criterion_4_swindle_factorizations():
    ok = True
    cases = [(LAU.variable("u"), rings.laurent("u")),
             ([[Z.one(), Z.one()], [Z.zero(), Z.one()]], Z)]
    rng = random.Random(4)
    z7 = rings.residue(7)
    cases.append((random_invertible_mod(z7, 2, rng), z7))
    for u, ring in cases:
        sw = swindle_factorization(u, ring)
        ok &= len(sw.factors) <= 5
        ok &= window(sw.product(), 64) == window(sw.target, 64)
    report(4, "<=5-factor words equal diag(U, U^-1, ...) on window 64", ok)


def test_criterion_5_finite_vs_infinite_contrast():
    hom = REG.get("z_to_z5")
    z5 = hom.target
    corner5 = [[z5.from_int(2), z5.zero()], [z5.zero(), z5.from_int(3)]]
    cert = gl_lift(hom, invert(FinitePerturbation(z5, corner5)), 32)
    ok = verify_certificate(cert, 64).passed
    corner_z = [[Z.from_int(2), Z.zero()], [Z.zero(), Z.from_int(3)]]
    det = dense.determinant(corner_z)
    ok &= det == Z.from_int(6) and rings.is_unit(det) is None
    try:
        invert(FinitePerturbation(Z, corner_z))
        ok = False
    except dense.NonInvertibleError:
        pass
    report(5, "diag(2,3) mod 5 lifts as an infinite word; its 2x2 corner "
              "(det 6) has no finite lift over Z", ok)


def test_criterion_6_skolem_roundtrip_suite():
    ring = rings.residue(101)
    rng = random.Random(606)
    t0 = time.perf_counter()
    ok = True
    for _ in range(100):
        n = rng.randrange(2, 7)
        while True:
            u_true = tuple(tuple(rng.randrange(101) for _ in range(n))
                           for _ in range(n))
            try:
                skolem.matrix_inverse(ring, u_true)
                break
            except skolem.SkolemError:
                continue
        spec = skolem.spec_from_conjugator(ring, u_true)
        conj = skolem.recover_conjugator(spec)
        u_inv = skolem.matrix_inverse(ring, conj.u)
        for i in range(n):
            for j in range(n):
                ok &= skolem.conjugate_unit(ring, conj.u, u_inv, i, j) \
                    == spec.image(i, j)
        ratio = skolem._matmul(ring, conj.u,
                               skolem.matrix_inverse(ring, u_true))
        ok &= skolem.central_scalar(ratio, ring) is not None
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 5.0
    report(6, f"100 conjugator round trips over Z/101, {elapsed:.2f}s", ok)


def test_criterion_7_cohomology_dimensions():
    def oracle_h0(n, d):
        if d < 0:
            return 0
        return sum(1 for c in itertools.product(range(d + 1), repeat=n + 1)
                   if sum(c) == d)

    def oracle_hn(n, d):
        e = -d - (n + 1)
        if e < 0:
            return 0
        return sum(1 for c in itertools.product(range(e + 1), repeat=n + 1)
                   if sum(c) == e)

    ok = True
    for n in range(1, 5):
        for d in range(-12, 13):
            for q in range(0, n + 1):
                expect = (oracle_h0(n, d) if q == 0 else
                          oracle_hn(n, d) if q == n else 0)
                ok &= C.coh_dim(n, d, q) == expect
            chi = sum((-1) ** q * C.coh_dim(n, d, q) for q in range(n + 1))
            ok &= chi == C.euler_characteristic(n, d)
            ok &= C.coh_dim(n, d, 0) == C.coh_dim(n, -d - n - 1, n)
    report(7, "coh_dim = monomial-count oracle; Euler and duality exact "
              "(n <= 4, |d| <= 12)", ok)


def test_criterion_8_counterexamples():
    ok = True
    # (a) shifted-sum system: (G) fails at every level <= 12, (G') passes
    shifted = C.shifted_sum_system(1)
    ok &= all(shifted.term(k).min_degree < 0 for k in range(13))
    ok &= C.check_condition(shifted, "G", [0], 12).verdicts[0].outcome == "NONE"
    ok &= C.check_condition(shifted, "G'", [0], 12).verdicts[0].outcome == "PASS"
    # (b) punctured plane: dim H^1 > 0 at every level; in the window where
    # the stated bound is exact (min(a,b) = 1), classes die within max(a,b)
    # steps.  Wider windows obey the exact law a+b-1.
    rep = C.punctured_plane_v0_report(3, 12)
    ok &= rep.v0_fails and all(t > 0 for *_x, t in rep.levels)
    ok &= all(s <= max(a, b) for a, b, s in rep.class_deaths)
    wide = C.punctured_plane_v0_report(6, 12)
    ok &= all(s == a + b - 1 for a, b, s in wide.class_deaths)
    # (c) quotient: H^1(Q_n) >= 1 for 2 <= n <= 12, with dim H^2(O(-3)) = 1
    quot = C.quotient_counterexample_report(12)
    ok &= all(l.h2_sub == 1 for l in quot.levels)
    ok &= all(l.certified and l.h1_quotient_lower_bound >= 1
              for l in quot.levels if 2 <= l.level <= 12)
    # (d) non-free pullback identity over 3 stages, degree <= 4
    nonfree = C.nonfree_pullback_report(3, 4)
    ok &= nonfree.all_decomposed
    report(8, "shifted-sum, punctured-plane, quotient and non-free pullback "
              "counterexamples reproduce", ok)


def test_criterion_9_structural_suites():
    ok = True
    z5 = rings.residue(5)
    # window associativity, 200 cases
    rng = random.Random(91)
    for _ in range(200):
        ring = rng.choice([Z, z5, LAU])
        a, b, c = (random_structured(ring, rng) for _ in range(3))
        n = rng.choice([4, 8, 16, 32])
        ok &= window(multiply(a, multiply(b, c)), n) \
            == window(multiply(multiply(a, b), c), n)
    # hom functoriality, 200 cases
    rng = random.Random(92)
    for _ in range(200):
        a = random_structured(FLAGSHIP.source, rng)
        b = random_structured(FLAGSHIP.source, rng)
        ok &= window(map_hom(FLAGSHIP, multiply(a, b)), 32) \
            == window(multiply(map_hom(FLAGSHIP, a), map_hom(FLAGSHIP, b)), 32)
    # elementary inverse identity, 200 cases
    rng = random.Random(93)
    count = 0
    while count < 200:
        m = random_structured(rng.choice([Z, z5, LAU]), rng)
        if not isinstance(m, Elementary):
            continue
        ok &= window(multiply(m, invert(m).inverse), 64) \
            == window(Identity(m.ring), 64)
        count += 1
    # zero-preserving sections, 200 cases
    rng = random.Random(94)
    for _ in range(200):
        hom = rng.choice([FLAGSHIP, REG.get("z_to_z5"), REG.get("z_to_z101")])
        tgt = hom.target
        if tgt.kind == "residue":
            b = tgt.from_int(rng.randrange(tgt.modulus))
        else:
            b = tgt.zero()
            for _ in range(rng.randrange(3)):
                b = b + tgt.monomial(rng.randrange(-4, 5), rng.randrange(-5, 6))
        a = hom_section(hom, b)
        ok &= a.is_zero() == b.is_zero()
        ok &= hom.apply(a) == b
    # permutation exact lifts, 200 cases
    rng = random.Random(95)
    for _ in range(200):
        idx = list(range(rng.randrange(2, 9)))
        images = idx[:]
        rng.shuffle(images)
        bij = matrices.FinitePermutation(
            tuple((i, s) for i, s in zip(idx, images) if i != s))
        p = Permutation(FLAGSHIP.source, bij)
        lifted = map_hom(FLAGSHIP, p)
        ok &= isinstance(lifted, Permutation) and lifted.bijection is bij
    report(9, "structural invariant suites, 200 randomized cases each", ok)
