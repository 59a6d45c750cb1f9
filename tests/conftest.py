"""Shared generators for randomized suites."""

from colift.matrices import (BlockDiagonal, ColumnFamily, Elementary,
                             FinitePermutation, FinitePerturbation, Identity,
                             MatrixFormError, Permutation, ScalarDiagonal,
                             multiply, window)


def random_element(ring, rng):
    if ring.kind in ("integers", "residue"):
        return ring.from_int(rng.randrange(-4, 5))
    out = ring.zero()
    for _ in range(rng.randrange(3)):
        if ring.kind == "laurent":
            key = rng.randrange(-2, 3)
        else:
            key = tuple(rng.randrange(3) for _ in ring.variables)
        out = out + ring.monomial(key, rng.randrange(-3, 4))
    return out


def random_structured(ring, rng, max_index=8):
    kind = rng.choice(["identity", "scalar", "finite", "block", "elementary",
                       "permutation", "elementary_periodic"])
    if kind == "identity":
        return Identity(ring)
    if kind == "scalar":
        prefix = tuple(random_element(ring, rng)
                       for _ in range(rng.randrange(3)))
        return ScalarDiagonal(ring, prefix, random_element(ring, rng))
    if kind == "finite":
        n = rng.randrange(1, 4)
        return FinitePerturbation(ring, [[random_element(ring, rng)
                                          for _ in range(n)] for _ in range(n)])
    if kind == "block":
        k = rng.randrange(1, 3)
        blk = [[random_element(ring, rng) for _ in range(k)] for _ in range(k)]
        return BlockDiagonal(ring, [], blk)
    if kind == "permutation":
        idx = list(range(rng.randrange(2, max_index)))
        images = idx[:]
        rng.shuffle(images)
        mapping = tuple((i, s) for i, s in zip(idx, images) if i != s)
        return Permutation(ring, FinitePermutation(mapping))
    if kind == "elementary_periodic":
        period = rng.randrange(2, 5)
        off = rng.randrange(1, period)
        fam = ColumnFamily(rng.randrange(3), period,
                           ((off, random_element(ring, rng)),))
        try:
            return Elementary(ring, {}, [fam])
        except MatrixFormError:
            return Identity(ring)
    head = {}
    cols = rng.sample(range(max_index), k=min(2, max_index))
    for j in cols:
        row = rng.choice([r for r in range(max_index) if r not in cols])
        head[j] = {row: random_element(ring, rng)}
    try:
        return Elementary(ring, head)
    except MatrixFormError:
        return Identity(ring)


def random_invertible_mod(ring, k, rng):
    """Random invertible dense block over Z/p as a product of triangulars."""
    from colift import dense
    p = ring.modulus
    lower = [[ring.from_int(rng.randrange(p)) if i > j
              else ring.one() if i == j else ring.zero()
              for j in range(k)] for i in range(k)]
    upper = [[ring.from_int(rng.randrange(p)) if i < j
              else ring.from_int(rng.randrange(1, p)) if i == j
              else ring.zero()
              for j in range(k)] for i in range(k)]
    return dense.mat_mul(lower, upper)


def two_sided_on_window(matrix, inverse, n):
    """The windowed oracle for a paired inverse: matrix * inverse and
    inverse * matrix both equal the identity on the top-left n x n window,
    computed column by column."""
    ident = window(Identity(matrix.ring), n)
    return all(window(multiply(a, b), n) == ident
               for a, b in ((matrix, inverse), (inverse, matrix)))


def apply_to_matrix(word, m):
    """The oracle for an elementary word acting on a matrix: "L" steps
    multiply on the left, "R" steps on the right, in listed order."""
    for step in word.steps:
        m = multiply(step.inv.matrix, m) if step.side == "L" \
            else multiply(m, step.inv.matrix)
    return m


def inverse_apply(bijection, j):
    """sigma^-1(j) by search: among the moved indices of a finite
    permutation, or within the period-sized block holding j."""
    if isinstance(bijection, FinitePermutation):
        return next((i for i, s in bijection.mapping if s == j), j)
    if j < bijection.offset:
        return j
    base = j - (j - bijection.offset) % bijection.period
    return next(i for i in range(base, base + bijection.period) if bijection(i) == j)
