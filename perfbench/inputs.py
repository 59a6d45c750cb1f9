"""Seeded input generators.  Inputs are plain JSON documents in the formats
of docs/formats.md; the same seed always gives the same documents.  Nothing
here imports colift, so the inputs and the oracles below are independent of
the code under test."""

from __future__ import annotations

from fractions import Fraction

LAURENT_RING = {"kind": "laurent", "var": "u", "coeff": "Z"}
P = 101
BIG_PRIMES = {"p31": 2 ** 31 - 1, "p61": 2 ** 61 - 1}


def _det_mod(m, p):
    a = [list(row) for row in m]
    n = len(a)
    det = 1
    for c in range(n):
        piv = next((r for r in range(c, n) if a[r][c] % p), None)
        if piv is None:
            return 0
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            det = -det
        det = det * a[c][c] % p
        inv = pow(a[c][c], p - 2, p)
        for r in range(c + 1, n):
            f = a[r][c] * inv % p
            if f:
                a[r] = [(x - f * y) % p for x, y in zip(a[r], a[c])]
    return det % p


def inverse_mod(m, p):
    """Gauss-Jordan inverse of an invertible matrix over Z/p."""
    n = len(m)
    a = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(m)]
    for c in range(n):
        piv = next(r for r in range(c, n) if a[r][c] % p)
        a[c], a[piv] = a[piv], a[c]
        inv = pow(a[c][c], p - 2, p)
        a[c] = [x * inv % p for x in a[c]]
        for r in range(n):
            if r != c and a[r][c]:
                f = a[r][c]
                a[r] = [(x - f * y) % p for x, y in zip(a[r], a[c])]
    return [row[n:] for row in a]


def inverse_int(m):
    """Exact inverse of a unimodular integer matrix."""
    n = len(m)
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(m)]
    for c in range(n):
        piv = next(r for r in range(c, n) if a[r][c])
        a[c], a[piv] = a[piv], a[c]
        inv = 1 / a[c][c]
        a[c] = [x * inv for x in a[c]]
        for r in range(n):
            if r != c and a[r][c]:
                f = a[r][c]
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    out = [row[n:] for row in a]
    assert all(x.denominator == 1 for row in out for x in row)
    return [[int(x) for x in row] for row in out]


def invertible_mod(rng, k, p):
    while True:
        m = [[rng.randrange(p) for _ in range(k)] for _ in range(k)]
        if _det_mod(m, p):
            return m


def unimodular_int(rng, n):
    """D * L * R * D with L unit lower bidiagonal (subdiagonal 1), R unit
    upper bidiagonal (superdiagonal 2) and D a seeded diagonal of signs: a
    product of unit triangular matrices whose zero pattern and entry sizes,
    and so the cost of recovering it, do not depend on the seed."""
    d = [rng.choice((-1, 1)) for _ in range(n)]
    low = [[int(i == j or i == j + 1) for j in range(n)] for i in range(n)]
    up = [[1 if i == j else (2 if j == i + 1 else 0) for j in range(n)]
          for i in range(n)]
    return [[d[i] * sum(low[i][t] * up[t][j] for t in range(n)) * d[j]
             for j in range(n)] for i in range(n)]


# -- lift inputs ---------------------------------------------------------------

def _laurent_unit(rng, powers=(1, 2)):
    sign = rng.choice(("", "-"))
    e = rng.choice(powers) * rng.choice((1, -1))
    return f"{sign}u^{e}"


def flagship_matrices(rng, count):
    """The paper's u*Id, then scalar diagonals with tails +-u^{+-1,+-2} and
    0..3 unit prefix entries."""
    out = [{"ring": LAURENT_RING,
            "matrix": {"form": "scalar_diagonal", "prefix": [], "tail": "u"}}]
    while len(out) < count:
        prefix = [_laurent_unit(rng, (0, 1, 2))
                  for _ in range(rng.randint(0, 3))]
        out.append({"ring": LAURENT_RING,
                    "matrix": {"form": "scalar_diagonal", "prefix": prefix,
                               "tail": _laurent_unit(rng)}})
    return out


def _block_json(m):
    return [[str(v) for v in row] for row in m]


def periodic_blocks(rng, k, p=P):
    """A block diagonal with a random invertible k x k tail block over Z/p."""
    return {"ring": f"Z/{p}",
            "matrix": {"form": "block_diagonal", "prefix": [],
                       "tail": _block_json(invertible_mod(rng, k, p))}}


def exact_corner(rng, n, p=P):
    """A finite perturbation: an invertible n x n corner, then the identity."""
    return {"ring": f"Z/{p}",
            "matrix": {"form": "finite_perturbation",
                       "corner": _block_json(invertible_mod(rng, n, p))}}


# -- conjugator specs ------------------------------------------------------------

def conjugator_spec(rng, n, modulus=None):
    """(spec JSON, U_true): the unit images of conjugation by a seeded U.

    modulus None means Z with a unimodular U; images are u E_ij u^-1, the
    outer product of column i of u and row j of u^-1."""
    if modulus is None:
        u = unimodular_int(rng, n)
        u_inv = inverse_int(u)
        norm = int
        ring = "Z"
    else:
        u = invertible_mod(rng, n, modulus)
        u_inv = inverse_mod(u, modulus)
        ring = f"Z/{modulus}"

        def norm(x):
            return x % modulus
    images = {f"{i},{j}": [[norm(u[r][i] * u_inv[j][c]) for c in range(n)]
                           for r in range(n)]
              for i in range(n) for j in range(n)}
    return {"n": n, "ring": ring, "images": images}, u


def matmul(a, b, modulus=None):
    n = len(a)
    out = [[sum(a[i][t] * b[t][j] for t in range(n)) for j in range(n)]
           for i in range(n)]
    if modulus is not None:
        out = [[x % modulus for x in row] for row in out]
    return out
