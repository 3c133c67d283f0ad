"""References for the tests, kept apart from the routines they check.

- A Gaussian-elimination determinant over Q and the characteristic
  polynomial of a biquadratic element from its conjugates.
- The earlier relative norm N_{K/k_i}(a), which takes a * s_i(a) to Fraction
  radical coordinates and intersects it with k_i through an integer left
  kernel, and the earlier two-column Euclidean reduction to the canonical
  basis (a, b + c*omega) of a quadratic ideal.
- Ideal constructors and checks only the tests use: the ideal generated by
  elements, Galois stability and closure under multiplication.
- The integral basis as elements and basis coordinates as Fractions, read
  off BiquadField.basis_rows.
- The earlier sort-based Euclidean Hermite form, and the earlier quadratic
  product of ramified primes as a chain of ideal products, each one the
  Hermite form of the four products of the basis elements.
"""

from fractions import Fraction
from math import gcd

from polyabiquad.biquadratic import BiquadElement
from polyabiquad.errors import InvalidInputError
from polyabiquad.lattice import IdealLattice
from polyabiquad.linalg import hnf_contains, hnf_rows
from polyabiquad.quadratic import (QuadElement, QuadIdeal, _minpoly_double_root,
                                   quad_ideal_from_elements)


def mat_det_fraction(M) -> Fraction:
    n = len(M)
    a = [[Fraction(v) for v in row] for row in M]
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det *= a[col][col]
        inv = 1 / a[col][col]
        for r in range(col + 1, n):
            if a[r][col]:
                f = a[r][col] * inv
                a[r] = [v - f * w for v, w in zip(a[r], a[col])]
    return det


def char_poly(x) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    """(s1, s2, s3, s4) with char = t^4 - s1 t^3 + s2 t^2 - s3 t + s4."""
    p1 = x * x.sigma(1)
    p2 = x * x.sigma(2)
    p3 = x * x.sigma(3)
    s1 = x.trace()
    s2 = 2 * (p1.coords[0] + p2.coords[0] + p3.coords[0])
    s3 = (p1 * x.sigma(2)).trace()
    n = p1 * p1.sigma(2)
    assert all(c == 0 for c in n.coords[1:])
    return s1, s2, s3, n.coords[0]


def basis_elements(K) -> tuple:
    """The integral basis of K as elements, from its rows over 1/4."""
    return tuple(BiquadElement(K, [Fraction(v, 4) for v in r]) for r in K.basis_rows)


def basis_coords(K, el) -> tuple:
    """Coordinates of el over the integral basis, as Fractions."""
    n, den = K._basis_numerators(el)
    return tuple(Fraction(x, den) for x in n)


def gram_determinant(K) -> Fraction:
    """det(Tr(b_i b_j)) over the field's integral basis."""
    basis = basis_elements(K)
    return mat_det_fraction([[(x * y).trace() for y in basis] for x in basis])


def hnf_rows_euclid(rows, dim):
    """The earlier row Hermite form: each column step re-filters the rows
    with a nonzero entry, sorts them by its size and reduces by the smallest
    until one is left, then the entries above the pivots are reduced."""
    work = [list(r) for r in rows if any(r)]
    basis = []
    for col in range(dim):
        while True:
            cand = [r for r in work if r[col]]
            if len(cand) <= 1:
                break
            cand.sort(key=lambda r: abs(r[col]))
            piv = cand[0]
            for r in cand[1:]:
                q = r[col] // piv[col]
                if q:
                    for j in range(dim):
                        r[j] -= q * piv[j]
            work = [r for r in work if any(r)]
        cand = [r for r in work if r[col]]
        if cand:
            piv = cand[0]
            work.remove(piv)
            if piv[col] < 0:
                piv = [-v for v in piv]
            basis.append(piv)
    for i in range(len(basis)):
        for k in range(i + 1, len(basis)):
            pcol = next(j for j in range(dim) if basis[k][j])
            q = basis[i][pcol] // basis[k][pcol]
            if q:
                for j in range(dim):
                    basis[i][j] -= q * basis[k][j]
    return basis


def left_kernel(rows):
    """Basis of {x integer : sum x_i * rows[i] == 0}."""
    n = len(rows)
    w = len(rows[0]) if rows else 0
    aug = [list(rows[i]) + [1 if j == i else 0 for j in range(n)] for i in range(n)]
    for col in range(w):
        while True:
            cand = [r for r in aug if r[col]]
            if len(cand) <= 1:
                break
            cand.sort(key=lambda r: abs(r[col]))
            piv = cand[0]
            for r in cand[1:]:
                q = r[col] // piv[col]
                if q:
                    for j in range(w + n):
                        r[j] -= q * piv[j]
        cand = [r for r in aug if r[col]]
        if cand:
            aug.remove(cand[0])
    return [r[w:] for r in aug]


def quad_ideal_euclid(k, gens) -> QuadIdeal:
    """The ideal of k generated by gens, by Euclid on the omega column of the
    rows g and g*omega in (1, omega) coordinates."""
    work = []
    for g in gens:
        work += [k.omega_coords(g), k.omega_coords(g * k.omega())]
    work = [(u, v) for (u, v) in work if u or v]
    assert work, "zero ideal"
    while True:
        withv = [r for r in work if r[1]]
        if len(withv) <= 1:
            break
        withv.sort(key=lambda r: abs(r[1]))
        u0, v0 = withv[0]
        new = [(u0, v0)]
        for u, v in withv[1:]:
            q = v // v0
            if (u - q * u0, v - q * v0) != (0, 0):
                new.append((u - q * u0, v - q * v0))
        work = [r for r in work if not r[1]] + new
    pivot = [r for r in work if r[1]]
    assert pivot, "not a full lattice"
    b, c = pivot[0]
    if c < 0:
        b, c = -b, -c
    a = 0
    for u, _ in (r for r in work if not r[1]):
        a = gcd(a, u)
    assert a > 0, "not a full lattice"
    return QuadIdeal(k, a, b % a, c)


def relative_norm_fraction(K, lat, i) -> QuadIdeal:
    """N_{K/k_i}(a) = (a * sigma_i(a)) cap k_i through Fraction radical
    coordinates: the integer relations among the two radical columns that
    k_i lacks give the elements of k_i in a * sigma_i(a)."""
    m = lat.multiply(lat.conjugate(i + 1))
    rad_rows = [K.element_from_basis_coords(r).coords for r in m.rows]
    others = [j for j in (1, 2, 3) if j != i + 1]
    cols = []
    for j in others:
        den = 1
        for r in rad_rows:
            den = den * r[j].denominator // gcd(den, r[j].denominator)
        cols.append([int(r[j] * den) for r in rad_rows])
    kern = left_kernel([[cols[0][t], cols[1][t]] for t in range(4)])
    assert len(kern) == 2, "subfield intersection must have rank 2"
    k = K.subfields[i]
    gens = []
    for x in kern:
        c0 = sum(Fraction(x[t]) * rad_rows[t][0] for t in range(4))
        c1 = sum(Fraction(x[t]) * rad_rows[t][i + 1] for t in range(4))
        den = c0.denominator * c1.denominator // gcd(c0.denominator, c1.denominator)
        gens.append(QuadElement.make(k.d, int(c0 * den), int(c1 * den), den))
    return quad_ideal_euclid(k, gens)


def _unit_rows():
    return [[1 if i == j else 0 for j in range(4)] for i in range(4)]


def ideal_from_elements(K, elements) -> IdealLattice:
    """O_K-module generated by integral elements."""
    rows = []
    for el in elements:
        coords = basis_coords(K, el)
        if any(c.denominator != 1 for c in coords):
            raise InvalidInputError("generators must be integral")
        base = [int(c) for c in coords]
        rows += [K.mul_basis_coords(base, unit) for unit in _unit_rows()]
    H = hnf_rows(rows, 4)
    if len(H) != 4:
        raise InvalidInputError("generators span a rank-deficient lattice")
    return IdealLattice(K, H)


def is_galois_stable(lat) -> bool:
    return all(lat.conjugate(t) == lat for t in (1, 2, 3))


def is_closed_under_multiplication(lat) -> bool:
    K = lat.field
    return all(hnf_contains(lat.rows, K.mul_basis_coords(r, unit))
               for r in lat.rows for unit in _unit_rows())


def quad_ideal_multiply(a, b) -> QuadIdeal:
    """The product of two quadratic ideals, generated by the four products
    of their basis elements."""
    return quad_ideal_from_elements(
        a.field, [x * y for x in a.basis_elements() for y in b.basis_elements()])


def quad_ideal_conjugate(a) -> QuadIdeal:
    return quad_ideal_from_elements(a.field, [x.conj() for x in a.basis_elements()])


def subset_ideal_chain(k, mask) -> QuadIdeal:
    """The product of the primes above the ramified primes of k selected by
    mask, multiplied in one prime at a time; each prime is the ideal
    generated by p and omega - r_p."""
    ideal = quad_ideal_from_elements(k, [k.one()])
    for i, p in enumerate(k.ramified_primes):
        if mask >> i & 1:
            r = _minpoly_double_root(k.d, p)
            prime = quad_ideal_from_elements(k, [k.one().scale(p), k.omega() - k.one().scale(r)])
            assert prime.norm == p
            ideal = quad_ideal_multiply(ideal, prime)
    return ideal
