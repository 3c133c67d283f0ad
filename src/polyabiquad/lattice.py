"""Ideal lattices of a biquadratic field and the brute-force ambiguous-class
oracle.

An integral ideal is a rank-4 sublattice of the ring of integers, stored in
row Hermite normal form over the integral basis; the norm is the lattice
index, i.e. the determinant.  The radical of p*O_K is computed by linear
algebra over O_K/p: the Frobenius map x -> x^p is additive in characteristic
p, and the nilradical is the kernel of its m-th iterate once p^m >= 4.

Principality testing descends to the quadratic subfields.  For an ideal a of
norm n with Galois group {1, s1, s2, s3}, the lattice intersection
b_i = (a * s_i(a)) cap k_i is the relative norm ideal, of norm n in k_i.  If
some b_i is nonprincipal then a is nonprincipal.  Otherwise pick generators
tau_i of b_i; for any generator alpha of a, N_{K/k_i}(alpha) is also a
generator of b_i, and the three relative norms multiply to
tau_1 tau_2 tau_3 = N(alpha) * alpha^2 = +-n * alpha^2.  Unit ambiguity in
each tau_i is a full unit of k_i and contributes a unit square to the
product after adjusting by the finite twist sets {+-1, +-eps_i} (real) or
the subfield roots of unity (imaginary), which cover the unit classes modulo
squares.  So a is principal iff some twisted product tau_1 tau_2 tau_3 / n
is a square of an element of a with the right norm, and every candidate is
settled by the exact square-root test.  Both directions are complete: the
search never reports "nonprincipal" heuristically.

The oracle descends only on radical products that earlier verdicts leave
undecided, so every verdict is either a completed descent or follows from one
by the group law.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import cached_property
from math import gcd, prod

from .biquadratic import BiquadElement, BiquadField
from .errors import Budget, DomainError, InconsistencyError, InvalidInputError
from .linalg import hnf_contains, hnf_rows, left_kernel
from .quadratic import (AmbiguousClassesQuad, PrincipalCosets, QuadElement,
                        principal_generator_quad, quad_ideal_from_elements)
from .units import integral_square_root


class IdealLattice:
    """Integral ideal as a 4x4 Hermite-form lattice over the integral basis."""

    __slots__ = ("field", "rows", "norm")

    def __init__(self, field: BiquadField, rows):
        self.field = field
        self.rows = tuple(tuple(r) for r in rows)
        assert len(self.rows) == 4
        n = 1
        for i in range(4):
            assert self.rows[i][i] > 0 and all(
                self.rows[i][j] == 0 for j in range(i)), "rows must be in HNF"
            n *= self.rows[i][i]
        self.norm = n

    def __eq__(self, other):
        return (isinstance(other, IdealLattice)
                and self.field.d == other.field.d and self.rows == other.rows)

    def __hash__(self):
        return hash((self.field.d, self.rows))

    def __repr__(self):
        return f"IdealLattice(norm={self.norm}, rows={self.rows})"

    def basis_elements(self) -> list[BiquadElement]:
        return [self.field.element_from_basis_coords(r) for r in self.rows]

    def contains(self, el: BiquadElement) -> bool:
        coords = self.field.to_basis_coords(el)
        if any(c.denominator != 1 for c in coords):
            return False
        return hnf_contains([list(r) for r in self.rows], [int(c) for c in coords])

    def multiply(self, other: "IdealLattice") -> "IdealLattice":
        if self.field.d != other.field.d:
            raise InvalidInputError("ideals belong to different fields")
        K = self.field
        prod_rows = [K.mul_basis_coords(a, b) for a in self.rows for b in other.rows]
        lat = IdealLattice(K, hnf_rows(prod_rows, 4))
        assert lat.norm == self.norm * other.norm, "ideal norms must multiply"
        return lat

    def __mul__(self, other):
        return self.multiply(other)

    def conjugate(self, t: int) -> "IdealLattice":
        """Image under sigma_t."""
        S = self.field.sigma_matrices[t]
        rows = [[sum(r[k] * S[k][j] for k in range(4)) for j in range(4)]
                for r in self.rows]
        return IdealLattice(self.field, hnf_rows(rows, 4))

    def is_galois_stable(self) -> bool:
        return all(self.conjugate(t) == self for t in (1, 2, 3))

    def is_closed_under_multiplication(self) -> bool:
        K = self.field
        for r in self.rows:
            for j in range(4):
                unit = [0, 0, 0, 0]
                unit[j] = 1
                if not hnf_contains([list(x) for x in self.rows],
                                    K.mul_basis_coords(r, unit)):
                    return False
        return True


def ideal_from_elements(K: BiquadField, elements) -> IdealLattice:
    """O_K-module generated by integral elements."""
    rows = []
    for el in elements:
        coords = K.to_basis_coords(el)
        if any(c.denominator != 1 for c in coords):
            raise InvalidInputError("generators must be integral")
        base = [int(c) for c in coords]
        for j in range(4):
            unit = [0, 0, 0, 0]
            unit[j] = 1
            rows.append(K.mul_basis_coords(base, unit))
    H = hnf_rows(rows, 4)
    if len(H) != 4:
        raise InvalidInputError("generators span a rank-deficient lattice")
    return IdealLattice(K, H)


def rational_ideal(K: BiquadField, m: int) -> IdealLattice:
    m = abs(m)
    assert m > 0
    return IdealLattice(K, [[m if i == j else 0 for j in range(4)] for i in range(4)])


def ideal_mul(a: IdealLattice, b: IdealLattice) -> IdealLattice:
    return a.multiply(b)


# ---------------------------------------------------------------------------
# Radicals of p*O_K
# ---------------------------------------------------------------------------


def _mat_mul_mod(A, B, p):
    n = len(A)
    return [[sum(A[i][t] * B[t][j] for t in range(n)) % p for j in range(n)]
            for i in range(n)]


def _pow_coords_mod(K: BiquadField, v, e: int, p: int):
    result = [1, 0, 0, 0]
    base = [x % p for x in v]
    while e:
        if e & 1:
            result = [x % p for x in K.mul_basis_coords(result, base)]
        base = [x % p for x in K.mul_basis_coords(base, base)]
        e >>= 1
    return result


def _right_kernel_mod(A, p):
    """Basis of {x : A x = 0 mod p} by Gaussian elimination over F_p."""
    n = len(A)
    M = [[A[i][j] % p for j in range(n)] for i in range(n)]
    pivots = {}
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, n) if M[i][c] % p), None)
        if piv is None:
            continue
        M[r], M[piv] = M[piv], M[r]
        inv = pow(M[r][c], -1, p)
        M[r] = [(v * inv) % p for v in M[r]]
        for i in range(n):
            if i != r and M[i][c]:
                f = M[i][c]
                M[i] = [(v - f * w) % p for v, w in zip(M[i], M[r])]
        pivots[c] = r
        r += 1
    basis = []
    for c in range(n):
        if c in pivots:
            continue
        vec = [0] * n
        vec[c] = 1
        for pc, pr in pivots.items():
            vec[pc] = (-M[pr][c]) % p
        basis.append(vec)
    return basis


def prime_radical(K: BiquadField, p: int) -> IdealLattice:
    """rad(p*O_K), the product of the primes above a ramified p; satisfies
    rad**e_p = p*O_K."""
    if p not in K.profile.efg:
        raise DomainError(f"{p} is unramified in the field {K.d}")
    frob = []
    for t in range(4):
        unit = [0, 0, 0, 0]
        unit[t] = 1
        frob.append(_pow_coords_mod(K, unit, p, p))
    m = 1
    while p**m < 4:
        m += 1
    fm = frob
    for _ in range(m - 1):
        fm = _mat_mul_mod(fm, frob, p)
    # left kernel of fm: solve x*fm = 0, i.e. fm^T x = 0
    fmt = [[fm[j][i] for j in range(4)] for i in range(4)]
    kernel = _right_kernel_mod(fmt, p)
    rows = [[p if i == j else 0 for j in range(4)] for i in range(4)]
    rows += [list(v) for v in kernel]
    rad = IdealLattice(K, hnf_rows(rows, 4))
    e, f, g = K.profile.efg[p]
    if rad.norm != p ** (f * g):
        raise InconsistencyError(
            f"radical norm {rad.norm} != p^(f*g) = {p**(f*g)} for p={p}, field {K.d}")
    power = rad
    for _ in range(e - 1):
        power = power.multiply(rad)
    if power != rational_ideal(K, p):
        raise InconsistencyError(f"rad(pO_K)^e_p != pO_K for p={p}, field {K.d}")
    return rad


def prime_above_2(K: BiquadField) -> IdealLattice:
    """The unique prime ideal over 2 when 2 is totally ramified (e_2 = 4):
    the norm-2 radical with rad**4 = 2*O_K."""
    if K.profile.e2 != 4:
        raise DomainError(f"2 is not totally ramified in {K.d} (e_2 = {K.profile.e2})")
    return prime_radical(K, 2)


# ---------------------------------------------------------------------------
# Principality by relative-norm descent
# ---------------------------------------------------------------------------


def relative_norm_ideal(K: BiquadField, lat: IdealLattice, i: int):
    """N_{K/k_i}(a) = (a * sigma_i(a)) cap k_i as an ideal of the subfield."""
    m = lat.multiply(lat.conjugate(i + 1))
    rad_rows = []
    for r in m.rows:
        el = K.element_from_basis_coords(r)
        rad_rows.append(el.coords)
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
    ideal = quad_ideal_from_elements(k, gens)
    if ideal.norm != lat.norm:
        raise InconsistencyError(
            f"relative norm ideal has norm {ideal.norm}, expected {lat.norm}")
    return ideal


def _unit_twists(K: BiquadField, i: int, g: QuadElement) -> list[BiquadElement]:
    """Generators of b_i modulo squares of subfield units."""
    k = K.subfields[i]
    if k.is_real:
        ge = g * k.fundamental_unit
        quads = [g, -g, ge, -ge]
    else:
        z = k.torsion_generator()
        quads = [g, g * z]
    return [K.from_quad(i, q) for q in quads]


def principal_ideal_generator(lat: IdealLattice,
                              budget: Budget | None = None) -> BiquadElement | None:
    """Exact generator of the ideal, or None when provably nonprincipal."""
    K = lat.field
    n = lat.norm
    if n == 1:
        return K.one()
    twist_sets = []
    for i in range(3):
        b = relative_norm_ideal(K, lat, i)
        g = principal_generator_quad(b, budget, check_input=False)
        if g is None:
            return None  # a principal ideal has principal relative norms
        twist_sets.append(_unit_twists(K, i, g))
    inv_n = Fraction(1, n)
    seen: set = set()
    for t1, t2, t3 in itertools.product(*twist_sets):
        if budget is not None:
            budget.charge()
        s = (t1 * t2 * t3).scale(inv_n)
        if s.coords in seen:
            continue
        seen.add(s.coords)
        if any(c.denominator > 4 for c in s.coords):
            continue
        if not K.is_integral(s):
            continue
        # the square root the formula route also uses, for the unit index
        xi = integral_square_root(K, s)
        if xi is not None and abs(xi.norm()) == n and lat.contains(xi):
            return xi
    return None


# ---------------------------------------------------------------------------
# The ambiguous-ideal oracle
# ---------------------------------------------------------------------------


class AmbiguousIdealOracle:
    """Formula-free counts of strongly ambiguous classes and of the kernel of
    the class-extension map, from principality verdicts on the products of
    ramified-prime radicals.

    Exponent vectors live in G = prod_p Z/e_p: rad(p)^e_p = p*O_K is
    principal and rational, so reducing exponents mod e_p never changes an
    ideal class.  Via the conjugate-product trick a * b~ ~ a * b^-1 * N(b),
    the classes are the cosets of the principal subgroup P, which a
    PrincipalCosets book builds from as few descents as it can.
    """

    def __init__(self, K: BiquadField, budget_units: int | None = None):
        self.K = K
        self.budget = Budget(budget_units)
        self.primes = K.profile.primes
        self.exponents = [K.profile.efg[p][0] for p in self.primes]
        self._radicals: dict[int, IdealLattice] = {}
        self._book = PrincipalCosets(
            (0,) * len(self.primes),
            lambda a, b: self.reduce_vector([x + y for x, y in zip(a, b)]),
            self._descend)

    def radical(self, p: int) -> IdealLattice:
        if p not in self._radicals:
            self._radicals[p] = prime_radical(self.K, p)
        return self._radicals[p]

    def reduce_vector(self, vec) -> tuple[int, ...]:
        return tuple(v % e for v, e in zip(vec, self.exponents))

    def vector_ideal(self, vec) -> IdealLattice:
        vec = self.reduce_vector(vec)
        lat = rational_ideal(self.K, 1)
        for p, v in zip(self.primes, vec):
            for _ in range(v):
                lat = lat.multiply(self.radical(p))
        return lat

    def _descend(self, vec: tuple[int, ...]) -> bool:
        return principal_ideal_generator(self.vector_ideal(vec), self.budget) is not None

    def is_principal_vector(self, vec) -> bool:
        return self._book.is_principal(self.reduce_vector(vec))

    def is_principal_radical_power(self, powers: dict[int, int]) -> bool:
        vec = [powers.get(p, 0) for p in self.primes]
        return self.is_principal_vector(vec)

    @cached_property
    def _classes(self) -> tuple[list[tuple[int, ...]], dict[tuple[int, ...], int]]:
        return self._book.classes(
            list(itertools.product(*[range(e) for e in self.exponents])))

    def class_representatives(self) -> list[tuple[int, ...]]:
        """The lexicographically first vector of each coset of P."""
        return list(self._classes[0])

    def class_index(self, vec) -> int:
        """Index of the class of vec among the representatives."""
        return self._classes[1][self.reduce_vector(vec)]

    def polya_order_oracle(self) -> int:
        """Number of strongly ambiguous classes, counted directly."""
        return len(self.class_representatives())

    def _subfield_vector(self, i: int, mask: int) -> list[int]:
        """Exponent vector of the extension to O_K of a product of ramified
        primes of k_i: the extended prime ideal is rad(p) when e_p = 2 and
        rad(p)^2 when p is totally ramified."""
        vec = [0] * len(self.primes)
        for bit, p in enumerate(self.K.subfields[i].ramified_primes):
            if mask >> bit & 1:
                j = self.primes.index(p)
                vec[j] += 2 if self.exponents[j] == 4 else 1
        return vec

    def kernel_order_oracle(self) -> int:
        """Order of the kernel of the extension map on ambiguous classes:
        count the triples of subfield class representatives whose product
        extends to a principal ideal of O_K."""
        sub = [AmbiguousClassesQuad(k, self.budget) for k in self.K.subfields]
        rep_masks = [c.class_representatives() for c in sub]
        total = prod(len(masks) for masks in rep_masks)
        kernel = 0
        images = set()
        for m1, m2, m3 in itertools.product(*rep_masks):
            vec = [0] * len(self.primes)
            for i, m in enumerate((m1, m2, m3)):
                for j, v in enumerate(self._subfield_vector(i, m)):
                    vec[j] += v
            if self.is_principal_vector(vec):
                kernel += 1
            images.add(self.class_index(vec))
        if kernel * len(images) != total:
            raise InconsistencyError(
                "kernel size times image size must equal the triple count")
        return kernel
