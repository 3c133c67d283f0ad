"""References for the tests, kept apart from the routines they check.

- QuadElement, an integer (x + y*sqrt(d))/den of a quadratic field with
  den in {1, 2}, with its own arithmetic; the program itself keeps subfield
  integers as pairs (u, v) standing for u + v*omega, and from_omega and
  omega_coords cross between the two.
- BiquadElement, an element of a biquadratic field in Fraction coordinates
  over (1, sqrt(d1), sqrt(d2), sqrt(d3)), with its own radical product; the
  program itself keeps elements as integer coordinates over the integral
  basis.  basis_coords, element_from_coords, integral_coords and embed_quad
  cross between the two.
- A Gaussian-elimination determinant over Q and the characteristic
  polynomial of a biquadratic element from its conjugates.
- The earlier relative norm N_{K/k_i}(a), which takes a * s_i(a) to Fraction
  radical coordinates and intersects it with k_i through an integer left
  kernel, and the earlier two-column Euclidean reduction to the canonical
  basis (a, b + c*omega) of a quadratic ideal.
- Ideal constructors and checks only the tests use: the ideal generated by
  elements, in K and in a quadratic subfield, Galois stability and closure
  under multiplication, in K and in a quadratic subfield.
- The integral basis as elements, read off BiquadField.basis_rows, and
  basis coordinates as Fractions by Cramer's rule.
- generic_basis_tables, the earlier route to the tables of an integral
  basis: a block adjugate of its rows, then every radical product, Galois
  image and subfield integer converted through it.  The program writes the
  rows, structure constants and subfield integers down per residue pattern
  and derives the Galois images from them.
- The earlier square root integral_square_root_fraction, which runs the
  denesting over k1 in Fraction radical coordinates.
- The earlier sort-based Euclidean Hermite form, and the earlier quadratic
  product of ramified primes as a chain of ideal products, each one the
  Hermite form of the four products of the basis elements.
- The earlier kernel count kernel_order_by_triples, which walks every
  triple of subfield class representatives of an ambiguous-ideal oracle,
  the earlier cokernel count cokernel_by_hermite_form, the pivots of one
  stacked Hermite form, reduce_vector, an oracle's exponent vector
  reduced mod e_p, pack_vector, the packing of an oracle's coset book,
  packed_add, the group law on its packed vectors, and subfield_image,
  the packed extension of a product of subfield primes.
- subfield_class_representatives, the least mask of each class of a
  subfield book, in increasing order; the program counts the classes as
  2**s / |P| and lists none.
- The earlier element-wise CosetBook.decide, elementwise_decide: it
  decides every element of a listed subgroup in the order listed, and
  checks that P lies in it only afterwards; the book decides one element
  of each coset of P in the span of a basis.
- The earlier set-based coset book PrincipalCosets, which holds P and the
  known-nonprincipal cosets as explicit sets and visits every element of
  its group, and reference_classes, the ambiguous classes of a field by
  that book: every subfield mask in increasing order, each
  decided by its genus characters and then a search, and every exponent
  vector of K in increasing order, each decided by the oracle's character
  table and then a descent.
- The earlier lattice route of a descent: vector_lattice, the product
  lattice of the prime_radical lattices for an oracle's exponent vector, and
  lattice_generator, a descent on any ideal lattice through its lattice
  relative norms, the generators principal_generator_quad finds for them,
  and lattice membership.
- The earlier candidates of a descent, twisted_products: every product of
  the twisted relative-norm generators, |T_1|*|T_2|*|T_3| of them, with
  the repeats dropped; the program multiplies the generators once and
  twists the product by the table BiquadField.unit_twists.
- The descent before the quadratic-character sieve, unsieved_generator:
  it forms g*u / n for every twist of BiquadField.unit_twists and settles
  each by the exact square root, with the same budget and the same order.
- parse_records, the inverse of report.render_records, and
  render_json_by_dumps, its earlier JSON renderer, one json.dumps per row.
- The earlier unit search denesting_unit_structure: it forms each product
  of subfield units that the sign character does not prune (real K), or
  zeta, eps_r and zeta*eps_r (imaginary K), in K and settles each by
  integral_square_root; the program decides the same candidates by tests
  on rational integers and writes each root down.  It reads the roots of
  unity of a subfield off torsion_order, and the radical index of each
  real square class off relative_norm_characters.
- The earlier character table of a real field relative_norm_characters: it
  forms N_{K/k_t}(xi_a) = xi_a * s_t(xi_a) in K for every square class and
  t = 1, 2, 3 and reads each sign off it; the program reads the signs off
  the radical index of each class.
- The earlier cohomology data of an imaginary field
  relative_norm_cocycle_data: it forms zeta, its w powers, s_1(zeta),
  s_2(zeta) and the three relative norms of eta in K and reads each off as
  a power of zeta; the program reads (w, k1, k2, c1, c2) off K.d, lambda_3
  and the radical index of the square class.
- relative_norm_h1_order, |H^1(G, O_K^x)| of any field counted afresh on
  every call from the data formed in K: the characters of
  relative_norm_characters (real K) or relative_norm_cocycle_data
  (imaginary K), with the earlier uncached counts cocycle_count and
  h1_roots_of_unity; the program memoises its counts per signature.
- The earlier ramification profile dict_ramification_profile, which
  collects the subfields each prime ramifies in as a dict of lists and
  checks prime by prime; the program reads the profile off set operations
  on the three subfields' prime sets.
- The earlier loop product loop_mul, which reads all 64 entries of the
  structure constants, e_0 = 1 included; the program's _mul reads the nine
  products e_i*e_j with i, j >= 1 in straight lines.
- The earlier residue maps scanned_residue_maps, which scan the primes
  below 300 afresh for every field, to the same number of maps, and the earlier character mask
  euler_character_mask, every Legendre symbol by Euler's criterion; the
  program takes its primes below 300 off the subfields' sieve masks and
  reads the symbols there off a table of squares.
- The earlier per-field generator masks mapped_generator_masks, with
  generator_items: the characters of -1, the twist generators and the
  ramified primes under every residue map of the field; the program reads
  them below 300 off per-subfield tables, kept once per process.
- clear_subfield_caches, which empties the per-process table of quadratic
  fields, so that a field built after it starts cold and no monkeypatched
  result leaks into another test; a field built before it keeps its
  subfields, with their units, books and generators above 2.  It also
  empties H1_MEMOS, the memo tables of the |H^1| counts in units.
- The general Kronecker symbol kronecker, against which test_lattice
  checks which primes l the residue maps take and the characters of
  rational integers under them; the program reads the symbols below 300
  off a table of squares and past 300 by Euler's criterion.
- The earlier table of the order of mu_K by the d_i, mu_order_table, and
  the earlier scan over range(p) for the double root of the minimal
  polynomial of omega at a ramified prime, minpoly_double_root_scan.
- The earlier two-pass continued-fraction unit two_pass_fundamental_unit:
  it records every surd state and every digit from omega on, with a cap
  of 100,000 digits, and multiplies up the periodic block afterwards.
- The earlier argparse front end build_parser, kept verbatim, and
  reference_parse, which reads a command line through it into the
  namespace cli.parse_args returns: the handler, its attributes and the
  resolved output format.
"""

import argparse
import functools
import itertools
import json
import sys
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt, lcm, prod
from operator import mul
from types import SimpleNamespace

from polyabiquad import units
from polyabiquad.biquadratic import _ROOT_CAP, BiquadField, _root_mod
from polyabiquad.errors import DomainError, InconsistencyError, InvalidInputError, bit_lengths
from polyabiquad.lattice import (IdealLattice, prime_radical, principal_ideal_generator,
                                 rational_ideal, relative_norm_ideal)
from polyabiquad.linalg import hnf_contains, hnf_rows
from polyabiquad.quadratic import (QuadIdeal, _form_characters, _ideal_form, omega_norm,
                                   prime_above, principal_generator_quad, radical_coords,
                                   ramified_product)
from polyabiquad.report import OutputRecord
from polyabiquad.units import UnitStructure, integral_square_root

_F0 = Fraction(0)
# coordinate signs of sigma_0, ..., sigma_3: sigma_t fixes sqrt(d_t) and
# negates the other two radicals
_SIGMA_SIGNS = ((1, 1, 1, 1), (1, 1, -1, -1), (1, -1, 1, -1), (1, -1, -1, 1))


def radical_product(d, a, b) -> list:
    """Product of two vectors over (1, sqrt(d1), sqrt(d2), sqrt(d3)) for the
    triple d, with sqrt(x)*sqrt(y) = -sqrt(xy) exactly when x, y < 0."""
    out = [_F0, _F0, _F0, _F0]
    for i in range(4):
        for j in range(4):
            p = a[i] * b[j]
            if not p:
                continue
            if i == 0 or j == 0:
                out[i + j] += p
            elif i == j:
                out[0] += p * d[i - 1]
            else:
                x, y, z = d[i - 1], d[j - 1], d[5 - i - j]
                sign = -1 if x < 0 and y < 0 else 1
                out[6 - i - j] += p * sign * isqrt(x * y // z)
    return out


@dataclass(frozen=True)
class QuadElement:
    """(x + y*sqrt(d)) / den with den in {1, 2}; always an algebraic integer."""

    d: int
    x: int
    y: int
    den: int = 1

    @staticmethod
    def make(d: int, x: int, y: int, den: int = 1) -> "QuadElement":
        if den < 0:
            x, y, den = -x, -y, -den
        g = gcd(gcd(x, y), den)
        if g > 1:
            x, y, den = x // g, y // g, den // g
        if den == 1:
            return QuadElement(d, x, y, 1)
        if den == 2 and d % 4 == 1 and (x - y) % 2 == 0:
            return QuadElement(d, x, y, 2)
        raise InvalidInputError(f"({x}+{y}*sqrt({d}))/{den} is not integral")

    def __add__(self, other: "QuadElement") -> "QuadElement":
        if self.d != other.d:
            raise InvalidInputError("elements belong to different fields")
        return QuadElement.make(
            self.d,
            self.x * other.den + other.x * self.den,
            self.y * other.den + other.y * self.den,
            self.den * other.den,
        )

    def __neg__(self) -> "QuadElement":
        return QuadElement(self.d, -self.x, -self.y, self.den)

    def __mul__(self, other: "QuadElement") -> "QuadElement":
        if self.d != other.d:
            raise InvalidInputError("elements belong to different fields")
        return QuadElement.make(
            self.d,
            self.x * other.x + self.y * other.y * self.d,
            self.x * other.y + self.y * other.x,
            self.den * other.den,
        )

    def scale(self, n: int) -> "QuadElement":
        return QuadElement.make(self.d, self.x * n, self.y * n, self.den)

    def conj(self) -> "QuadElement":
        return QuadElement(self.d, self.x, -self.y, self.den)

    def norm(self) -> int:
        num = self.x * self.x - self.d * self.y * self.y
        if num % (self.den * self.den):
            raise InconsistencyError(f"{self} has a non-integral norm")
        return num // (self.den * self.den)

    def trace(self) -> int:
        if (2 * self.x) % self.den:
            raise InconsistencyError(f"{self} has a non-integral trace")
        return 2 * self.x // self.den

    def __pow__(self, n: int) -> "QuadElement":
        if n < 0:
            raise InvalidInputError(f"negative power {n} of an integer")
        result = QuadElement(self.d, 1, 0, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    @staticmethod
    def from_omega(d: int, u: int, v: int) -> "QuadElement":
        """u + v*omega, omega = sqrt(d) or (1 + sqrt(d))/2."""
        if d % 4 == 1:
            return QuadElement.make(d, 2 * u + v, v, 2)
        return QuadElement.make(d, u, v, 1)

    def omega_coords(self) -> tuple[int, int]:
        """(u, v) with self = u + v*omega."""
        if self.d % 4 == 1:
            return (self.x - self.y) // self.den, 2 * self.y // self.den
        return self.x, self.y

    def __str__(self):
        core = f"{self.x}"
        if self.y:
            sign = "+" if self.y > 0 else "-"
            mag = abs(self.y)
            term = f"sqrt({self.d})" if mag == 1 else f"{mag}*sqrt({self.d})"
            core = f"{self.x}{sign}{term}" if self.x else (f"-{term}" if self.y < 0 else term)
        return f"({core})/2" if self.den == 2 else core


class BiquadElement:
    """Element of a biquadratic field in exact radical coordinates."""

    __slots__ = ("field", "coords")

    def __init__(self, field, coords):
        self.field = field
        self.coords = tuple(c if c.__class__ is Fraction else Fraction(c)
                            for c in coords)
        assert len(self.coords) == 4

    def __eq__(self, other):
        return (isinstance(other, BiquadElement)
                and self.field.d == other.field.d and self.coords == other.coords)

    def __hash__(self):
        return hash((self.field.d, self.coords))

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def __add__(self, other: "BiquadElement") -> "BiquadElement":
        return BiquadElement(self.field,
                             [a + b for a, b in zip(self.coords, other.coords)])

    def __sub__(self, other: "BiquadElement") -> "BiquadElement":
        return BiquadElement(self.field,
                             [a - b for a, b in zip(self.coords, other.coords)])

    def __neg__(self) -> "BiquadElement":
        return BiquadElement(self.field, [-a for a in self.coords])

    def __mul__(self, other: "BiquadElement") -> "BiquadElement":
        K = self.field
        assert K.d == other.field.d
        return BiquadElement(K, radical_product(K.d, self.coords, other.coords))

    def __pow__(self, n: int) -> "BiquadElement":
        assert n >= 0
        result, base = BiquadElement(self.field, (1, 0, 0, 0)), self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def sigma(self, t: int) -> "BiquadElement":
        """Galois conjugate: sigma_0 = identity, sigma_t fixes sqrt(d_t)."""
        if t == 0:
            return self
        return BiquadElement(self.field,
                             [c * s for c, s in zip(self.coords, _SIGMA_SIGNS[t])])

    def trace(self) -> Fraction:
        return 4 * self.coords[0]

    def norm(self) -> Fraction:
        p = self * self.sigma(1)
        n = p * p.sigma(2)
        if any(n.coords[1:]):
            raise InconsistencyError(f"the norm {n} of {self} must be rational")
        return n.coords[0]

    def to_quad(self, i: int) -> "QuadElement":
        """The element as a member of the i-th quadratic subfield (0-based)."""
        K = self.field
        others = [j for j in (1, 2, 3) if j != i + 1]
        if self.coords[others[0]] or self.coords[others[1]]:
            raise DomainError("element does not lie in that quadratic subfield")
        c0, c1 = self.coords[0], self.coords[i + 1]
        den = lcm(c0.denominator, c1.denominator)
        return QuadElement.make(K.d[i], int(c0 * den), int(c1 * den), den)

    def __repr__(self):
        names = ["", *(f"sqrt({d})" for d in self.field.d)]
        parts = []
        for c, n in zip(self.coords, names):
            if c == 0:
                continue
            parts.append(f"{c}" if not n else (f"{c}*{n}" if abs(c) != 1 else
                                               (n if c == 1 else f"-{n}")))
        return " + ".join(parts).replace("+ -", "- ") or "0"


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


def generic_basis_tables(K, rows) -> tuple:
    """The tables of the integral basis given by rows (integers in units of
    1/4, row 0 equal to 1), by the earlier adjugate route: the block adjugate
    of the rows, then the radical products, Galois images and subfield
    integers converted through it.  Returns (rows, consts, omegas), the
    layout of BiquadField._set_basis, and the matrices of sigma_0..sigma_3,
    which K derives; raises InconsistencyError when a conversion is not
    integral.  No discriminant check: that one is BiquadField._set_basis's."""
    if rows[0] != [4, 0, 0, 0]:
        raise InconsistencyError(f"the integral basis of {K.d} must start with 1")
    # rows = [[4, 0], [b, C]] in blocks, so det = 4*det(C) and
    # adj(rows) = [[det(C), 0], [-adj(C)*b, 4*adj(C)]]
    C = [r[1:] for r in rows[1:]]
    adj_c = [[C[(j + 1) % 3][(i + 1) % 3] * C[(j + 2) % 3][(i + 2) % 3]
              - C[(j + 1) % 3][(i + 2) % 3] * C[(j + 2) % 3][(i + 1) % 3]
              for j in range(3)] for i in range(3)]
    det_c = C[0][0] * adj_c[0][0] + C[0][1] * adj_c[1][0] + C[0][2] * adj_c[2][0]
    det = 4 * det_c
    adj_cols = [(det_c, *(-sum(a * r[0] for a, r in zip(adj_c[i], rows[1:])) for i in range(3)))]
    adj_cols += [(0, *(4 * adj_c[i][j] for i in range(3))) for j in range(3)]

    def coords(vec, scale, what):
        out = []
        for col in adj_cols:
            q, r = divmod(4 * sum(int(v) * c for v, c in zip(vec, col)), scale * det)
            if r:
                raise InconsistencyError(f"{what} are not integral in the basis of {K.d}")
            out.append(q)
        return out

    consts = [[coords(radical_product(K.d, rows[i], rows[j]), 16, "products of basis elements")
               for j in range(4)] for i in range(4)]
    sigmas = [[coords([v * s for v, s in zip(r, signs)], 4, "Galois images") for r in rows]
              for signs in _SIGMA_SIGNS]
    omegas = []
    for i, d in enumerate(K.d):
        vec, scale = [0, 0, 0, 0], 1
        vec[i + 1] = 1
        if d % 4 == 1:
            vec[0], scale = 1, 2
        omegas.append(coords(vec, scale, "subfield integers"))
    return rows, consts, omegas, sigmas


def basis_elements(K) -> tuple:
    """The integral basis of K as elements, from its rows over 1/4."""
    return tuple(BiquadElement(K, [Fraction(v, 4) for v in r]) for r in K.basis_rows)


def basis_coords(K, el) -> tuple:
    """Coordinates of el over the integral basis, as Fractions: the x with
    sum x_j * b_j = el, by Cramer's rule on the rows b_j."""
    rows = [list(b.coords) for b in basis_elements(K)]
    det = mat_det_fraction(rows)
    return tuple(mat_det_fraction(rows[:j] + [list(el.coords)] + rows[j + 1:]) / det
                 for j in range(4))


def integral_coords(K, el) -> list[int]:
    """basis_coords of an integral el as integers."""
    coords = basis_coords(K, el)
    if any(c.denominator != 1 for c in coords):
        raise InvalidInputError(f"{el} is not integral")
    return [int(c) for c in coords]


def element_from_coords(K, x) -> BiquadElement:
    """The element sum x_j * b_j over the integral basis."""
    return BiquadElement(K, [Fraction(sum(v * r[k] for v, r in zip(x, K.basis_rows)), 4)
                             for k in range(4)])


def embed_quad(K, i, uv) -> BiquadElement:
    """The integer u + v*omega_i, uv = (u, v), of the i-th quadratic subfield
    (0-based) as an element of K."""
    q = QuadElement.from_omega(K.d[i], *uv)
    coords = [Fraction(q.x, q.den), 0, 0, 0]
    coords[i + 1] = Fraction(q.y, q.den)
    return BiquadElement(K, coords)


def gram_determinant(K) -> Fraction:
    """det(Tr(b_i b_j)) over the field's integral basis."""
    basis = basis_elements(K)
    return mat_det_fraction([[(x * y).trace() for y in basis] for x in basis])


def _rational_sqrt(q: Fraction) -> Fraction | None:
    """The root r >= 0 with r*r == q, or None."""
    if q < 0:
        return None
    n, d = isqrt(q.numerator), isqrt(q.denominator)
    if n * n == q.numerator and d * d == q.denominator:
        return Fraction(n, d)
    return None


def _k1_mul(a, b, d1: int):
    """Product in k1 of pairs (x, y) standing for x + y*sqrt(d1)."""
    return a[0] * b[0] + d1 * a[1] * b[1], a[0] * b[1] + a[1] * b[0]


def _k1_sqrt(g, d1: int):
    """A pair r with r*r == g in k1, or None when g is not a square in k1."""
    x, y = g
    if y == 0:
        r = _rational_sqrt(x)
        if r is not None:
            return r, _F0
        r = _rational_sqrt(x / d1)
        return None if r is None else (_F0, r)
    n = _rational_sqrt(x * x - d1 * y * y)
    if n is None:
        return None
    for s in (n, -n):
        a = _rational_sqrt((x + s) / 2)
        if a:
            return a, y / (2 * a)
    return None


def _relative_sqrt(alpha, beta, d1: int, d2: int):
    """A root (a, b) of alpha + beta*sqrt(d2) over k1, or None."""
    if beta == (_F0, _F0):
        a = _k1_sqrt(alpha, d1)
        if a is not None:
            return a, (_F0, _F0)
        b = _k1_sqrt((alpha[0] / d2, alpha[1] / d2), d1)
        return None if b is None else ((_F0, _F0), b)
    a2, b2 = _k1_mul(alpha, alpha, d1), _k1_mul(beta, beta, d1)
    nu = _k1_sqrt((a2[0] - d2 * b2[0], a2[1] - d2 * b2[1]), d1)
    if nu is None:
        return None
    for s in (1, -1):
        a = _k1_sqrt(((alpha[0] + s * nu[0]) / 2, (alpha[1] + s * nu[1]) / 2), d1)
        if a is not None and a != (_F0, _F0):
            # beta / (2a) = beta * conj(a) / (2 N(a))
            n2 = 2 * (a[0] * a[0] - d1 * a[1] * a[1])
            b = _k1_mul(beta, (a[0] / n2, -a[1] / n2), d1)
            return a, b
    return None


def integral_square_root_fraction(K, eta) -> tuple[int, ...] | None:
    """The earlier square root: the same denesting over k1 on the Fraction
    radical coordinates of eta, with no common scale."""
    d1, d2 = K.d[0], K.d[1]
    m = K.cofactors[2]
    c0, c1, c2, c3 = (Fraction(sum(map(mul, eta, col)), 4) for col in zip(*K.basis_rows))
    root = _relative_sqrt((c0, c1), (c2, c3 / m), d1, d2)
    if root is None:
        return None
    (a0, a1), (b0, b1) = root
    rad = (a0, a1, b0, b1 * m)
    den = lcm(*(c.denominator for c in rad))
    xi = tuple(K.from_radicals([c.numerator * (den // c.denominator) for c in rad], den))
    if K.mul_basis_coords(xi, xi) != list(eta):
        raise InconsistencyError(f"denested square root of {eta} does not square back")
    return xi


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
    """The ideal of k generated by gens (u, v), by Euclid on the omega column
    of the rows g and g*omega in (1, omega) coordinates; g*omega is taken
    by QuadElement arithmetic."""
    omega = QuadElement.from_omega(k.d, 0, 1)
    work = []
    for g in gens:
        work += [g, (QuadElement.from_omega(k.d, *g) * omega).omega_coords()]
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
    rad_rows = [element_from_coords(K, r).coords for r in m.rows]
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
        gens.append(QuadElement.make(k.d, int(c0 * den), int(c1 * den), den).omega_coords())
    return quad_ideal_euclid(k, gens)


def _unit_rows():
    return [[1 if i == j else 0 for j in range(4)] for i in range(4)]


def ideal_from_elements(K, elements) -> IdealLattice:
    """O_K-module generated by integral elements."""
    rows = []
    for el in elements:
        base = integral_coords(K, el)
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


def _mul_omega_coords(k, u: int, v: int) -> tuple[int, int]:
    # (u + v*omega) * omega
    if k.d % 4 == 1:
        return v * (k.d - 1) // 4, u + v
    return v * k.d, u


def quad_ideal_from_elements(k, gens) -> QuadIdeal:
    """The ideal of k generated by gens (u, v): the Hermite form of the rows
    g and g*omega."""
    rows = []
    for u, v in gens:
        rows.append((u, v))
        rows.append(_mul_omega_coords(k, u, v))
    return _quad_ideal_from_rows(k, rows)


def _quad_ideal_from_rows(k, rows) -> QuadIdeal:
    """The ideal spanned by rows (u, v) = u + v*omega.  The Hermite form of
    the rows (v, u) is [[c, b], [0, a]], the canonical basis (a, b + c*omega)."""
    H = hnf_rows([(v, u) for u, v in rows], 2)
    if len(H) != 2:
        raise InvalidInputError(f"the rows {rows} span a rank-deficient lattice")
    (c, b), (_, a) = H
    return QuadIdeal(k, a, b, c)


def quad_ideal_closed_under_multiplication(a) -> bool:
    """Whether the lattice (a, b + c*omega) of a QuadIdeal is closed under
    multiplication by omega, i.e. an ideal."""
    return all(a.contains(_mul_omega_coords(a.field, *g)) for g in a.basis_elements())


def _quad_elements(a) -> list:
    return [QuadElement.from_omega(a.field.d, *g) for g in a.basis_elements()]


def quad_ideal_multiply(a, b) -> QuadIdeal:
    """The product of two quadratic ideals, generated by the four products
    of their basis elements."""
    return quad_ideal_from_elements(
        a.field, [(x * y).omega_coords() for x in _quad_elements(a) for y in _quad_elements(b)])


def quad_ideal_conjugate(a) -> QuadIdeal:
    return quad_ideal_from_elements(a.field, [x.conj().omega_coords() for x in _quad_elements(a)])


def subset_ideal_chain(k, mask) -> QuadIdeal:
    """The product of the primes above the ramified primes of k selected by
    mask, multiplied in one prime at a time; each prime is the ideal
    generated by p and omega - r_p."""
    ideal = quad_ideal_from_elements(k, [(1, 0)])
    for i, p in enumerate(k.ramified_primes):
        if mask >> i & 1:
            r = minpoly_double_root_scan(k.d, p)
            prime = quad_ideal_from_elements(k, [(p, 0), (-r, 1)])
            assert prime.norm == p
            ideal = quad_ideal_multiply(ideal, prime)
    return ideal


def reduce_vector(orc, vec) -> tuple[int, ...]:
    """The exponent vector vec of an ambiguous-ideal oracle reduced mod e_p."""
    return tuple(v % e for v, e in zip(vec, orc.exponents))


def pack_vector(orc, vec) -> int:
    """The exponent vector vec of an ambiguous-ideal oracle, reduced mod e_p,
    packed as its coset book holds it: mixed radix, first prime most
    significant; orc.unpack is its inverse."""
    x = 0
    for v, e in zip(vec, orc.exponents):
        x = x * e + v % e
    return x


def packed_add(orc, a, b) -> int:
    """The group law of G on an oracle's packed vectors: the low s_K - 1
    bits add by XOR, and the top digit mod e_2."""
    n = len(orc.primes)
    high, low = (orc.exponents[0] - 1) << (n - 1), (1 << (n - 1)) - 1
    return ((a ^ b) & low) | (((a & high) + (b & high)) & high)


def subfield_image(orc, i, mask) -> int:
    """The packed exponent vector of the extension to K of the product of
    the primes of the subfield k_i selected by mask, bit j for its j-th
    ramified prime: the sum of their images (e_p/2)*u_p."""
    x = 0
    for j, p in enumerate(orc.K.subfields[i].ramified_primes):
        if mask >> j & 1:
            x = packed_add(orc, x, orc._prime_images[p])
    return x


def kernel_order_by_triples(orc) -> int:
    """Order of the kernel of the extension map, counted on every triple of
    subfield class representatives whose extended product is principal; the
    kernel size times the number of classes hit must be the triple count."""
    reps = {pack_vector(orc, r) for r in orc.class_representatives()}
    rep_masks = [subfield_class_representatives(sub) for sub in orc._subfield_books]
    kernel = 0
    images = set()
    for masks in itertools.product(*rep_masks):
        x = 0
        for i, m in enumerate(masks):
            x = packed_add(orc, x, subfield_image(orc, i, m))
        rep = orc._book.reduce(x)
        if rep not in reps:
            raise InconsistencyError(f"{x} reduces to {rep}, which represents no class")
        kernel += rep == 0
        images.add(rep)
    if kernel * len(images) != prod(len(masks) for masks in rep_masks):
        raise InconsistencyError("kernel size times image size must equal the triple count")
    return kernel


def cokernel_by_hermite_form(orc) -> int:
    """|G / <im phi, P>| for an ambiguous-ideal oracle whose classes are
    decided: the product of the pivots of the Hermite form of diag(e_p),
    a basis of P and the extended ramified primes of the subfields
    stacked (H. Cohen, GTM 138, 2.4)."""
    n = len(orc.primes)
    rows = [[e * (i == j) for j in range(n)] for i, e in enumerate(orc.exponents)]
    rows += [orc.unpack(v) for v in orc._book.basis()]
    rows += [orc.unpack(orc._prime_images[p]) for k in orc.K.subfields
             for p in k.ramified_primes]
    return prod(r[i] for i, r in enumerate(hnf_rows(rows, n)))


def elementwise_decide(book, subgroup: list[int]) -> None:
    """The earlier CosetBook.decide, called with the sorted span of a basis:
    decide every element of subgroup, in the order listed.  P must lie in
    the subgroup, or InconsistencyError is raised."""
    for x in subgroup:
        book.is_principal(x)
    if not set(subgroup).issuperset(book.basis()):
        raise InconsistencyError("a principal vector lies outside the subgroup left to decide")


class PrincipalCosets:
    """Principality verdicts on a finite abelian group G mapping onto ideal
    classes: the principal subgroup P found so far and the known-nonprincipal
    set N, a union of cosets of P.  Only an element in neither is tested: a
    principal v grows P to <P, v> and N to N + <P, v>, or raises
    InconsistencyError if <P, v> meets N; a nonprincipal v adds v + P to N."""

    def __init__(self, zero, add, test):
        self.add = add
        self.test = test
        self.principal = {zero}
        self.nonprincipal: set = set()

    def is_principal(self, v) -> bool:
        if v in self.principal:
            return True
        if v in self.nonprincipal:
            return False
        if not self.test(v):
            self.nonprincipal.update(self.add(v, p) for p in self.principal)
            return False
        self.add_principal(v)
        return True

    def add_principal(self, v) -> None:
        """Grow P to <P, v> for a v known to be principal, tested or not."""
        if v in self.principal:
            return
        grown = set(self.principal)
        coset = {self.add(v, p) for p in grown}
        while coset.isdisjoint(grown):  # <P, v> is the union of the cosets k*v + P
            grown |= coset
            coset = {self.add(v, x) for x in coset}
        if not grown.isdisjoint(self.nonprincipal):
            raise InconsistencyError(f"{v} is principal, yet <P, v> meets N")
        spread: set = set()
        for n in self.nonprincipal:
            if n not in spread:
                spread.update(self.add(n, g) for g in grown)
        self.principal, self.nonprincipal = grown, spread

    def classes(self, elements: list) -> list:
        """Decide every element of G, listed in order; return the first
        element of each coset of P."""
        for v in elements:
            self.is_principal(v)
        reps, seen = [], set()
        for v in elements:
            if v not in seen:
                seen.update(self.add(v, p) for p in self.principal)
                reps.append(v)
        return reps


def subfield_class_representatives(book) -> list[int]:
    """The least mask of each class of the subfield book, in increasing order."""
    return list(book.representatives())


def genus_vectors(k) -> tuple[list[int], set[int]]:
    """The genus character vector of each ramified prime of k, read off the
    form of its prime ideal, bit j for the j-th odd ramified q; and the
    vectors a principal ideal can have: that of +1, and in a real field
    that of -1, whose symbol at q is taken by Euler's criterion."""
    odd = [q for q in k.ramified_primes if q != 2]
    vectors = [_form_characters(_ideal_form(k, P.a, P.b), odd)
               for P in (prime_above(k, p) for p in k.ramified_primes)]
    minus_one = sum(1 << j for j, q in enumerate(odd) if pow(-1, q >> 1, q) != 1)
    return vectors, {0, minus_one} if k.is_real else {0}


def reference_subfield_classes(k) -> tuple[list[int], set[int]]:
    """The class representatives and the principal masks of Q(sqrt(d)) by
    PrincipalCosets: the book starts with the mask of (sqrt(d)) and decides
    every mask in increasing order, each by its genus characters and then a
    search."""
    vectors, allowed = genus_vectors(k)

    def test(mask):
        chars, primes = 0, []
        for i, (p, v) in enumerate(zip(k.ramified_primes, vectors)):
            if mask >> i & 1:
                chars ^= v
                primes.append(p)
        return chars in allowed \
            and principal_generator_quad(ramified_product(k, primes)) is not None

    book = PrincipalCosets(0, int.__xor__, test)
    book.add_principal(sum(1 << i for i, p in enumerate(k.ramified_primes) if k.d % p == 0))
    return book.classes(range(1 << k.s)), book.principal


def twist_mask_span(K) -> set[int]:
    """The character masks of K.unit_twists without forming a twist: the
    XOR combinations of the masks of -1 and of the three subfield twist
    generators, the first four of K.generator_masks."""
    span = {0}
    for mask in K.generator_masks[:4]:
        span |= {x ^ mask for x in span}
    return span


def reference_classes(orc) -> dict:
    """The ambiguous classes of the field of the oracle orc by
    PrincipalCosets, for an oracle that has made no verdict: its class
    representatives, principal set, kernel and cokernel, and the class
    representatives and principal masks of each subfield.  P starts with the
    extension of every principal subfield product; a vector with even v_2
    whose character bits match no twist mask is nonprincipal, and so is a
    vector with odd v_2 when some gamma_i is missing, as its relative norms
    are r*P_2; every other vector is decided by the oracle's descent."""
    K = orc.K
    subs = [reference_subfield_classes(k) for k in K.subfields]
    twists = twist_mask_span(K)

    def test(x):
        vec = orc.unpack(x)
        if any(2 * v % e for e, v in zip(orc.exponents, vec)):
            if orc._gammas is None:
                return False
        else:
            bits = 0
            for c, e, v in zip(K.generator_masks[4:], orc.exponents, vec):
                if 2 * v // e:
                    bits ^= c
            if bits not in twists:
                return False
        return orc._descend(vec)

    book = PrincipalCosets(0, lambda a, b: packed_add(orc, a, b), test)
    for i, (_, principal) in enumerate(subs):
        for mask in principal:
            book.add_principal(subfield_image(orc, i, mask))
    reps = book.classes(range(prod(orc.exponents)))
    odd = 1 << (len(orc.primes) - 1)
    coker = 2 if orc.exponents[0] == 4 and not any(x & odd for x in book.principal) else 1
    domain = prod((1 << k.s) // len(principal) for k, (_, principal) in zip(K.subfields, subs))
    return {"reps": [orc.unpack(x) for x in reps], "principal": book.principal,
            "kernel": domain * len(book.principal) * coker // prod(orc.exponents),
            "cokernel": coker, "subfields": subs}


def vector_lattice(orc, vec) -> IdealLattice:
    """prod_p rad(p)^v_p as a lattice, multiplied out from prime_radical."""
    lat = rational_ideal(orc.K, 1)
    for p, v in zip(orc.primes, vec):
        if v:
            rad = prime_radical(orc.K, p)
            for _ in range(v):
                lat = lat.multiply(rad)
    return lat


def lattice_generator(lat, budget=None) -> tuple[int, ...] | None:
    """principal_ideal_generator on the lattice lat: relative norms by the
    lattice intersection, their generators by principal_generator_quad, and
    membership by the Hermite form.  1 generates the unit ideal, and a
    nonprincipal relative norm makes lat nonprincipal, with no search past
    it."""
    K = lat.field
    if lat.norm == 1:
        return (1, 0, 0, 0)
    gens = []
    for i in range(3):
        gen = principal_generator_quad(relative_norm_ideal(K, lat, i), budget)
        if gen is None:
            return None  # a principal ideal has principal relative norms
        gens.append(gen)
    return principal_ideal_generator(K, lat.norm, gens, lat.contains, budget)


def twisted_products(K, gens) -> list[tuple[int, ...]]:
    """The earlier candidates of a descent: with twist sets g_i, -g_i,
    g_i*eps_i, -g_i*eps_i (real k_i) or g_i, g_i*zeta_i (imaginary k_i) of
    the generators gens = (g_1, g_2, g_3), pairs (u, v) over (1, omega_i),
    every product t_1*t_2*t_3, with t_3 varying fastest, distinct in the
    order first seen."""
    twist_sets = []
    for i, (k, g) in enumerate(zip(K.subfields, gens)):
        unit = k.twist_generator()
        g = K.from_quad(i, g)
        gu = K.mul_basis_coords(g, K.from_quad(i, unit))
        twist_sets.append([g, [-c for c in g], gu, [-c for c in gu]] if k.is_real
                          else [g, gu])
    pairs = [K.mul_basis_coords(t1, t2) for t1, t2 in itertools.product(*twist_sets[:2])]
    products = (tuple(K.mul_basis_coords(t12, t3))
                for t12, t3 in itertools.product(pairs, twist_sets[2]))
    return list(dict.fromkeys(products))


def unsieved_generator(K, n, gens, contains, budget) -> tuple[int, ...] | None:
    """principal_ideal_generator without the quadratic-character sieve:
    every candidate g*u / n is formed and settled by the exact square root,
    in the order of K.unit_twists, one budget unit each."""
    g = (1, 0, 0, 0)
    for i, gi in enumerate(gens):
        if abs(omega_norm(K.subfields[i].d, *gi)) != n:
            raise InconsistencyError(f"relative norm generator {gi} has the wrong norm")
        g = K.mul_basis_coords(g, K.from_quad(i, gi))
    for u, _ in K.unit_twists:
        budget.charge()
        s = K.mul_basis_coords(g, u)
        if any(c % n for c in s):
            raise InconsistencyError(f"{s} is not in {n}*O_K")
        xi = integral_square_root(K, [c // n for c in s])
        if xi is not None and abs(K.norm(xi)) == n and contains(xi):
            return xi
    return None


def _conj_sign_character(lam: tuple[int, int, int], a: tuple[int, int, int], t: int) -> int:
    """Sign of sigma_t(eps_1^a1 eps_2^a2 eps_3^a3) for a real field."""
    s = 1
    for i in range(3):
        if a[i] and i != t - 1:
            s *= lam[i]
    return s


def torsion_order(k) -> int:
    """The number of roots of unity of the quadratic field k."""
    return {-1: 4, -3: 6}.get(k.d, 2)


def _torsion_generator(K: BiquadField) -> tuple[list[int], int]:
    """Generator of the subgroup of roots of unity generated by the
    subfield torsion units, with its order."""
    gens = []
    for i, k in enumerate(K.subfields):
        if torsion_order(k) > 2:
            gens.append((K.from_quad(i, k.twist_generator()), torsion_order(k)))
    if not gens:
        return [-1, 0, 0, 0], 2
    if len(gens) == 1:
        return gens[0]
    # i and zeta_6 together generate a cyclic group of order 12, with
    # generator i * conj(zeta_6) = zeta_12; complex conjugation is the Galois
    # element fixing the real subfield
    (g4, o4), (g6, o6) = sorted(gens, key=lambda t: t[1])
    if (o4, o6) != (4, 6):
        raise InconsistencyError(f"subfield roots of unity of orders {o4}, {o6} in {K.d}")
    # the real subfield sorts last, so that element is sigma_3
    z12 = K.mul_basis_coords(g4, K.sigma(g6, 3))
    z2 = K.mul_basis_coords(z12, z12)
    z6 = K.mul_basis_coords(z2, K.mul_basis_coords(z2, z2))
    if z6 != [-1, 0, 0, 0] or z2 == [-1, 0, 0, 0]:
        raise InconsistencyError(f"{z12} fails z**6 = -1 and z**2 != -1")
    return z12, 12


def denesting_unit_structure(K: BiquadField) -> UnitStructure:
    lam = tuple(k.lam if k.is_real else 0 for k in K.subfields)
    nu_k = sum(k.nu for k in K.subfields)
    roots: dict = {}

    if K.is_real:
        eps = [K.from_quad(i, K.subfields[i].fundamental_unit) for i in range(3)]
        for mask in range(1, 8):
            a = (mask & 1, (mask >> 1) & 1, (mask >> 2) & 1)
            if any(_conj_sign_character(lam, a, t) < 0 for t in (1, 2, 3)):
                continue
            eta = [1, 0, 0, 0]
            for i in range(3):
                if a[i]:
                    eta = K.mul_basis_coords(eta, eps[i])
            xi = integral_square_root(K, eta)
            if xi is not None:
                roots[a] = xi
        mu_order = 2
        q_range = (1, 2, 4)
    else:
        zeta, zorder = _torsion_generator(K)
        eps_r = K.from_quad(2, K.subfields[2].fundamental_unit)  # the real subfield
        candidates = {(1, 0): zeta, (0, 1): eps_r, (1, 1): K.mul_basis_coords(zeta, eps_r)}
        for key, eta in candidates.items():
            xi = integral_square_root(K, eta)
            if xi is not None:
                roots[key] = xi
        # a root of the subfield torsion generator doubles the roots of unity
        mu_order = 2 * zorder if (1, 0) in roots else zorder
        q_range = (1, 2)

    q = len(roots) + 1
    if q not in q_range:
        raise InconsistencyError(f"unit index {q} outside {q_range} for {K.d}")
    us = UnitStructure(
        q_k=q,
        mu_order=mu_order,
        lam=lam,
        nu_k=nu_k,
        square_class_roots=roots,
    )
    if K.is_real:
        # the radical index of each class read, from its relative-norm signs
        # chi_t(a) = [j not in (0, t)]: j = 2*chi_1(a) + chi_2(a)
        us.radical_index = {a: 2 * c1 + c2 for a, (c1, c2) in
                            relative_norm_characters(K, us).items() if a in roots}
    return us


def _relative_norm(K: BiquadField, x, t: int) -> list[int]:
    """N_{K/k_t}(x) = x * sigma_t(x)."""
    return K.mul_basis_coords(x, K.sigma(x, t))


def relative_norm_cocycle_data(K: BiquadField, us: UnitStructure) -> tuple[int, ...]:
    """The earlier (w, k1, k2, c1, c2) of an imaginary field, formed in K:
    zeta and its w powers, s_1(zeta), s_2(zeta) and the three relative norms
    of eta, each read off as a power of zeta."""
    _, c, n, rho = units._torsion_generator(K)
    zeta = units._torsion_elements(K, c, n, rho)[1]
    eta = K.from_quad(2, K.subfields[2].fundamental_unit)  # the real subfield
    for key, xi in us.square_class_roots.items():
        if key == (1, 0):
            zeta = xi
        else:
            eta = xi
    w = us.mu_order
    powers = [[1, 0, 0, 0]]
    for _ in range(w):
        powers.append(K.mul_basis_coords(powers[-1], zeta))
    log = {tuple(p): e for e, p in enumerate(powers[:w])}
    if len(log) != w or powers[w] != powers[0]:
        raise InconsistencyError(f"the torsion generator does not generate the {w} roots "
                                 f"of unity of {K.d}")
    k1, k2, c1, c2 = (log.get(tuple(x)) for x in (
        K.sigma(zeta, 1), K.sigma(zeta, 2),
        _relative_norm(K, eta, 1), _relative_norm(K, eta, 2)))
    if None in (k1, k2, c1, c2) or K.mul_basis_coords(
            _relative_norm(K, eta, 3), powers[(c1 + c2) % w]) != K.mul_basis_coords(eta, eta):
        raise InconsistencyError(f"the relative norms of the unit with {bit_lengths(eta)}-bit "
                                 f"coordinates disagree with N(eta) = 1 in {K.d}")
    return w, k1, k2, c1, c2


def cocycle_count(w: int, k1: int, k2: int, c1: int = 0, c2: int = 0) -> int:
    """Number of (x, y) mod w with zeta^x * h, zeta^y * h a cocycle on (s1, s2),
    where s_t(zeta) = zeta^k_t and N_{K/k_t}(h) = zeta^c_t (h = 1 for c = 0)."""
    return sum(1 for x in range(w) for y in range(w)
               if (x * (1 + k1) + c1) % w == (y * (1 + k2) + c2) % w
               == (x + k1 * y + c1 - y - k2 * x - c2) % w == 0)


def h1_roots_of_unity(w: int, k1: int, k2: int) -> int:
    """|H^1(G, mu)| for mu cyclic of order w, s_t acting by zeta -> zeta^k_t."""
    coboundaries = {((k1 - 1) * m % w, (k2 - 1) * m % w) for m in range(w)}
    return cocycle_count(w, k1, k2) // len(coboundaries)


def relative_norm_h1_order(K: BiquadField, us: UnitStructure) -> int:
    """|H^1(G, O_K^x)|, counted afresh from the data formed in K: for a real
    field over the characters of relative_norm_characters, for an imaginary
    one from relative_norm_cocycle_data."""
    if K.is_real:
        return _real_h1_from_characters(K, us, relative_norm_characters(K, us))
    w, k1, k2, c1, c2 = relative_norm_cocycle_data(K, us)
    lifts = cocycle_count(w, k1, k2, c1, c2) > 0
    return h1_roots_of_unity(w, k1, k2) * (2 if lifts else 1)


def _real_h1_from_characters(K: BiquadField, us: UnitStructure, chi: dict) -> int:
    """The earlier uncached count of a real field's |H^1(G, O_K^x)| over the
    character table chi."""
    found = {(0, 0, 0), *us.square_class_roots}

    def char(t: int, v) -> int:
        """chi_t (t = 1, 2) on the half-exponent vector v in L."""
        a = tuple(c & 1 for c in v)
        return (chi[a][t - 1] + sum((c - r) // 2 for i, (c, r) in enumerate(zip(v, a))
                                    if i != t - 1 and us.lam[i] == -1)) & 1

    def delta(x2: int, y1: int, c: int) -> int:
        x, y = (0, x2, c), (y1, 0, c)
        return char(1, x) | char(2, y) << 1 | (char(1, y) ^ char(2, x)) << 2

    cocycles_mod_2 = [z for z in itertools.product((0, 1), repeat=3)
                      if (0, z[0], z[2]) in found and (z[1], 0, z[2]) in found]
    image = {0}
    for z in [(2, 0, 0), (0, 2, 0), (0, 0, 2), *cocycles_mod_2]:
        d = delta(*z)
        if d not in image:
            image |= {d ^ s for s in image}
    # |H^1(mu_K)| * [Z : B] / |delta(Z)| = 4 * |V| * 8 / q / |delta(Z)|
    num, den = 32 * len(cocycles_mod_2), us.q_k * len(image)
    if num % den:
        raise InconsistencyError(f"|H^1(G, O_K^x)| = {num}/{den} for {K.d}")
    return num // den


def dict_ramification_profile(K: BiquadField) -> SimpleNamespace:
    """The ramification of K, read off the subfields each prime ramifies
    in: the ramified primes in increasing order as primes, their
    ramification indices as exponents, s_K, i2, e2 (1 when 2 is
    unramified) and product_e = 2^(s_K + i2).  An odd ramified p ramifies in exactly two
    subfields and is unramified in the third, so e_p = 2.  2 ramifies in
    two or in all three; in all three it is totally ramified, e_2 = 4 and
    i2 = 1.  So the exponents are 4 for a totally ramified 2, else 2, and
    their product is 2^(s_K + i2).  InconsistencyError is raised for an
    odd prime in all three subfields, a prime in one, a prime that
    divides the third subfield's discriminant, or
    s1 + s2 + s3 != 2*s_K + i2."""
    where: dict[int, list[int]] = {}  # the subfields each prime ramifies in
    for i, k in enumerate(K.subfields):
        for p in k.ramified_primes:
            where.setdefault(p, []).append(i)
    for p, ks in where.items():
        if len(ks) == 3 and p != 2:
            raise InconsistencyError(f"odd {p} ramifies in every subfield of {K.d}")
        if len(ks) == 1:
            raise InconsistencyError(f"prime {p} ramifies in 1 subfield of {K.d}")
        if len(ks) == 2 and K.subfields[3 - sum(ks)].delta % p == 0:
            raise InconsistencyError(
                f"{p} divides the discriminant of the third subfield of {K.d}")
    primes = sorted(where)
    s_k, i2 = len(primes), int(len(where.get(2, ())) == 3)
    if sum(k.s for k in K.subfields) != 2 * s_k + i2:
        raise InconsistencyError(f"s1+s2+s3 != 2*s_K + i2 for {K.d}")
    # 2 sorts first, so a totally ramified 2 leads the exponents
    return SimpleNamespace(primes=primes, exponents=[4] * i2 + [2] * (s_k - i2), s_k=s_k,
                           i2=i2, e2=4 if i2 else 2 if 2 in where else 1,
                           product_e=2 ** (s_k + i2))


def relative_norm_characters(K: BiquadField, us: UnitStructure) -> dict:
    """The earlier character table of a real field: chi[a] = (chi_1(a),
    chi_2(a)), 1 meaning -1, on every square class a, each the sign of
    N_{K/k_t}(xi_a) = xi_a * s_t(xi_a) formed in K, which must be
    +-eps_t^a_t, and the three signs checked against N(xi_a)."""
    one = [1, 0, 0, 0]
    eps = [K.from_quad(i, k.fundamental_unit) for i, k in enumerate(K.subfields)]
    # chi[a] = (chi_1(a), chi_2(a)) on the square classes a, 1 meaning -1
    chi = {(0, 0, 0): (0, 0)}
    for a, xi in us.square_class_roots.items():
        signs = []
        for t in (1, 2, 3):
            n, target = _relative_norm(K, xi, t), eps[t - 1] if a[t - 1] else one
            if n != target and n != [-c for c in target]:
                raise InconsistencyError(
                    f"N_(K/k_{t}) of the root {xi} is not +-eps_{t}^{a[t - 1]} in {K.d}")
            signs.append(int(n != target))
        if sum(signs) % 2 != sum(a[i] for i in range(3) if us.lam[i] == -1) % 2:
            raise InconsistencyError(
                f"the relative norm signs {signs} of {xi} disagree with N(xi) in {K.d}")
        chi[a] = signs[0], signs[1]
    return chi


def loop_mul(consts, x, y) -> list[int]:
    """Product of two integer coordinate vectors under the structure constants consts."""
    out = [0, 0, 0, 0]
    for i in range(4):
        xi = x[i]
        if not xi:
            continue
        ci = consts[i]
        for j in range(4):
            yj = y[j]
            if not yj:
                continue
            c = ci[j]
            p = xi * yj
            out[0] += p * c[0]
            out[1] += p * c[1]
            out[2] += p * c[2]
            out[3] += p * c[3]
    return out


# the odd primes below 300, in order, each with a root of each nonzero
# square mod l
_SCANNED_SQUARE_ROOTS = tuple(
    (l, {x * x % l: x for x in range(1, l // 2 + 1)})
    for l in range(3, 300, 2) if all(l % q for q in range(3, isqrt(l) + 1, 2)))


def scanned_residue_maps(K) -> tuple[tuple[int, int, tuple[int, int, int]], ...]:
    """K.residue_maps by a scan of the primes below 300 for each field, all
    that split, then of the primes l = 3 mod 4 past 300 until there are
    max(8, s_K + 4) maps, s_K the number of primes that ramify in some
    subfield: the t-th odd prime has bit t, and the j-th map past 300 bit
    61 + j."""
    d, m12 = K.d, K.cofactors[2]
    target = max(8, len({p for k in K.subfields for p in k.ramified_primes}) + 4)
    roots = []  # (l, bit, s1, s2)
    for t, (l, table) in enumerate(_SCANNED_SQUARE_ROOTS):
        r1, r2 = table.get(d[0] % l), table.get(d[1] % l)
        if r1 and r2:  # else l divides d_i, or d_i is a non-residue
            roots.append((l, 1 << t, r1, r2))
    far = 0
    for l in range(303, _ROOT_CAP, 4):
        if len(roots) >= target:
            break
        if all(l % q for q in range(3, isqrt(l) + 1, 2)):
            r1, r2 = _root_mod(d[0], l), _root_mod(d[1], l)
            if r1 and r2:
                roots.append((l, 1 << len(_SCANNED_SQUARE_ROOTS) + far, r1, r2))
                far += 1
    maps = []
    for l, bit, r1, r2 in roots:
        s = (r1, r2, r1 * r2 * pow(m12, -1, l) % l)
        if any((x * x - di) % l for x, di in zip(s, d)):
            raise InconsistencyError(f"the roots {s} of {d} mod {l} do not square back")
        # the image of omega_i = (1 + sqrt(d_i))/2 when d_i = 1 mod 4,
        # else of sqrt(d_i)
        maps.append((l, bit, tuple((1 + x) * (l + 1) // 2 % l if di % 4 == 1 else x
                                   for x, di in zip(s, d))))
    return tuple(maps)


def euler_character_mask(K, factors, scale: int = 1) -> tuple[int, int]:
    """K.character_masks of one item with every Legendre symbol by Euler's criterion,
    each map of K.residue_maps setting its own bit."""
    nonresidue = zero = 0
    for l, bit, omegas in K.residue_maps:
        x = scale
        for i, (u, v) in factors:
            x = x * (u + v * omegas[i]) % l
        if not x:
            zero |= bit
        elif pow(x, l >> 1, l) != 1:
            nonresidue |= bit
    return nonresidue, zero


def generator_items(K) -> list:
    """The items (factors, scale) of -1, of the twist generators of k_1,
    k_2, k_3 and of each ramified prime of K, in the order of
    K.generator_masks."""
    return ([((), -1)] + [([(i, k.twist_generator())], 1) for i, k in enumerate(K.subfields)]
            + [((), p) for p in K.profile.primes])


def mapped_generator_masks(K) -> tuple[int, ...]:
    """K.generator_masks by character_masks over every map of
    K.residue_maps, each Legendre symbol taken per field under the map's
    own roots; raises InconsistencyError when a map sends a ramified prime
    to 0."""
    masks = K.character_masks(generator_items(K))
    if any(zero for _, zero in masks[4:]):
        raise InconsistencyError(f"a residue map of {K.d} sends a ramified prime to 0")
    return tuple(bits for bits, _ in masks)


# the memo tables of units, one per memoised |H^1| count
H1_MEMOS = (units._real_h1_fraction, units._cocycle_count, units._h1_roots_of_unity)


def clear_subfield_caches() -> None:
    """Empty the per-process table of quadratic fields and the memo tables
    of the |H^1| counts.  A BiquadField built before the clear keeps its
    subfields, their units and k.searched, so a test that wants a cold field
    builds it after the clear."""
    from polyabiquad import quadratic
    quadratic._FIELDS.clear()
    for memo in H1_MEMOS:
        memo.cache_clear()


def kronecker(a: int, n: int) -> int:
    """Kronecker symbol (a|n), fully multiplicative in n, with the standard
    conventions (a|2) = 0, +-1 by a mod 8 and (a|-1) = sign of a."""
    if a == 0 and n == 0:
        raise InvalidInputError("kronecker(0, 0) is undefined")
    if n == 0:
        return 1 if a in (1, -1) else 0
    result = 1
    if n < 0:
        n = -n
        if a < 0:
            result = -result
    while n % 2 == 0:
        n //= 2
        if a % 2 == 0:
            return 0
        if a % 8 in (3, 5):
            result = -result
    # n is now odd and positive: the Jacobi symbol by reciprocity.
    a %= n
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def parse_records(text: str, fmt: str, cls=OutputRecord) -> list:
    """Inverse of report.render_records; returns a list of cls instances."""
    def build(mapping):
        return cls(*(int(mapping[name]) for name in cls._fields[:-1]),
                   str(mapping["verify_status"]))

    lines = [ln for ln in text.splitlines() if ln.strip()]
    if fmt == "json":
        return [build(json.loads(ln)) for ln in lines]
    header = lines[0].split(",") if fmt == "csv" else lines[0].split()
    out = []
    for ln in lines[1:]:
        cells = ln.split(",") if fmt == "csv" else ln.split()
        assert len(cells) == len(header), "malformed row"
        out.append(build(dict(zip(header, cells))))
    return out


def render_json_by_dumps(records) -> str:
    """The JSON rows of report._render before its %-template, with the same
    json.dumps call per row; the caller lifts the int -> str limit."""
    cols = type(records[0])._fields
    lines = [json.dumps(dict(zip(cols, r)), separators=(", ", ": "))
             for r in records]
    return "\n".join(lines) + "\n"


def mu_order_table(K) -> int:
    """|mu_K| read off the d_i: Q(zeta_8) = Q(sqrt-1, sqrt2), Q(zeta_12) =
    Q(sqrt-1, sqrt-3), then 4 with sqrt(-1), 6 with sqrt(-3), else 2."""
    ds = set(K.d)
    if ds == {-1, 2, -2}:
        return 8
    if ds == {-1, 3, -3}:
        return 12
    if -1 in ds:
        return 4
    if -3 in ds:
        return 6
    return 2


def minpoly_double_root_scan(d: int, p: int) -> int:
    """The least r in range(p) that is a root mod p of the minimal
    polynomial of omega in Q(sqrt(d))."""
    for r in range(p):
        val = r * r - r - (d - 1) // 4 if d % 4 == 1 else r * r - d
        if val % p == 0:
            return r
    raise InconsistencyError(f"x^2 - d has no root mod {p} in Q(sqrt({d}))")


def floor_surd(P: int, Q: int, s: int) -> int:
    """floor((P + sqrt(D)) / Q) for nonsquare D with s = isqrt(D)."""
    if Q > 0:
        return (P + s) // Q
    return -((P + s) // (-Q)) - 1


def two_pass_fundamental_unit(k) -> tuple[int, int]:
    """Fundamental unit (u, v), u + v*omega, via the continued fraction of
    (D mod 2 + sqrt(D))/2, D = Delta.  When the surd state (P, Q) first
    repeats, the product M of the digit matrices over the periodic block
    fixes the surd x, and M10*x + M11 is the smallest unit > 1 of the order
    of discriminant D.
    """
    D = k.delta
    s = isqrt(D)
    if s * s == D:
        raise InconsistencyError(f"the discriminant {D} of Q(sqrt({k.d})) is a square")
    P, Q = D & 1, 2
    seen: dict[tuple[int, int], int] = {}
    digits: list[int] = []
    while (P, Q) not in seen:
        seen[(P, Q)] = len(digits)
        a = floor_surd(P, Q, s)
        digits.append(a)
        P = a * Q - P
        Q, r = divmod(D - P * P, Q)
        if r or not Q or len(digits) >= 100_000:
            raise InconsistencyError(f"the continued fraction of Q(sqrt({k.d})) broke down")
    m00, m01, m10, m11 = 1, 0, 0, 1
    for a in digits[seen[(P, Q)]:]:
        m00, m01, m10, m11 = m00 * a + m01, m00, m10 * a + m11, m10
    # unit = m10 * (P + sqrt(D))/Q + m11, with sqrt(D) = 2*omega - D mod 2
    u, ru = divmod(m10 * (P - (D & 1)) + m11 * Q, Q)
    v, rv = divmod(2 * m10, Q)
    x, y, _ = radical_coords(k.d, u, v)
    if ru or rv or abs(omega_norm(k.d, u, v)) != 1 or x <= 0 or y <= 0:
        raise InconsistencyError(
            f"{u} + {v}*omega is not a unit > 1 of Q(sqrt({k.d}))")
    return u, v


def _add_format_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--json", action="store_true", help="newline-delimited JSON")
    p.add_argument("--csv", action="store_true", help="CSV with a header row")
    p.add_argument("--text", action="store_true", help="fixed-width table (default)")


def _resolve_format(args) -> str:
    chosen = [f for f in ("json", "csv", "text") if getattr(args, f)]
    if len(chosen) > 1:
        raise InvalidInputError("choose at most one output format")
    return chosen[0] if chosen else "text"


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1 through main: exit 2 means a mismatch."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise InvalidInputError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parse_args keeps no
    state between calls, and building the tree costs more than a formula
    request."""
    from polyabiquad.cli import _cmd_biquad, _cmd_quad, _cmd_scan
    parser = _Parser(
        prog="polyabiquad",
        description="Orders of Polya groups (strongly ambiguous ideal classes) "
                    "of quadratic and bicyclic biquadratic number fields, with "
                    "an independent brute-force verifier.")
    sub = parser.add_subparsers(dest="command", required=True)

    q = sub.add_parser("quad", help="one quadratic field Q(sqrt(d))")
    q.add_argument("d", type=int)
    q.add_argument("--verify", action="store_true",
                   help="check the formula against direct class enumeration")
    q.add_argument("--budget", type=int, default=None)
    _add_format_flags(q)
    q.set_defaults(func=_cmd_quad)

    b = sub.add_parser("biquad", help="one biquadratic field Q(sqrt(d1),sqrt(d2))")
    b.add_argument("d1", type=int)
    b.add_argument("d2", type=int)
    b.add_argument("--verify", action="store_true",
                   help="run the ambiguous-ideal oracle against the formulas")
    b.add_argument("--chain", action="store_true",
                   help="also spell out the subgroup chain indices")
    b.add_argument("--budget", type=int, default=None)
    _add_format_flags(b)
    b.set_defaults(func=_cmd_biquad)

    s = sub.add_parser("scan", help="all fields with |d1|,|d2| <= bound")
    s.add_argument("--bound", type=int, required=True)
    s.add_argument("--real-only", action="store_true")
    s.add_argument("--imag-only", action="store_true")
    s.add_argument("--verify", action="store_true")
    s.add_argument("--out", type=str, default=None)
    s.add_argument("--jobs", type=int, default=1)
    s.add_argument("--budget", type=int, default=None)
    _add_format_flags(s)
    s.set_defaults(func=_cmd_scan)
    return parser


def reference_parse(argv) -> dict:
    """argv read by build_parser, as the attributes cli.parse_args sets:
    the format flags resolved to format, the subcommand name dropped.
    Raises InvalidInputError where the earlier front end exited 1."""
    args = vars(build_parser().parse_args(argv))
    args["format"] = _resolve_format(argparse.Namespace(**args))
    for name in ("command", "json", "csv", "text"):
        del args[name]
    return args
