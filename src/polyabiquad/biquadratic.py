"""Bicyclic biquadratic fields K = Q(sqrt(d1), sqrt(d2)).

A field is keyed by the canonical ascending triple (d1, d2, d3) of squarefree
integers, d3 the squarefree part of d1*d2, so any generating pair of the same
field produces the same object.  Elements carry exact rational coordinates
over the Q-basis (1, sqrt(d1), sqrt(d2), sqrt(d3)) with the principal-branch
sign convention sqrt(a)*sqrt(b) = -sqrt(ab) exactly when a, b < 0.

The integral basis is grown from the order Z[1, sqrt(d1), sqrt(d2), sqrt(d3)]
by repeated index-2 saturation: any proper suborder admits a half-sum of
basis vectors with integral characteristic polynomial, and the process stops
exactly when the lattice discriminant equals the product of the three
quadratic discriminants (the conductor-discriminant certificate).  The
resulting basis starts with 1 and all integral coordinates lie in (1/4)Z.

Galois action: sigma_i fixes sqrt(d_i) and negates the other two radicals;
sigma_i o sigma_j = sigma_l.  The ramification profile of a rational prime
follows from which quadratic subfields it ramifies in: a ramified prime
ramifies in exactly two of them, except 2 which may ramify in all three
(then e_2 = 4); the residue degree is read off the splitting of p in the
inertia-complement subfield.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from .errors import DomainError, InconsistencyError, InvalidInputError
from .intmath import kronecker, squarefree_part
from .linalg import (hnf_rows, hnf_solve, mat_det_fraction, mat_inverse_fraction,
                     mat_mul_int, unimodular_with_first_row)
from .quadratic import QuadElement, QuadraticField

_F0 = Fraction(0)


class BiquadElement:
    """Element of a biquadratic field in exact radical coordinates."""

    __slots__ = ("field", "coords")

    def __init__(self, field: "BiquadField", coords):
        self.field = field
        self.coords = tuple(Fraction(c) for c in coords)
        assert len(self.coords) == 4

    def __eq__(self, other):
        return (isinstance(other, BiquadElement)
                and self.field.d == other.field.d and self.coords == other.coords)

    def __hash__(self):
        return hash((self.field.d, self.coords))

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coords[1:])

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
        a, b = self.coords, other.coords
        out = [_F0, _F0, _F0, _F0]
        for i in range(4):
            ai = a[i]
            if not ai:
                continue
            for j in range(4):
                bj = b[j]
                if not bj:
                    continue
                p = ai * bj
                if i == 0:
                    out[j] += p
                elif j == 0:
                    out[i] += p
                elif i == j:
                    out[0] += p * K.d[i - 1]
                else:
                    l, coef = K.mul_table[(i, j)]
                    out[l] += p * coef
        return BiquadElement(K, out)

    def scale(self, q) -> "BiquadElement":
        q = Fraction(q)
        return BiquadElement(self.field, [c * q for c in self.coords])

    def __pow__(self, n: int) -> "BiquadElement":
        assert n >= 0
        result, base = self.field.one(), self
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
        signs = [1] + [1 if i == t else -1 for i in (1, 2, 3)]
        return BiquadElement(self.field,
                             [c * s for c, s in zip(self.coords, signs)])

    def trace(self) -> Fraction:
        return 4 * self.coords[0]

    def norm(self) -> Fraction:
        p = self * self.sigma(1)
        n = p * p.sigma(2)
        assert all(c == 0 for c in n.coords[1:]), "norm must be rational"
        return n.coords[0]

    def char_poly(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        """(s1, s2, s3, s4) with char = x^4 - s1 x^3 + s2 x^2 - s3 x + s4."""
        p1 = self * self.sigma(1)
        p2 = self * self.sigma(2)
        p3 = self * self.sigma(3)
        s1 = self.trace()
        s2 = 2 * (p1.coords[0] + p2.coords[0] + p3.coords[0])
        m = p1 * self.sigma(2)
        s3 = m.trace()
        n = p1 * p1.sigma(2)
        assert all(c == 0 for c in n.coords[1:])
        return s1, s2, s3, n.coords[0]

    def has_integral_char_poly(self) -> bool:
        return all(s.denominator == 1 for s in self.char_poly())

    def to_quad(self, i: int) -> QuadElement:
        """The element as a member of the i-th quadratic subfield (0-based)."""
        K = self.field
        others = [j for j in (1, 2, 3) if j != i + 1]
        if self.coords[others[0]] or self.coords[others[1]]:
            raise DomainError("element does not lie in that quadratic subfield")
        c0, c1 = self.coords[0], self.coords[i + 1]
        den = _lcm_int(c0.denominator, c1.denominator)
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


def _lcm_int(a, b):
    from math import gcd
    return a * b // gcd(a, b)


@dataclass(frozen=True)
class RamificationProfile:
    """Per-prime (e, f, g) data with the global invariants."""

    efg: dict
    s_k: int
    i2: int
    e2: int
    product_e: int

    @property
    def primes(self) -> list[int]:
        return sorted(self.efg)


class BiquadField:
    """Immutable biquadratic field data: subfields, integral basis,
    multiplication structure, Galois action, ramification profile."""

    def __init__(self, d1_raw: int, d2_raw: int):
        if d1_raw == 0 or d2_raw == 0:
            raise InvalidInputError("field generators must be nonzero")
        a, b = squarefree_part(d1_raw), squarefree_part(d2_raw)
        if a == 1 or b == 1:
            raise InvalidInputError("a perfect-square generator degenerates to Q")
        if a == b:
            raise InvalidInputError("generators span the same quadratic field")
        c = squarefree_part(a * b)
        self.d: tuple[int, int, int] = tuple(sorted((a, b, c)))
        self.subfields = tuple(QuadraticField(x) for x in self.d)
        self.is_real = all(x > 0 for x in self.d)
        self.mul_table = self._build_mul_table()
        if self.is_real:
            self.real_radical_index = None
        else:
            reals = [i + 1 for i in range(3) if self.d[i] > 0]
            assert len(reals) == 1
            self.real_radical_index = reals[0]
        self.disc = 1
        for k in self.subfields:
            self.disc *= k.delta
        self.basis = self._integral_basis()
        self.basis_matrix = [list(e.coords) for e in self.basis]
        self.inv_basis_matrix = mat_inverse_fraction(self.basis_matrix)
        self.structure_constants = self._structure_constants()
        self.sigma_matrices = self._sigma_matrices()
        self.profile = self._ramification_profile()
        self._units = None
        self._oracle = None

    # -- construction helpers ----------------------------------------------

    def _build_mul_table(self):
        table = {}
        for i in range(1, 4):
            for j in range(1, 4):
                if i == j:
                    continue
                l = 6 - i - j
                di, dj, dl = self.d[i - 1], self.d[j - 1], self.d[l - 1]
                assert di * dj % dl == 0
                f2 = di * dj // dl
                f = isqrt(f2)
                assert f * f == f2, "triple is not multiplicatively closed"
                sign = -1 if (di < 0 and dj < 0) else 1
                table[(i, j)] = (l, sign * f)
        return table

    def one(self) -> BiquadElement:
        return BiquadElement(self, (1, 0, 0, 0))

    def zero(self) -> BiquadElement:
        return BiquadElement(self, (0, 0, 0, 0))

    def rational(self, q) -> BiquadElement:
        return BiquadElement(self, (Fraction(q), 0, 0, 0))

    def radical(self, i: int) -> BiquadElement:
        """sqrt(d_i) as an element, i in 1..3."""
        coords = [0, 0, 0, 0]
        coords[i] = 1
        return BiquadElement(self, coords)

    def from_quad(self, i: int, el: QuadElement) -> BiquadElement:
        """Embed an element of the i-th quadratic subfield (0-based)."""
        assert el.d == self.d[i]
        coords = [Fraction(el.x, el.den), 0, 0, 0]
        coords[i + 1] = Fraction(el.y, el.den)
        return BiquadElement(self, coords)

    def _gram_disc(self, basis: list[BiquadElement]) -> Fraction:
        gram = [[(x * y).trace() for y in basis] for x in basis]
        return mat_det_fraction(gram)

    def _integral_basis(self) -> tuple[BiquadElement, ...]:
        basis = [self.one(), self.radical(1), self.radical(2), self.radical(3)]
        half = Fraction(1, 2)
        for _round in range(12):
            disc = self._gram_disc(basis)
            assert disc.denominator == 1
            if disc == self.disc:
                break
            ratio = Fraction(int(disc), self.disc)
            assert ratio.denominator == 1 and ratio >= 4, "basis overshot the maximal order"
            grown = False
            for mask in range(1, 16):
                v = self.zero()
                for i in range(4):
                    if mask >> i & 1:
                        v = v + basis[i]
                v = v.scale(half)
                if v.has_integral_char_poly():
                    basis = self._extend_lattice(basis, v)
                    grown = True
                    break
            if not grown:
                raise InconsistencyError(
                    f"no index-2 saturation step found for {self.d}, disc {disc}")
        else:
            raise InconsistencyError(f"integral basis search did not terminate for {self.d}")
        rows = [self._scaled_coords(e) for e in basis]
        H = hnf_rows(rows, 4)
        x = hnf_solve(H, [4, 0, 0, 0])
        assert x is not None, "1 must lie in the maximal order"
        rows = mat_mul_int(unimodular_with_first_row(x), H)
        assert rows[0] == [4, 0, 0, 0]
        out = tuple(BiquadElement(self, [Fraction(v, 4) for v in row]) for row in rows)
        assert out[0] == self.one()
        return out

    @staticmethod
    def _scaled_coords(e: BiquadElement) -> list[int]:
        out = []
        for c in e.coords:
            v = c * 4
            assert v.denominator == 1, "integral coordinates must lie in (1/4)Z"
            out.append(int(v))
        return out

    def _extend_lattice(self, basis, v) -> list[BiquadElement]:
        rows = [self._scaled_coords(e) for e in basis] + [self._scaled_coords(v)]
        H = hnf_rows(rows, 4)
        assert len(H) == 4
        return [BiquadElement(self, [Fraction(x, 4) for x in row]) for row in H]

    def to_basis_coords(self, el: BiquadElement) -> tuple[Fraction, ...]:
        inv = self.inv_basis_matrix
        return tuple(
            sum(el.coords[k] * inv[k][j] for k in range(4)) for j in range(4))

    def element_from_basis_coords(self, row) -> BiquadElement:
        acc = self.zero()
        for x, e in zip(row, self.basis):
            if x:
                acc = acc + e.scale(x)
        return acc

    def is_integral(self, el: BiquadElement) -> bool:
        return all(c.denominator == 1 for c in self.to_basis_coords(el))

    def _structure_constants(self):
        consts = []
        for bi in self.basis:
            row = []
            for bj in self.basis:
                coords = self.to_basis_coords(bi * bj)
                assert all(c.denominator == 1 for c in coords), \
                    "products of basis elements must be integral"
                row.append(tuple(int(c) for c in coords))
            consts.append(row)
        return consts

    def _sigma_matrices(self):
        mats = []
        for t in range(4):
            rows = []
            for e in self.basis:
                coords = self.to_basis_coords(e.sigma(t))
                assert all(c.denominator == 1 for c in coords)
                rows.append([int(c) for c in coords])
            mats.append(rows)
        return mats

    def mul_basis_coords(self, x, y) -> list[int]:
        """Product of two integer coordinate vectors over the integral basis."""
        out = [0, 0, 0, 0]
        consts = self.structure_constants
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

    def _ramification_profile(self) -> RamificationProfile:
        deltas = [k.delta for k in self.subfields]
        primes = sorted({p for k in self.subfields for p in k.ramified_primes})
        efg = {}
        for p in primes:
            where = [i for i in range(3) if p in self.subfields[i].ramified_primes]
            if len(where) == 3:
                assert p == 2
                efg[p] = (4, 1, 1)
            else:
                assert len(where) == 2, f"prime {p} ramifies in {len(where)} subfields"
                j = ({0, 1, 2} - set(where)).pop()
                sym = kronecker(deltas[j], p)
                assert sym != 0
                f = 1 if sym == 1 else 2
                efg[p] = (2, f, 2 // f)
        s_k = len(primes)
        i2 = 1 if efg.get(2, (0, 0, 0))[0] == 4 else 0
        e2 = efg.get(2, (1, 1, 1))[0]
        product_e = 1
        for p in primes:
            product_e *= efg[p][0]
        if sum(k.s for k in self.subfields) != 2 * s_k + i2:
            raise InconsistencyError(f"s1+s2+s3 != 2*s_K + i2 for {self.d}")
        if product_e != 2 ** (s_k + i2):
            raise InconsistencyError(f"prod e_p != 2^(s_K+i2) for {self.d}")
        return RamificationProfile(efg, s_k, i2, e2, product_e)

    # -- lazily computed unit and ideal data ---------------------------------

    @property
    def units(self):
        if self._units is None:
            from .units import unit_structure
            self._units = unit_structure(self)
        return self._units

    def default_oracle(self):
        if self._oracle is None:
            from .lattice import AmbiguousIdealOracle
            self._oracle = AmbiguousIdealOracle(self)
        return self._oracle

    def __repr__(self):
        return f"BiquadField{self.d}"

    def __eq__(self, other):
        return isinstance(other, BiquadField) and other.d == self.d

    def __hash__(self):
        return hash(("biquad", self.d))


def biquadratic_field(d1_raw: int, d2_raw: int) -> BiquadField:
    return BiquadField(d1_raw, d2_raw)


def ramification_profile(K: BiquadField) -> RamificationProfile:
    """Per-prime (e_p, f_p, g_p) data of the field (computed at construction)."""
    return K.profile
