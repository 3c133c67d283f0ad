"""Bicyclic biquadratic fields K = Q(sqrt(d1), sqrt(d2)).

A field is keyed by the canonical ascending triple (d1, d2, d3) of squarefree
integers, d3 the squarefree part of d1*d2, so any generating pair of the same
field produces the same object.

Every element the program builds is an algebraic integer, so an element is a
vector of integer coordinates over the integral basis (H. Cohen, A Course in
Computational Algebraic Number Theory, GTM 138, 4.2): mul_basis_coords
multiplies through the structure constants of the basis, sigma applies the
integer matrix of a Galois element and norm(x) is x*sigma_1(x) times its
sigma_2-conjugate.  Radical coordinates over (1, sqrt(d1), sqrt(d2),
sqrt(d3)), with the principal-branch sign convention sqrt(a)*sqrt(b) =
-sqrt(ab) exactly when a, b < 0, only build these tables and carry the
denesting square root in units.py.

The integral basis is written down in closed form (K. S. Williams, "Integers
of biquadratic fields", Canad. Math. Bull. 13, 1970) from the residues of
(d1, d2, d3) mod 4, which are {1, 1, 1}, one 1 with {2, 2} or {3, 3}, or
{3, 2, 2}.  Its rows are integers in units of 1/4 and start with 1, so the
4x4 matrix is block triangular, [[4, 0], [b, C]]; every change of
coordinates goes through its integer adjugate [[det C, 0], [-adj(C)*b,
4*adj(C)]] and determinant 4*det C, with adj(C) from 3x3 cofactors.
Construction certifies the basis twice, and both checks raise
InconsistencyError.  The lattice discriminant must equal the product of the
three quadratic discriminants, and the products and Galois images of the
basis elements must have integer coordinates.  The discriminant alone cannot
tell O_K from a lattice of the same index that is not a ring: in
Q(sqrt(-23), sqrt(-19)), (1 + sqrt(d1) + sqrt(d2) + sqrt(d3))/4 in place of
(1 + sqrt(d1))(1 + sqrt(d2))/4 keeps the discriminant.  A lattice that
contains 1, is closed under multiplication and has the discriminant of O_K
is O_K.

Galois action: sigma_i fixes sqrt(d_i) and negates the other two radicals;
sigma_i o sigma_j = sigma_l.  The ramification profile of a rational prime
follows from which quadratic subfields it ramifies in: a ramified prime
ramifies in exactly two of them, except 2 which may ramify in all three
(then e_2 = 4); the residue degree is read off the splitting of p in the
inertia-complement subfield.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

from .errors import InconsistencyError, InvalidInputError
from .intmath import kronecker, squarefree_part
from .quadratic import QuadraticField

# coordinate signs of sigma_1 and sigma_2: sigma_t fixes sqrt(d_t), negates the rest
_SIGMA_SIGNS = ((1, 1, -1, -1), (1, -1, 1, -1))
_IDENTITY = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))


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
        # the product of two d_i is the third times a square, so an imaginary
        # field has two negative d_i and its one real subfield sorts last
        self.real_radical_index = None if self.is_real else 3
        self.disc = 1
        for k in self.subfields:
            self.disc *= k.delta
        self._set_basis(self._integral_basis_rows())
        self.profile = self._ramification_profile()
        self._units = None

    # -- construction helpers ----------------------------------------------

    def _build_mul_table(self):
        table = {}
        for i in range(1, 4):
            for j in range(1, 4):
                if i == j:
                    continue
                l = 6 - i - j
                di, dj, dl = self.d[i - 1], self.d[j - 1], self.d[l - 1]
                f2, r = divmod(di * dj, dl)
                f = isqrt(max(f2, 0))
                if r or f * f != f2:
                    raise InconsistencyError(f"{self.d} is not multiplicatively closed")
                sign = -1 if (di < 0 and dj < 0) else 1
                table[(i, j)] = (l, sign * f)
        return table

    def from_quad(self, i: int, el: tuple[int, int]) -> list[int]:
        """Basis coordinates of the integer u + v*omega_i, el = (u, v), of the
        i-th quadratic subfield (0-based)."""
        u, v = el
        x = [v * w for w in self.omega_rows[i]]
        x[0] += u  # the first basis element is 1
        return x

    def radical_product(self, a, b) -> list[int]:
        """Product of two integer vectors over (1, sqrt(d1), sqrt(d2), sqrt(d3))."""
        out = [0, 0, 0, 0]
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
                    out[0] += p * self.d[i - 1]
                else:
                    l, coef = self.mul_table[(i, j)]
                    out[l] += p * coef
        return out

    def _integral_basis_rows(self) -> list[list[int]]:
        """The closed-form integral basis as integer rows in units of 1/4.
        Row 0 is 1; outside the case {1, 1, 1}, row i > 0 is the element
        whose first nonzero radical coordinate is at sqrt(d_i)."""
        res = [x % 4 for x in self.d]
        if res == [1, 1, 1]:
            # (sqrt(d1) + sqrt(d3))/2, (sqrt(d2) + sqrt(d3))/2 and
            # (1 + sqrt(d1))(1 + sqrt(d2))/4 = (1 + sqrt(d1) + sqrt(d2) + c*sqrt(d3))/4
            c = self.mul_table[(1, 2)][1]
            return [[4, 0, 0, 0], [0, 2, 0, 2], [0, 0, 2, 2], [1, 1, 1, c % 4]]
        # d_a has the residue that occurs once: 1 against {2, 2} or {3, 3},
        # or 3 against {2, 2}
        a = next(i for i in (1, 2, 3) if res.count(res[i - 1]) == 1)
        b, c = (i for i in (1, 2, 3) if i != a)
        rows = [[4, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]
        if res[a - 1] == 1:
            rows[a][0] = rows[a][a] = 2  # (1 + sqrt(d_a))/2
        else:
            rows[a][a] = 4  # sqrt(d_a)
        rows[b][b] = rows[b][c] = 2  # (sqrt(d_b) + sqrt(d_c))/2
        rows[c][c] = 4  # sqrt(d_c)
        return rows

    def _set_basis(self, rows: list[list[int]]) -> None:
        """Install rows (integers in units of 1/4) as the integral basis,
        after the discriminant certificate and the closure checks."""
        if rows[0] != [4, 0, 0, 0]:
            raise InconsistencyError(f"the integral basis of {self.d} must start with 1")
        # rows = [[4, 0], [b, C]] in blocks, so det = 4*det(C) and
        # adj(rows) = [[det(C), 0], [-adj(C)*b, 4*adj(C)]]; adj(C)[i][j] is
        # the cofactor of C[j][i], written cyclically with indices mod 3
        C = [r[1:] for r in rows[1:]]
        adj_c = [[C[(j + 1) % 3][(i + 1) % 3] * C[(j + 2) % 3][(i + 2) % 3]
                  - C[(j + 1) % 3][(i + 2) % 3] * C[(j + 2) % 3][(i + 1) % 3]
                  for j in range(3)] for i in range(3)]
        det_c = C[0][0] * adj_c[0][0] + C[0][1] * adj_c[1][0] + C[0][2] * adj_c[2][0]
        det = 4 * det_c
        # disc(1, sqrt(d1), sqrt(d2), sqrt(d3)) = 256*d1*d2*d3 and the rows
        # carry a factor 4 each, so disc(basis) = det^2 * d1*d2*d3 / 256
        d1, d2, d3 = self.d
        if det * det * d1 * d2 * d3 != 256 * self.disc:
            raise InconsistencyError(
                f"lattice discriminant {det * det * d1 * d2 * d3}/256 "
                f"!= {self.disc} for {self.d}")
        self.basis_rows, self._det = rows, det
        # column j of adj(rows), for the coordinates x = 4 * vec * adj / det
        self._adj_cols = [(det_c, *(-sum(a * r[0] for a, r in zip(adj_c[i], rows[1:]))
                                    for i in range(3)))]
        self._adj_cols += [(0, *(4 * adj_c[i][j] for i in range(3))) for j in range(3)]
        self.structure_constants = consts = [[None] * 4 for _ in range(4)]
        for i in range(4):
            for j in range(i, 4):
                consts[i][j] = consts[j][i] = tuple(self._integer_coords(
                    self.radical_product(rows[i], rows[j]), 16, "products of basis elements"))
        # row 0 is 1, so this checks that the adjugate inverts the rows
        if tuple(consts[0]) != _IDENTITY:
            raise InconsistencyError(f"1 times the basis of {self.d} is not the basis")
        self.sigma_matrices = [_IDENTITY] + [
            [self._integer_coords([v * s for v, s in zip(r, signs)], 4, "Galois images")
             for r in rows]
            for signs in _SIGMA_SIGNS]
        # sigma_3 = sigma_1 o sigma_2, so its rows are those of sigma_1 mapped by sigma_2
        self.sigma_matrices.append([self.sigma(r, 2) for r in self.sigma_matrices[1]])
        # omega_i = sqrt(d_i), or (1 + sqrt(d_i))/2 when d_i = 1 mod 4: the
        # ring of integers of k_i is Z + Z*omega_i
        self.omega_rows = []
        for i, d in enumerate(self.d):
            vec, scale = [0, 0, 0, 0], 1
            vec[i + 1] = 1
            if d % 4 == 1:
                vec[0], scale = 1, 2
            self.omega_rows.append(self._integer_coords(vec, scale, "subfield integers"))

    def _integer_coords(self, vec, scale: int, what: str) -> list[int]:
        """Basis coordinates of the element vec/scale, vec an integer vector
        over the radicals; raises unless they are integers."""
        den = scale * self._det
        v0, v1, v2, v3 = vec
        out = []
        for c0, c1, c2, c3 in self._adj_cols:
            q, r = divmod(4 * (v0 * c0 + v1 * c1 + v2 * c2 + v3 * c3), den)
            if r:
                raise InconsistencyError(f"{what} are not integral in the basis of {self.d}")
            out.append(q)
        return out

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

    def sigma(self, x, t: int) -> list[int]:
        """Coordinates of sigma_t(x): sigma_0 = identity, sigma_t fixes sqrt(d_t)."""
        S = self.sigma_matrices[t]
        return [x[0] * S[0][j] + x[1] * S[1][j] + x[2] * S[2][j] + x[3] * S[3][j]
                for j in range(4)]

    def norm(self, x) -> int:
        """N_{K/Q}(x) = x * sigma_1(x) * sigma_2(x * sigma_1(x))."""
        p = self.mul_basis_coords(x, self.sigma(x, 1))
        n = self.mul_basis_coords(p, self.sigma(p, 2))
        if any(n[1:]):
            raise InconsistencyError(f"the norm {n} of {x} must be rational")
        return n[0]

    def _ramification_profile(self) -> RamificationProfile:
        deltas = [k.delta for k in self.subfields]
        primes = sorted({p for k in self.subfields for p in k.ramified_primes})
        efg = {}
        for p in primes:
            where = [i for i in range(3) if p in self.subfields[i].ramified_primes]
            if len(where) == 3:
                if p != 2:
                    raise InconsistencyError(f"odd {p} ramifies in every subfield of {self.d}")
                efg[p] = (4, 1, 1)
            else:
                if len(where) != 2:
                    raise InconsistencyError(
                        f"prime {p} ramifies in {len(where)} subfields of {self.d}")
                j = ({0, 1, 2} - set(where)).pop()
                sym = kronecker(deltas[j], p)
                if sym == 0:
                    raise InconsistencyError(
                        f"{p} ramifies in the inertia-complement subfield of {self.d}")
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

    def __repr__(self):
        return f"BiquadField{self.d}"

    def __eq__(self, other):
        return isinstance(other, BiquadField) and other.d == self.d

    def __hash__(self):
        return hash(("biquad", self.d))


def biquadratic_field(d1_raw: int, d2_raw: int) -> BiquadField:
    return BiquadField(d1_raw, d2_raw)
