"""Bicyclic biquadratic fields K = Q(sqrt(d1), sqrt(d2)).

A field is keyed by the canonical ascending triple (d1, d2, d3) of squarefree
integers, d3 = d1*d2/gcd(d1, d2)^2, so any generating pair of the same field
gives an equal BiquadField (__eq__ compares d), though not the same object:
only quadratic_field interns its fields.  sqrt(d_x)*sqrt(d_y) = m_xy*sqrt(d_z)
with m_xy = +-gcd(d_x, d_y), negative exactly when d_x, d_y < 0 (the principal
branch); the construction checks d_x*d_y = m_xy^2*d_z and keeps the three
as cofactors = (m23, m13, m12), entry l - 1 for the pair that leaves out d_l.

Every element the program builds is an algebraic integer, so an element is a
vector of integer coordinates over the integral basis (H. Cohen, A Course in
Computational Algebraic Number Theory, GTM 138, 4.2): mul_basis_coords
multiplies through the structure constants of the basis and norm(x) is
x*sigma_1(x) times its sigma_2-conjugate.  One map goes each way between
them and radical coordinates over (1, sqrt(d1), sqrt(d2), sqrt(d3)): the
basis rows, and from_radicals through the omega rows.  sigma and the
denesting square root in units.py run on these two maps.

The integral basis is written down in closed form (K. S. Williams, "Integers
of biquadratic fields", Canad. Math. Bull. 13, 1970) from the residues of
(d1, d2, d3) mod 4, which are {1, 1, 1}, one 1 with {2, 2} or {3, 3}, or
{3, 2, 2}.  Its rows are integers in units of 1/4 and start with 1.  In each
pattern, _integral_basis writes three tables down from the d_i and the m_xy:
the rows, the structure constants and the rows of the subfield generators
omega_i.  The structure constants are the coordinates of the products e_i*e_j
of basis elements, so they are integers exactly when the lattice is a ring;
every division in them must be exact, or InconsistencyError is raised.  The
tables are written on the first read of any of them, not at construction,
and certified when first written: four more checks raise
InconsistencyError before any table is installed, so a table that fails
cannot be read.  The products with e_0 = 1 in the structure constants must
be the unit vectors, which mul_basis_coords assumes without reading, the
discriminant of the rows must equal the product of the three quadratic
discriminants, the radical map of the omega rows (from_radicals) must send
each row to its unit vector, and each omega_i row must satisfy
omega^2 = omega + (d_i - 1)/4 when d_i = 1 mod 4, else omega^2 = d_i, which
certifies the embedding from_quad.  The discriminant alone cannot tell O_K
from a lattice of the same index that is not a ring: in
Q(sqrt(-23), sqrt(-19)), (1 + sqrt(d1) + sqrt(d2) + sqrt(d3))/4 in place of
(1 + sqrt(d1))(1 + sqrt(d2))/4 keeps the discriminant.  A lattice that
contains 1, is closed under multiplication and has the discriminant of O_K
is O_K.

Galois action: sigma_i fixes sqrt(d_i) and negates the other two radicals;
sigma_i o sigma_j = sigma_l.  The ramification of K is read off which
quadratic subfields each prime ramifies in (see _ramification_profile).
"""

from __future__ import annotations

from math import gcd, isqrt, prod
from types import SimpleNamespace

from .errors import InconsistencyError, InvalidInputError, bit_lengths
from .lazy import cached_attribute
from . import quadratic
from .quadratic import (_SIEVE_PRIMES, _SQUARE_ROOTS, MINUS_ONE_MASK, quadratic_field,
                        sieve_bits)

_IDENTITY = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
# past quadratic._SIEVE_PRIMES, residue_maps goes on to the primes
# l = 3 mod 4 below this cap, where a nonzero square d has the root
# d^((l+1)/4) mod l
_ROOT_CAP = 2000
# the tables BiquadField._set_basis installs, on the first read of any of them
_BASIS_TABLES = ("basis_rows", "structure_constants", "omega_rows", "basis_columns")


def _root_mod(d: int, l: int) -> int | None:
    """A nonzero root of d mod a prime l = 3 mod 4, or None."""
    r = pow(d, (l + 1) // 4, l)
    return r if r and (r * r - d) % l == 0 else None


def _from_radicals(d, omegas, v) -> list[int]:
    """Basis coordinates of v0 + v1*sqrt(d1) + v2*sqrt(d2) + v3*sqrt(d3)
    under the omega rows omegas of the field with d = (d1, d2, d3), through
    sqrt(d_i) = 2*omega_i - 1 when d_i = 1 mod 4, else omega_i."""
    v0, v1, v2, v3 = v
    d1, d2, d3 = d
    if d1 % 4 == 1:
        v0, v1 = v0 - v1, 2 * v1
    if d2 % 4 == 1:
        v0, v2 = v0 - v2, 2 * v2
    if d3 % 4 == 1:
        v0, v3 = v0 - v3, 2 * v3
    (a0, a1, a2, a3), (b0, b1, b2, b3), (c0, c1, c2, c3) = omegas
    return [v0 + v1 * a0 + v2 * b0 + v3 * c0, v1 * a1 + v2 * b1 + v3 * c1,
            v1 * a2 + v2 * b2 + v3 * c2, v1 * a3 + v2 * b3 + v3 * c3]


def _mul(consts, x, y) -> list[int]:
    """Product of two integer coordinate vectors under the structure
    constants consts, in straight lines.  e_0 = 1, so row 0 and column 0 of
    consts are the unit vectors, which BiquadField._set_basis certifies, and
    x*y is x0*y0 + sum_j (x0*y_j + x_j*y0)*e_j plus the nine products
    x_i*y_j*e_i*e_j, all over i, j >= 1: those nine are the only constants
    read."""
    _, (a0, a1, a2, a3), (b0, b1, b2, b3), (c0, c1, c2, c3) = consts[1]
    _, (d0, d1, d2, d3), (e0, e1, e2, e3), (f0, f1, f2, f3) = consts[2]
    _, (g0, g1, g2, g3), (h0, h1, h2, h3), (k0, k1, k2, k3) = consts[3]
    x0, x1, x2, x3 = x
    y0, y1, y2, y3 = y
    p11, p12, p13 = x1 * y1, x1 * y2, x1 * y3
    p21, p22, p23 = x2 * y1, x2 * y2, x2 * y3
    p31, p32, p33 = x3 * y1, x3 * y2, x3 * y3
    return [x0 * y0 + p11 * a0 + p12 * b0 + p13 * c0 + p21 * d0 + p22 * e0 + p23 * f0
            + p31 * g0 + p32 * h0 + p33 * k0,
            x0 * y1 + x1 * y0 + p11 * a1 + p12 * b1 + p13 * c1 + p21 * d1 + p22 * e1
            + p23 * f1 + p31 * g1 + p32 * h1 + p33 * k1,
            x0 * y2 + x2 * y0 + p11 * a2 + p12 * b2 + p13 * c2 + p21 * d2 + p22 * e2
            + p23 * f2 + p31 * g2 + p32 * h2 + p33 * k2,
            x0 * y3 + x3 * y0 + p11 * a3 + p12 * b3 + p13 * c3 + p21 * d3 + p22 * e3
            + p23 * f3 + p31 * g3 + p32 * h3 + p33 * k3]


class BiquadField:
    """Immutable biquadratic field data: subfields, integral basis,
    multiplication structure, Galois action, ramification profile."""

    def __init__(self, d1_raw: int, d2_raw: int):
        if d1_raw == 0 or d2_raw == 0:
            raise InvalidInputError("field generators must be nonzero")
        k1, k2 = quadratic_field(d1_raw), quadratic_field(d2_raw)
        if k1.d == k2.d:
            raise InvalidInputError("generators span the same quadratic field")
        g = gcd(k1.d, k2.d)
        d12 = k1.d * k2.d // (g * g)
        # an interned d12 is its field's own d; otherwise its primes are
        # those dividing exactly one of k1.d, k2.d
        k3 = quadratic._FIELDS.get(d12) or quadratic_field(d12, _primes=sorted(
            {p for k in (k1, k2) for p in k.ramified_primes if k.d % p == 0 and g % p}))
        self.subfields = tuple(sorted((k1, k2, k3), key=lambda k: k.d))
        self.d: tuple[int, int, int] = tuple(k.d for k in self.subfields)
        d1, d2, d3 = self.d
        self.is_real = d1 > 0
        # m_xy for each pair {x, y}, at the index of the d_l it leaves out
        m23, m13, m12 = (-gcd(x, y) if x < 0 and y < 0 else gcd(x, y)
                         for x, y in ((d2, d3), (d1, d3), (d1, d2)))
        if d2 * d3 != m23 * m23 * d1 or d1 * d3 != m13 * m13 * d2 or d1 * d2 != m12 * m12 * d3:
            raise InconsistencyError(f"{self.d} is not multiplicatively closed")
        self.cofactors: tuple[int, int, int] = (m23, m13, m12)
        self.profile = self._ramification_profile()

    def __getattr__(self, name):
        # the basis tables are missing only until the first read of any of
        # them, which writes, certifies and installs all of them
        if name not in _BASIS_TABLES:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        self._set_basis(*self._integral_basis())
        return self.__dict__[name]

    # -- construction helpers; the basis is written on its first read ------

    def from_quad(self, i: int, el: tuple[int, int]) -> list[int]:
        """Basis coordinates of the integer u + v*omega_i, el = (u, v), of the
        i-th quadratic subfield (0-based)."""
        u, v = el
        x = [v * w for w in self.omega_rows[i]]
        x[0] += u  # the first basis element is 1
        return x

    def _integral_basis(self) -> tuple:
        """The closed-form integral basis and its tables, as the arguments of
        _set_basis: the rows in units of 1/4, the structure constants and the
        rows of omega_1..omega_3.  e_i is basis element i, e_0 = 1, and m_xy
        is the cofactor in sqrt(d_x)*sqrt(d_y) = m_xy*sqrt(d_z); every entry
        is written down from the d_i and m_xy."""
        d = self.d

        def exact(n: int, q: int) -> int:
            x, r = divmod(n, q)
            if r:
                raise InconsistencyError(
                    f"products of basis elements are not integral in the basis of {d}")
            return x

        res = [x % 4 for x in d]
        if res == [1, 1, 1]:
            d1, d2, d3 = d
            m23, m13, m12 = self.cofactors
            # e1 = (sqrt(d1) + sqrt(d3))/2, e2 = (sqrt(d2) + sqrt(d3))/2 and
            # e3 = (1 + sqrt(d1))(1 + sqrt(d2))/4 - (m12 // 4)*sqrt(d3)
            #    = (1 + sqrt(d1) + sqrt(d2) + c*sqrt(d3))/4 with c = m12 mod 4,
            # so sqrt(d3) = s*(4*e3 - 1 - 2*e1 - 2*e2) with s = c - 2 = +-1
            c = m12 % 4
            s, h = c - 2, c >> 1  # h = (1 + s)/2
            rows = [[4, 0, 0, 0], [0, 2, 0, 2], [0, 0, 2, 2], [1, 1, 1, c]]
            # e_i*e_j in radical coordinates, converted through the inverse of
            # the rows: x_0 + x_1*sqrt(d1) + x_2*sqrt(d2) + x_3*sqrt(d3) has
            # the coordinates (x_0 - u, 2*x_1 - 2*u, 2*x_2 - 2*u, 4*u) with
            # u = s*(x_3 - x_1 - x_2)
            a1, a2, a3 = s * m13, s * m23, s * m12
            t = a1 + a2 - a3
            g1, g2, w = t + 2 * a1 + m13, t + 2 * a2 + m23, t + a1 + a2 + m13 + m23
            c11 = (exact(d1 + d3 + 2 * a1, 4), a1, a1 + m13, -2 * a1)
            c22 = (exact(d2 + d3 + 2 * a2, 4), a2 + m23, a2, -2 * a2)
            c12 = (exact(d3 + t, 4), exact(t + m23, 2), exact(t + m13, 2), -t)
            c13 = (exact(d1 + c * d3 + g1, 8), exact(g1 + m23 + 1, 4),
                   exact(g1 + a1 + 3 * m13, 4), -exact(g1, 2))
            c23 = (exact(d2 + c * d3 + g2, 8), exact(g2 + a2 + 3 * m23, 4),
                   exact(g2 + m13 + 1, 4), -exact(g2, 2))
            c33 = (exact(d1 + d2 + c * c * d3 + 2 * w - 1, 16), exact(w + a2 + 2 * m23, 4),
                   exact(w + a1 + 2 * m13, 4), exact(1 - w, 2))
            consts = [list(_IDENTITY), [_IDENTITY[1], c11, c12, c13],
                      [_IDENTITY[2], c12, c22, c23], [_IDENTITY[3], c13, c23, c33]]
            # omega_i = (1 + sqrt(d_i))/2, through the same map
            omegas = [(h, 2 * h, s, -2 * s), (h, s, 2 * h, -2 * s), (1 - h, -s, -s, 2 * s)]
            return rows, consts, omegas
        # d_a has the residue that occurs once: 1 against {2, 2} or {3, 3},
        # or 3 against {2, 2}.  e_a = omega_a = (h + sqrt(d_a))/q, with h = 1,
        # q = 2 when d_a = 1 mod 4 and h = 0, q = 1 when d_a = 3 mod 4;
        # e_b = (sqrt(d_b) + sqrt(d_c))/2 and e_c = sqrt(d_c)
        a = next(i for i in (1, 2, 3) if res.count(res[i - 1]) == 1)
        b, c = (i for i in (1, 2, 3) if i != a)

        def at(x0, xa, xb, xc):
            """(x_0, x_a, x_b, x_c) in basis order."""
            x = [x0, 0, 0, 0]
            x[a], x[b], x[c] = xa, xb, xc
            return x

        da, db, dc = d[a - 1], d[b - 1], d[c - 1]
        mab, mac, mbc = self.cofactors[c - 1], self.cofactors[b - 1], self.cofactors[a - 1]
        h = 1 if res[a - 1] == 1 else 0
        q = 1 + h
        rows = at([4, 0, 0, 0], at(2 * h, 4 // q, 0, 0), at(0, 0, 2, 2), at(0, 0, 0, 4))
        x, y = exact(h + mac, q), exact(q * mbc, 2)
        caa = at(exact(da - h, q * q), h, 0, 0)
        cab = at(0, 0, x, exact(mab - mac, 2 * q))
        cac = at(0, 0, 2 // q * mac, h - x)
        cbb = at(exact(db + dc - 2 * h * mbc, 4), y, 0, 0)
        cbc = at(exact(dc - h * mbc, 2), y, 0, 0)
        ccc = at(dc, 0, 0, 0)
        consts = at(list(_IDENTITY), at(_IDENTITY[a], caa, cab, cac),
                    at(_IDENTITY[b], cab, cbb, cbc), at(_IDENTITY[c], cac, cbc, ccc))
        # omega_a = e_a, omega_b = sqrt(d_b) = 2*e_b - e_c and omega_c = e_c
        omegas = at(None, at(0, 1, 0, 0), at(0, 0, 2, -1), at(0, 0, 0, 1))[1:]
        return rows, consts, omegas

    def _set_basis(self, rows, consts, omegas) -> None:
        """Certify the integral basis given by rows (integers in units of 1/4)
        with its structure constants and omega rows, then install the three
        tables and the columns of the rows.  Four checks run on the tables
        as given, before any is installed: that row 0 and column 0 of the
        structure constants, e_0*e_j and e_i*e_0, are the unit vectors, which
        _mul does not read, the discriminant of the rows, that the radical
        map of the omega rows sends each row back to its unit vector, and
        that each omega row satisfies the minimal polynomial of omega_i.  So
        the basis is certified when first written, and a table that fails is
        never readable."""
        if rows[0] != [4, 0, 0, 0]:
            raise InconsistencyError(f"the integral basis of {self.d} must start with 1")
        if any(tuple(consts[0][i]) != unit or tuple(consts[i][0]) != unit
               for i, unit in enumerate(_IDENTITY)):
            raise InconsistencyError(f"the products with 1 in the basis of {self.d} are not "
                                     f"the unit vectors")
        # rows = [[4, 0], [b, C]] in blocks, so det = 4*det(C);
        # disc(1, sqrt(d1), sqrt(d2), sqrt(d3)) = 256*d1*d2*d3 and the rows
        # carry a factor 4 each, so disc(basis) = det^2 * d1*d2*d3 / 256
        (_, a1, a2, a3), (_, b1, b2, b3), (_, c1, c2, c3) = rows[1:]
        det = 4 * (a1 * (b2 * c3 - b3 * c2) - a2 * (b1 * c3 - b3 * c1)
                   + a3 * (b1 * c2 - b2 * c1))
        d1, d2, d3 = self.d
        disc = prod(k.delta for k in self.subfields)
        if det * det * d1 * d2 * d3 != 256 * disc:
            raise InconsistencyError(
                f"lattice discriminant {det * det * d1 * d2 * d3}/256 != {disc} for {self.d}")
        # the one map from radicals to the basis must invert the rows; it
        # sends the first row, 4, to 1 whatever the omega rows are
        for r, unit in zip(rows[1:], _IDENTITY[1:]):
            if tuple(self.divide(_from_radicals(self.d, omegas, r), 4)) != unit:
                raise InconsistencyError(f"the omega rows of {self.d} do not invert its basis")
        # omega_i is a root of x^2 - x - (d_i - 1)/4 when d_i = 1 mod 4, else of x^2 - d_i
        for di, w in zip(self.d, omegas):
            t, n = (1, (di - 1) // 4) if di % 4 == 1 else (0, di)
            if _mul(consts, w, w) != [t * w[0] + n, t * w[1], t * w[2], t * w[3]]:
                raise InconsistencyError(f"omega row {w} of {self.d} fails its polynomial")
        self.__dict__.update(zip(_BASIS_TABLES, (rows, consts, omegas, tuple(zip(*rows)))))

    def from_radicals(self, v, scale: int = 1) -> list[int]:
        """Basis coordinates of (v0 + v1*sqrt(d1) + v2*sqrt(d2) + v3*sqrt(d3))/scale;
        raises InconsistencyError unless they are integers."""
        x = _from_radicals(self.d, self.omega_rows, v)
        return x if scale == 1 else self.divide(x, scale)

    def divide(self, x, n: int) -> list[int]:
        """The coordinates x/n; raises InconsistencyError unless they are integers."""
        out = []
        for c in x:
            q, r = divmod(c, n)
            if r:
                raise InconsistencyError(f"a quotient by {n} is not integral in {self.d}")
            out.append(q)
        return out

    def mul_basis_coords(self, x, y) -> list[int]:
        """Product of two integer coordinate vectors over the integral basis."""
        return _mul(self.structure_constants, x, y)

    def sigma(self, x, t: int) -> list[int]:
        """Coordinates of sigma_t(x): sigma_0 = identity, sigma_t fixes sqrt(d_t).
        4*x goes to radical coordinates through the basis columns, the two
        radicals sigma_t moves change sign, and from_radicals brings it back."""
        if not t:
            return list(x)
        x0, x1, x2, x3 = x
        v = [x0 * c[0] + x1 * c[1] + x2 * c[2] + x3 * c[3] for c in self.basis_columns]
        for k in (1, 2, 3):
            if k != t:
                v[k] = -v[k]
        return self.from_radicals(v, 4)

    def norm(self, x) -> int:
        """N_{K/Q}(x) = x * sigma_1(x) * sigma_2(x * sigma_1(x))."""
        p = self.mul_basis_coords(x, self.sigma(x, 1))
        n = self.mul_basis_coords(p, self.sigma(p, 2))
        if any(n[1:]):
            raise InconsistencyError(f"the norm of an element of {self.d} with "
                                     f"{bit_lengths(x)}-bit coordinates is not rational")
        return n[0]

    def _ramification_profile(self) -> SimpleNamespace:
        """The ramification of K, read off set operations on the three
        subfields' sets of ramified primes: the ramified primes in
        increasing order as primes, their ramification indices as
        exponents, s_K, i2, e2 (1 when 2 is unramified) and product_e =
        2^(s_K + i2).  An odd ramified p ramifies in exactly two subfields
        and is unramified in the third, so e_p = 2.  2 ramifies in two or in
        all three; in all three it is totally ramified, e_2 = 4 and i2 = 1.
        So the exponents are 4 for a totally ramified 2, else 2, and their
        product is 2^(s_K + i2).  InconsistencyError is raised for an odd
        prime in all three subfields, a prime in one, a prime that divides
        the third subfield's discriminant, or s1 + s2 + s3 != 2*s_K + i2."""
        (k1, k2, k3), d = self.subfields, self.d
        p1, p2, p3 = (set(k.ramified_primes) for k in self.subfields)
        every, ramified = p1 & p2 & p3, p1 | p2 | p3
        if odd := every - {2}:
            raise InconsistencyError(f"odd {min(odd)} ramifies in every subfield of {d}")
        # p1 ^ p2 ^ p3 holds the primes in one subfield or in all three
        if once := (p1 ^ p2 ^ p3) - every:
            raise InconsistencyError(f"prime {min(once)} ramifies in 1 subfield of {d}")
        for k, others in ((k1, p2 & p3), (k2, p1 & p3), (k3, p1 & p2)):
            if third := [p for p in others - every if k.delta % p == 0]:
                raise InconsistencyError(
                    f"{min(third)} divides the discriminant of the third subfield of {d}")
        primes = sorted(ramified)
        s_k, i2 = len(primes), int(2 in every)
        if k1.s + k2.s + k3.s != 2 * s_k + i2:
            raise InconsistencyError(f"s1+s2+s3 != 2*s_K + i2 for {d}")
        # 2 sorts first, so a totally ramified 2 leads the exponents
        return SimpleNamespace(primes=primes, exponents=[4] * i2 + [2] * (s_k - i2), s_k=s_k,
                               i2=i2, e2=4 if i2 else 2 if 2 in ramified else 1,
                               product_e=2 ** (s_k + i2))

    # -- lazily computed unit and ideal data ---------------------------------

    @cached_attribute
    def units(self):
        from .units import unit_structure
        return unit_structure(self)

    @cached_attribute
    def split_mask(self) -> int:
        """The bits of the maps below 300, one for every odd prime l < 300
        that splits completely in K: k1.sieve_mask & k2.sieve_mask, bit t
        for _SIEVE_PRIMES[t]."""
        return self.subfields[0].sieve_mask & self.subfields[1].sieve_mask

    @cached_attribute
    def residue_maps(self) -> tuple[tuple[int, int, tuple[int, int, int]], ...]:
        """Ring maps O_K -> F_l, one for each prime l that divides neither
        d1 nor d2 and splits completely in K, as (l, the bit of the map,
        the images of omega_1, omega_2, omega_3): first every such l below
        300, the primes of split_mask, each with the bit that stands for it
        there, then the maps past 300 of _far_maps, only as many as bring
        the table up to max(8, s_K + 4) maps.  l splits completely exactly
        when d1 and d2 are nonzero squares mod l.  Below 300 the roots s1,
        s2 are those of the tables _SQUARE_ROOTS, as in the subfields'
        twist_mask.  The map sqrt(d1) -> s1, sqrt(d2) -> s2,
        sqrt(d3) -> s1*s2/m12 is the reduction modulo one prime above l;
        each s_i^2 = d_i is certified, or InconsistencyError is raised.  A
        ring map sends squares to squares, so an element with a non-residue
        image is not a square in K (see character_masks).  One map per l:
        the other three above l are its compositions with sigma_1..sigma_3,
        which give a rational integer the same character, so on the
        oracle's candidates r*u (r rational, u a unit twist) they add no bit
        that the twists do not already carry.  Only a descent reads these
        maps (lattice.principal_ideal_generator); generator_masks reads the
        subfields' tables below 300."""
        d, roots = self.d, []
        for bit, l in sieve_bits(self.split_mask):
            table = _SQUARE_ROOTS[l]
            roots.append((l, bit, table[d[0] % l], table[d[1] % l]))
        return self._maps(roots) + self._far_maps

    @cached_attribute
    def _far_maps(self) -> tuple[tuple[int, int, tuple[int, int, int]], ...]:
        """The maps of residue_maps past 300, none unless split_mask has
        fewer than max(8, s_K + 4) bits, one for each unknown of the
        oracle's table (lattice.AmbiguousIdealOracle._table_kernel): the
        s_K ramified primes and at most four twist generators.  They are
        the primes l = 3 mod 4 below _ROOT_CAP that split, with the roots
        d^((l+1)/4) mod l, which square to d exactly when d is a square,
        until there are max(8, s_K + 4) maps in all (fewer when those run
        out too).  The j-th of them has bit len(_SIEVE_PRIMES) + j."""
        d, roots = self.d, []
        need = max(8, self.profile.s_k + 4) - self.split_mask.bit_count()
        for l in range(303, _ROOT_CAP, 4):
            if len(roots) >= need:
                break
            if all(l % q for q in range(3, isqrt(l) + 1, 2)):
                r1, r2 = _root_mod(d[0], l), _root_mod(d[1], l)
                if r1 and r2:
                    roots.append((l, 1 << len(_SIEVE_PRIMES) + len(roots), r1, r2))
        return self._maps(roots)

    def _maps(self, roots) -> tuple[tuple[int, int, tuple[int, int, int]], ...]:
        """The maps of residue_maps for roots (l, bit, s1, s2), with each
        s_i^2 = d_i certified."""
        d, m12 = self.d, self.cofactors[2]
        # the image of omega_i = (1 + sqrt(d_i))/2 when d_i = 1 mod 4, else
        # of sqrt(d_i)
        halved = [i for i in range(3) if d[i] % 4 == 1]
        maps = []
        for l, bit, s1, s2 in roots:
            s = [s1, s2, s1 * s2 * pow(m12, -1, l) % l]
            if (s1 * s1 - d[0]) % l or (s2 * s2 - d[1]) % l or (s[2] * s[2] - d[2]) % l:
                raise InconsistencyError(f"the roots {tuple(s)} of {d} mod {l} do not square back")
            for i in halved:
                s[i] = (1 + s[i]) * (l + 1) // 2 % l
            maps.append((l, bit, tuple(s)))
        return tuple(maps)

    def character_masks(self, items, maps=None) -> list[tuple[int, int]]:
        """The quadratic characters under maps, by default residue_maps, of
        each item (factors, scale) of items, x = scale * prod(u + v*omega_i)
        over the factors (i, (u, v)), integers of the subfields k_i, in one
        pass over the maps: (the bits of the maps that send x to a
        non-residue, the bits of the maps that send x to 0), each map
        setting its own bit.  Below 300 x is a nonzero square mod l exactly
        when it is a key of the table _SQUARE_ROOTS[l]; past 300, where
        there is no table, by Euler's criterion."""
        masks = [[0, 0] for _ in items]
        for l, bit, omegas in self.residue_maps if maps is None else maps:
            squares = _SQUARE_ROOTS.get(l)
            for mask, (factors, scale) in zip(masks, items):
                x = scale % l
                for i, (u, v) in factors:
                    x = x * (u + v * omegas[i]) % l
                if not x:
                    mask[1] |= bit
                elif (x not in squares) if squares else pow(x, l >> 1, l) != 1:
                    mask[0] |= bit
        return [tuple(mask) for mask in masks]

    @cached_attribute
    def generator_masks(self) -> tuple[int, ...]:
        """The non-residue bits under residue_maps of -1, of the twist
        generators of k_1, k_2, k_3 and of each ramified prime of
        profile.primes, in that order, with no map built below 300.  Every
        item is rational or a subfield unit, so its bits there are the
        subfields' tables, kept once per process (quadratic.MINUS_ONE_MASK,
        QuadraticField.twist_mask and .ramified_masks), read at the bits of
        split_mask.  k1 and k2 are mapped by their own table roots; k3 is
        real, and its root s1*s2/m12 is -r3 for the table root r3 of d3 at
        some l, where eps_3 changes character exactly when N(eps_3) = -1
        and l = 3 mod 4, as eps_3' = -1/eps_3.  The bits of the maps past
        300 come from character_masks over _far_maps alone.  No map sends a
        ramified prime to 0, as l divides none of 2, d1, d2, or
        InconsistencyError is raised; a unit is never 0 mod l."""
        k1, k2, k3 = self.subfields
        split = self.split_mask
        t3 = k3.twist_mask
        if k3.lam == -1:
            d, m12 = self.d, self.cofactors[2]
            for bit, l in sieve_bits(split & MINUS_ONE_MASK):
                table = _SQUARE_ROOTS[l]
                if (table[d[0] % l] * table[d[1] % l] - m12 * table[d[2] % l]) % l:
                    t3 ^= bit
        masks = [MINUS_ONE_MASK & split, k1.twist_mask & split, k2.twist_mask & split,
                 t3 & split]
        zero, ramified1, ramified2 = 0, k1.ramified_masks, k2.ramified_masks
        for p in self.profile.primes:
            bits, zeros = ramified1.get(p) or ramified2[p]
            masks.append(bits & split)
            zero |= zeros
        zero &= split
        if self._far_maps:
            far = self.character_masks(
                [((), -1)] + [([(i, k.twist_generator())], 1) for i, k in enumerate(self.subfields)]
                + [((), p) for p in self.profile.primes], self._far_maps)
            for j, (bits, zeros) in enumerate(far):
                masks[j] |= bits
                if j >= 4:
                    zero |= zeros
        if zero:
            raise InconsistencyError(f"a residue map of {self.d} sends a ramified prime to 0")
        return tuple(masks)

    @property
    def twist_count(self) -> int:
        """The number of entries of unit_twists: 16 for real K; for imaginary
        K 4, or 8 with Q(i) or Q(sqrt(-3)), or 16 for Q(zeta_12)."""
        return 16 if self.is_real else 4 << len({-1, -3} & set(self.d))

    @cached_attribute
    def unit_twists(self) -> tuple[tuple[tuple[int, ...], int], ...]:
        """The distinct products u = u_1*u_2*u_3 of subfield twist units, in
        the order they first appear with u_3 varying fastest, each with its
        character mask (its non-residue bits under residue_maps): u_i is
        +-1 or +-eps_i in a real k_i, and 1 or the root of unity of
        QuadraticField.twist_generator in an imaginary k_i.  Each mask is
        the XOR of the masks of -1 and of the subfield generators, so the
        masks cost no big-integer product.  The twists cover each
        subfield's units modulo squares, so the descent in
        lattice.principal_ideal_generator tries g*u for each u, and the
        first descent in K forms this table.  There must be twist_count
        entries, or InconsistencyError is raised."""
        minus = self.generator_masks[0]
        table = [(_IDENTITY[0], 0)]
        for i, k in enumerate(self.subfields):
            u, um = self.from_quad(i, k.twist_generator()), self.generator_masks[1 + i]
            products = []
            for t, tm in table:
                tu = tuple(self.mul_basis_coords(t, u))
                products += ([(t, tm), (tuple(-c for c in t), tm ^ minus),
                              (tu, tm ^ um), (tuple(-c for c in tu), tm ^ um ^ minus)]
                             if k.is_real else [(t, tm), (tu, tm ^ um)])
            table = list(dict.fromkeys(products))
        if len(table) != self.twist_count:
            raise InconsistencyError(
                f"{len(table)} distinct unit twists in {self.d}, expected {self.twist_count}")
        return tuple(table)

    def __repr__(self):
        return f"BiquadField{self.d}"

    def __eq__(self, other):
        return isinstance(other, BiquadField) and other.d == self.d

    def __hash__(self):
        return hash(("biquad", self.d))


def biquadratic_field(d1_raw: int, d2_raw: int) -> BiquadField:
    return BiquadField(d1_raw, d2_raw)
