"""Unit structure of a biquadratic field: roots of unity, the unit index
q = (O_K^x : O_k1^x O_k2^x O_k3^x), and the indices tied to the norm-one /
totally-signed unit subgroup.

The computational heart is an exact squareness test, integral_square_root.
The two routes to |Po(K)| both use it: the formula route decides the unit
index q_K with it, and the oracle's principality test
(lattice.principal_ideal_generator) ends in it.

The test denests over k1 = Q(sqrt(d1)) in integers.  With sqrt(d1)*sqrt(d2)
= m*sqrt(d3) and C the radical coordinates of 4*eta, (4|m|)**2 * eta =
alpha + beta*sqrt(d2) with alpha = 4m^2 (C0 + C1 sqrt(d1)), beta = 4m^2 C2 +
4m C3 sqrt(d1), and its roots +-4|m|*xi (xi is integral) are a + b*sqrt(d2)
with a, b in Z[sqrt(d1)].  If beta != 0, then alpha**2 - beta**2*d2 = nu**2,
nu = +-(a**2 - b**2*d2), and (alpha +- nu)/2 = a**2 != 0 for one sign, and
any such a gives the root a + (beta/(2a))*sqrt(d2); if beta = 0, alpha or
alpha/d2 is a square in k1.  Squares in k1 are settled the same way with
isqrt; a root in k1 of an element of Z[sqrt(d1)] lies in Z[sqrt(d1)], since
((u + v*sqrt(d1))/2)**2 with u, v odd has a half-odd sqrt(d1) coefficient.  So
an odd sum or an inexact division ends a branch with no root, "not a square"
is a completed finite test, and a root is returned only after squaring back.

The unit index follows by testing which products of subfield fundamental
units (twisted by subfield roots of unity) become squares in K: squaring
embeds O_K^x / E_0 into E_0 / E_0^2 for E_0 the subgroup generated by the
subfield units, so q equals the number of square classes found.  For real
fields a sign character on the lambda_i prunes candidates that are not
totally positive.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import isqrt
from operator import mul

from .biquadratic import BiquadField
from .errors import InconsistencyError


def _int_sqrt(n: int) -> int | None:
    """The root r >= 0 with r*r == n, or None."""
    r = isqrt(max(n, 0))
    return r if r * r == n else None


def _k1_sqrt(x: int, y: int, d1: int) -> tuple[int, int] | None:
    """Integers (r0, r1) with (r0 + r1*sqrt(d1))**2 == x + y*sqrt(d1), or None
    when x + y*sqrt(d1) is not a square in k1."""
    if y == 0:
        r = _int_sqrt(x)
        if r is not None:
            return r, 0
        r = None if x % d1 else _int_sqrt(x // d1)
        return None if r is None else (0, r)
    n = _int_sqrt(x * x - d1 * y * y)
    if n is None or (x + n) & 1:
        return None
    for s in (n, -n):
        a = _int_sqrt((x + s) // 2)
        if a:
            b, r = divmod(y, 2 * a)
            return None if r else (a, b)
    return None


def _relative_sqrt(x0: int, x1: int, y0: int, y1: int, d1: int, d2: int):
    """A root (a0, a1, b0, b1), meaning a0 + a1*sqrt(d1) + (b0 + b1*sqrt(d1))*sqrt(d2),
    of (x0 + x1*sqrt(d1)) + (y0 + y1*sqrt(d1))*sqrt(d2), or None."""
    if y0 == y1 == 0:
        a = _k1_sqrt(x0, x1, d1)
        if a is not None:
            return (*a, 0, 0)
        b = None if x0 % d2 or x1 % d2 else _k1_sqrt(x0 // d2, x1 // d2, d1)
        return None if b is None else (0, 0, *b)
    # N_{K/k1}(eta) = alpha**2 - beta**2*d2
    nu = _k1_sqrt(x0 * x0 + d1 * x1 * x1 - d2 * (y0 * y0 + d1 * y1 * y1),
                  2 * (x0 * x1 - d2 * y0 * y1), d1)
    if nu is None or (x0 + nu[0]) & 1 or (x1 + nu[1]) & 1:
        return None
    for s in (1, -1):
        a = _k1_sqrt((x0 + s * nu[0]) // 2, (x1 + s * nu[1]) // 2, d1)
        if a is not None and a != (0, 0):
            # beta / (2a) = beta * conj(a) / (2 N(a))
            a0, a1 = a
            n2 = 2 * (a0 * a0 - d1 * a1 * a1)
            b0, r0 = divmod(y0 * a0 - d1 * y1 * a1, n2)
            b1, r1 = divmod(y1 * a0 - y0 * a1, n2)
            return None if r0 or r1 else (a0, a1, b0, b1)
    return None


def integral_square_root(K: BiquadField, eta) -> tuple[int, ...] | None:
    """Exact xi with xi*xi == eta, or None when eta is provably not a square;
    both are integer coordinates over the integral basis.

    The denesting runs on (4|m|)**2 * eta, as the module docstring says.  A
    root of the integer eta is integral (it satisfies the monic polynomial
    x^2 - eta), so a root without integer basis coordinates raises.
    """
    d1, d2 = K.d[0], K.d[1]
    m = K.mul_table[(1, 2)][1]
    c0, c1, c2, c3 = (sum(map(mul, eta, col)) for col in zip(*K.basis_rows))
    f = 4 * m * m
    root = _relative_sqrt(f * c0, f * c1, f * c2, 4 * m * c3, d1, d2)
    if root is None:
        return None
    a0, a1, b0, b1 = root
    # the scale must be positive: 4*m would return -xi when m < 0
    xi = tuple(K._integer_coords([a0, a1, b0, b1 * m], 4 * abs(m), "square roots"))
    if K.mul_basis_coords(xi, xi) != list(eta):
        raise InconsistencyError(f"denested square root of {eta} does not square back")
    return xi


@dataclass
class UnitStructure:
    """Roots of unity, unit index, and the derived subgroup indices."""

    mu_order: int
    has_sqrt_minus1: bool
    q_k: int
    lam: tuple[int, int, int]
    nu_k: int
    star_case: str  # "real_all_minus" | "product"
    index_sub_units_over_star: int   # (O_k1^x O_k2^x O_k3^x : O*_K)
    index_units_over_star: int       # (O_K^x : O*_K)
    index_pm_squares: int            # (O_K^x : +-(O_K^x)^2)
    index_star_over_pm_squares: int  # (O*_K : +-(O_K^x)^2)
    # exact roots of the subfield-unit products that are squares in K, keyed
    # by (a1, a2, a3) exponent triples (real K) or (torsion_exp, eps_exp)
    # pairs (imaginary K)
    square_class_roots: dict = field(default_factory=dict, repr=False)


def _mu_data(K: BiquadField) -> tuple[int, bool]:
    ds = set(K.d)
    if ds == {-1, 2, -2}:
        return 8, True
    if ds == {-1, 3, -3}:
        return 12, True
    if -1 in ds:
        return 4, True
    if -3 in ds:
        return 6, False
    return 2, False


def _conj_sign_character(lam: tuple[int, int, int], a: tuple[int, int, int], t: int) -> int:
    """Sign of sigma_t(eps_1^a1 eps_2^a2 eps_3^a3) for a real field."""
    s = 1
    for i in range(3):
        if a[i] and i != t - 1:
            s *= lam[i]
    return s


def _torsion_generator(K: BiquadField) -> tuple[list[int], int]:
    """Generator of the subgroup of roots of unity generated by the
    subfield torsion units, with its order."""
    gens = []
    for i, k in enumerate(K.subfields):
        if k.torsion_order() > 2:
            gens.append((K.from_quad(i, k.torsion_generator()), k.torsion_order()))
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
    z12 = K.mul_basis_coords(g4, K.sigma(g6, K.real_radical_index))
    z2 = K.mul_basis_coords(z12, z12)
    z6 = K.mul_basis_coords(z2, K.mul_basis_coords(z2, z2))
    if z6 != [-1, 0, 0, 0] or z2 == [-1, 0, 0, 0]:
        raise InconsistencyError(f"{z12} fails z**6 = -1 and z**2 != -1")
    return z12, 12


def unit_structure(K: BiquadField) -> UnitStructure:
    lam = tuple(k.lam if k.is_real else 0 for k in K.subfields)
    nu_k = sum(k.nu for k in K.subfields)
    mu_order, has_i = _mu_data(K)
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
        q = len(roots) + 1
        if q not in (1, 2, 4):
            raise InconsistencyError(f"unit index {q} outside 1|2|4 for real {K.d}")
        star_all_minus = lam == (-1, -1, -1)
        prod_sub = 2 ** sum(1 for l in lam if l == -1)
        index_sub_over_star = prod_sub // 2 if star_all_minus else prod_sub
        index_pm_squares = 8
        star_case = "real_all_minus" if star_all_minus else "product"
    else:
        zeta, zorder = _torsion_generator(K)
        r = K.real_radical_index - 1
        eps_r = K.from_quad(r, K.subfields[r].fundamental_unit)
        candidates = {(1, 0): zeta, (0, 1): eps_r, (1, 1): K.mul_basis_coords(zeta, eps_r)}
        for key, eta in candidates.items():
            xi = integral_square_root(K, eta)
            if xi is not None:
                roots[key] = xi
        q = len(roots) + 1
        if q not in (1, 2):
            raise InconsistencyError(f"unit index {q} outside 1|2 for imaginary {K.d}")
        index_sub_over_star = 2 if lam[r] == -1 else 1
        index_pm_squares = 4 if has_i else 2
        star_case = "product"

    index_units_over_star = q * index_sub_over_star
    if index_pm_squares % index_units_over_star:
        raise InconsistencyError(
            f"(O*:+-squares) is not integral for {K.d}: "
            f"{index_pm_squares}/{index_units_over_star}")
    index_star_over_pm = index_pm_squares // index_units_over_star
    if index_star_over_pm not in (1, 2, 4, 8):
        raise InconsistencyError(f"(O*:+-squares) = {index_star_over_pm} for {K.d}")
    return UnitStructure(
        mu_order=mu_order,
        has_sqrt_minus1=has_i,
        q_k=q,
        lam=lam,
        nu_k=nu_k,
        star_case=star_case,
        index_sub_units_over_star=index_sub_over_star,
        index_units_over_star=index_units_over_star,
        index_pm_squares=index_pm_squares,
        index_star_over_pm_squares=index_star_over_pm,
        square_class_roots=roots,
    )
