"""Unit structure of a biquadratic field: the roots of unity and the unit
index q = (O_K^x : O_k1^x O_k2^x O_k3^x), both decided by tests on rational
integers that say which products of subfield units are squares in K.  The
chain indices tied to the norm-one / totally-signed unit subgroup follow
from q, lambda and mu_K in polya.

The oracle's principality test (lattice.principal_ideal_generator) ends in
the exact squareness test integral_square_root; the formula route takes no
square root in K.  The two routes share the subfield fundamental units and
_k1_sqrt, the square test in one quadratic subfield, which the formula
route runs only on eps1*eps2*eps3 in a real K with every lambda_i = -1.

integral_square_root denests over k1 = Q(sqrt(d1)) in integers.  With sqrt(d1)*sqrt(d2)
= m*sqrt(d3) and C the radical coordinates of 4*eta, (4|m|)**2 * eta =
alpha + beta*sqrt(d2) with alpha = 4m^2 (C0 + C1 sqrt(d1)), beta = 4m^2 C2 +
4m C3 sqrt(d1), and its roots +-4|m|*xi (xi is integral) are a + b*sqrt(d2)
with a, b in Z[sqrt(d1)].  If beta != 0, then alpha**2 - beta**2*d2 = nu**2,
nu = +-(a**2 - b**2*d2), and (alpha +- nu)/2 = a**2 != 0 for one sign, and
any such a gives the root a + (beta/(2a))*sqrt(d2); if beta = 0, alpha or
alpha/d2 is a square in k1.  Squares in k1 are settled the same way with
isqrt (_k1_sqrt); a root in k1 of an element of Z[sqrt(d1)] lies in Z[sqrt(d1)], since
((u + v*sqrt(d1))/2)**2 with u, v odd has a half-odd sqrt(d1) coefficient.  So
an odd sum or an inexact division ends a branch with no root, "not a square"
is a completed finite test, and a root is returned only after squaring back.

The unit index follows by testing which products of subfield fundamental
units (twisted by subfield roots of unity) become squares in K: squaring
embeds O_K^x / E_0 into E_0 / E_0^2 for E_0 the subgroup generated by the
subfield units, so q equals the number of square classes found.  Each test
is a proof, and each root is written down and squared back.  The units are
formed in K only for a class whose test finds a square, so a field with no
such class never reads the integral basis of K:

- A nonzero rational integer r is a square in K exactly when r*d_j = s**2
  for some d_j in (1, d1, d2, d3): a root x of r spans Q or some
  Q(sqrt(d_j)), so x = c*sqrt(d_j) with c rational.  For
  eta = x**2/(n**2*r), with x != 0 in K, eta is then a square exactly when r
  is, with the root x*sqrt(d_j)/(n*s).
- If N(eps) = +1, then (1 + eps)**2 = eps*(Tr(eps) + 2), with 1 + eps != 0
  (QuadraticField.trace_plus_2).  So a product of norm +1 units is a square
  exactly when the product T of their Tr(eps_i) + 2 is, and
  prod(1 + eps_i)*sqrt(d_j)/s is its root.
- Real K.  A square is totally positive, and s_t changes the sign of eps_i,
  i != t, by lambda_i; so every product with a unit of norm -1 is pruned,
  except eps1*eps2*eps3 when every lambda_i = -1.  There theta = eps2*eps3
  has N_{K/k1}(theta) = 1, so (1 + theta)**2 = theta*(2 + Tr_{K/k1} theta),
  and eta = eps1*theta = (eta + eps1)**2/beta for beta = eps1*(2 + Tr_{K/k1}
  theta) in k1, where Tr_{K/k1} theta = eps2*eps3 + eps2'*eps3' is written
  down from the radical coordinates.  beta is a square in K = k1(sqrt(d2))
  exactly when beta or beta*d2 is a square in k1, since (a + b*sqrt(d2))**2
  lies in k1 only when ab = 0; _k1_sqrt decides that on 4*beta, and a root
  gamma of 4*f*beta gives xi = 2*sqrt(f)*(eta + eps1)*gamma'/N(gamma).
  mu_K = {+-1}.
- Imaginary K.  The generator zeta of the subfield roots of unity is
  c*(rho/n)**2 with c rational (_torsion_generator), so zeta is a square
  exactly when c is, and mu_K is then twice its order.  If the unit eps_r of
  the real subfield has norm -1, neither eps_r nor zeta*eps_r is a square:
  some imaginary subfield k_t is neither Q(i) nor Q(sqrt(-3)) (with both,
  eps_r = 2 + sqrt(3)), s_t sends zeta to zeta**-1, and so
  N_{K/k_t}(zeta**a * eps_r) = -1, which is not a square in k_t.  Otherwise
  eps_r and zeta*eps_r are tested by Tr(eps_r) + 2 and c*(Tr(eps_r) + 2).
- A subfield unit is no square in its own subfield.  A witness d_j in
  (1, d_i) for Tr(eps_i) + 2 alone puts the root (1 + eps_i)*sqrt(d_j)/s of
  eps_i in k_i, so unit_structure raises on it: in a real K on a one-unit
  class, in an imaginary K on any witness of eps_r, since Tr(eps_r) + 2 > 0
  leaves d_j only 1 or d3.  So the class (0, 1) never occurs.  A unit search
  that returned eps**2 for eps would hit this, as Tr(eps**2) + 2 is
  (Tr eps)**2 or d*v**2.

The same data give |H^1(G, O_K^x)| for G = Gal(K/Q) = {1, s1, s2, s3}
(unit_cohomology_order), which the formula route needs for j2.  Write F =
O_K^x / mu_K.  Its G-invariants are trivial (every unit fixed by G is
rational), so 0 -> mu_K -> O_K^x -> F -> 0 gives |H^1(G, O_K^x)| =
|H^1(G, mu_K)| * |ker delta| for the connecting map delta: H^1(G, F) ->
H^2(G, mu_K).  A cocycle is fixed by its values x = f(s1), y = f(s2), and
the relations s1^2 = s2^2 = 1, s1 s2 = s2 s1 make it one exactly when
(1 + s1) x = (1 + s2) y = 0 and (1 - s2) x = (1 - s1) y.

Real K.  mu_K = {+-1} with trivial action, so |H^1(G, mu_K)| = 4.  F is the
lattice L = 2Z^3 + sum Z*a of half-exponents, a over the keys of
square_class_roots (a stands for xi_a, 2e_i for eps_i), and s_t acts on it
by diag(+-1) with +1 at t.  The cocycles are x = (0, x2, c), y = (y1, 0, c)
in L and the coboundaries are 2L with coordinates permuted, so
[Z : B] = |V| * 8 / q for V the cocycles mod 2.  Lift f through the section
of F that is positive at the embedding where every eps_i > 1; then
delta(f)(s, t) = chi_s(f(t)), where chi_t(a) is the sign in N_{K/k_t}(xi_a)
= s_t(xi_a) * xi_a = +-eps_t^a_t and chi_t(2e_i) = lambda_i for i != t, 1
for i = t.  H^2(G, {+-1}) is F_2^3, read off a normalised cocycle c as
c(s1, s1), c(s2, s2) and c(s1, s2) + c(s2, s1), so |ker delta| = [Z : B] /
|delta(Z)|.  delta reads chi only on x and y, whose a1 or a2 is 0, so never
on eps1*eps2*eps3; each class read has the root xi_a = prod(1 + eps_i)*
sqrt(d_j)/s above, with j unique, as the d_j are distinct modulo squares.  As
(1 + eps_i)*s_t(1 + eps_i) = eps_i^[i = t]*(Tr(eps_i) + 2) and
sqrt(d_j)*s_t(sqrt(d_j)) = +-d_j, the sign is - exactly when s_t moves
sqrt(d_j): chi_t(a) = [j not in (0, t)], for the j kept in radical_index, with
no arithmetic in K and resting only on xi_a**2 = eta_a (_checked_root).

Imaginary K.  k_3 is the real subfield, s_3 is complex conjugation, and
F = Z, generated by eta, with s_1 = s_2 = -1; so H^1(G, F) = Z/2, from
x = y = 1.  With s_t(zeta) = zeta^k_t for a generator zeta of mu_K of order
w, and N_{K/k_t}(eta) = zeta^c_t (t = 1, 2), that class lifts to a cocycle
zeta^x eta, zeta^y eta exactly when x(1 + k1) + c1 = y(1 + k2) + c2 =
x + k1 y + c1 - y - k2 x - c2 = 0 (mod w) has a solution.  The five numbers
are read off K.d, lambda_3 and the radical index j of the square class, with
no arithmetic in K (h = w/2):

- k_t.  s_1 s_2 = s_3 inverts mu_K, so k1*k2 = -1 (mod w), or
  InconsistencyError is raised.  zeta = -1, i or zeta_6 = (1 + sqrt(-3))/2
  (w = 2, 4, 6) is fixed by s_t when it lies in k_t and inverted otherwise:
  k_t = 1 or w - 1.  In Q(zeta_8), d = (-2, -1, 2), zeta is a root of i,
  (1 + i)/sqrt(2) up to sign: s_1 negates i and sqrt(2), zeta -> -zeta^-1,
  and s_2 negates sqrt(2), zeta -> -zeta, so k = (3, 5).  In Q(zeta_12),
  d = (-3, -1, 3), zeta = i*zeta_6^-1: s_1 negates i and s_2 inverts zeta_6,
  so k = (7, 5).
- c_t when eta = eps_r (no class but (1, 0)).  s_t moves sqrt(d3), so
  N_{K/k_t}(eps_r) = N(eps_r) = lambda_3 and c_t = h*[lambda_3 = -1].
- c_t for the class (1, 1), which needs N(eps_r) = 1.  Its root is
  xi = c*rho*(1 + eps_r)*sqrt(d_j)/(n*s) for zeta = c*(rho/n)**2 and
  c*(Tr(eps_r) + 2)*d_j = s**2.  As (1 + eps_r)*s_t(1 + eps_r) =
  Tr(eps_r) + 2 and sqrt(d_j)*s_t(sqrt(d_j)) = +-d_j, N_{K/k_t}(xi) =
  +-c*N_{K/k_t}(rho)/n**2, with - exactly when s_t moves sqrt(d_j), the
  real branch's rule.  So c_t = v_t + h*[j not in (0, t)] for
  zeta^v_t = c*N_{K/k_t}(rho)/n**2.  When rho lies in k_t (1 + i with c = 2,
  n = 2, or zeta_3 with c = -1, n = 1) that is c*rho**2/n**2 = zeta, v_t = 1;
  otherwise it is c*N(rho)/n**2 = +-1 with the sign of c, since N(rho) > 0
  in an imaginary field: v_t = h*[c < 0].  In Q(zeta_12), rho = (1 + i)*
  zeta_3**2, c = -2, n = 2 and zeta = -i*zeta_3: N_{K/k_1}(rho) = 2*zeta_3
  gives -zeta_3 = zeta^10 and N_{K/k_2}(rho) = 2i gives -i = zeta^9.
- The class (0, 1) cannot occur (see the unit search above).

Both counts are memoised per signature (functools.cache), a tuple of small
ints: for a real K, (lambda, q_K, the square classes, their chi), read by
_real_h1_fraction; for an imaginary K, (w, k1, k2, c1, c2), read by
_cocycle_count and _h1_roots_of_unity.  The signatures are finitely many:
lambda lies in {+-1}^3, q_K in (1, 2, 4), the classes are a subset of the
seven nonzero exponent triples with two bits of chi each, w is 2, 4, 6, 8 or
12 and k_t, c_t lie below w.  After the 2,284 fields of bound 60 the tables
hold 39, 12 and 3 entries.  Each field still reads its own signature, so
_real_characters and _imaginary_cocycle_data raise on that field's own call;
the divisibility of the real count is checked outside the memo, and
functools.cache stores no exception.
"""

from __future__ import annotations

import itertools
from functools import cache, reduce
from math import isqrt, prod
from operator import mul

from .biquadratic import BiquadField
from .errors import InconsistencyError, bit_lengths


def _int_sqrt(n: int) -> int | None:
    """The root r >= 0 with r*r == n, or None."""
    r = isqrt(max(n, 0))
    return r if r * r == n else None


def _k1_sqrt(x: int, y: int, d1: int) -> tuple[int, int] | None:
    """Integers (r0, r1) with (r0 + r1*sqrt(d1))**2 == x + y*sqrt(d1), or None
    when x + y*sqrt(d1) is not a square in k1.  Shared by both routes: the
    denesting of integral_square_root and the eps1*eps2*eps3 test of
    unit_structure."""
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
    m = K.cofactors[2]
    c0, c1, c2, c3 = (sum(map(mul, eta, col)) for col in K.basis_columns)
    f = 4 * m * m
    root = _relative_sqrt(f * c0, f * c1, f * c2, 4 * m * c3, d1, d2)
    if root is None:
        return None
    a0, a1, b0, b1 = root
    # the scale must be positive: 4*m would return -xi when m < 0
    xi = tuple(K.from_radicals((a0, a1, b0, b1 * m), 4 * abs(m)))
    if K.mul_basis_coords(xi, xi) != list(eta):
        raise InconsistencyError(f"the denested square root of an element of {K.d} with "
                                 f"{bit_lengths(eta)}-bit coordinates does not square back")
    return xi


class UnitStructure:
    """What the unit search finds: the unit index q_K, the order of mu_K,
    the subfield norm signs and the number of norm +1 real subfield units."""

    def __init__(self, q_k: int, mu_order: int, lam: tuple[int, int, int], nu_k: int,
                 square_class_roots: dict | None = None, radical_index: dict | None = None):
        self.q_k, self.mu_order, self.lam, self.nu_k = q_k, mu_order, lam, nu_k
        # exact roots of the subfield-unit products that are squares in K, keyed
        # by (a1, a2, a3) exponent triples (real K) or (torsion_exp, eps_exp)
        # pairs (imaginary K)
        self.square_class_roots = {} if square_class_roots is None else square_class_roots
        # the radical index j of each root that a square witness wrote down
        self.radical_index = {} if radical_index is None else radical_index

    def __repr__(self) -> str:
        # no root: str() of one with more than 4,300 digits raises ValueError
        return (f"UnitStructure(q_k={self.q_k}, mu_order={self.mu_order}, "
                f"lam={self.lam}, nu_k={self.nu_k})")


def _checked_root(K: BiquadField, x, n: int, eta) -> tuple[int, ...]:
    """xi = x/n, which must be integral and square back to eta."""
    xi = K.divide(x, n)
    if K.mul_basis_coords(xi, xi) != eta:
        raise InconsistencyError(f"the closed-form square root of an element of {K.d} with "
                                 f"{bit_lengths(eta)}-bit coordinates does not square back")
    return tuple(xi)


# sqrt(d_j) in radical coordinates over (1, sqrt(d1), sqrt(d2), sqrt(d3)), d_0 = 1
_SQRT_D = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))


def _square_witness(K: BiquadField, r: int) -> tuple[int, int] | None:
    """The one (j, s) with r*d_j == s**2 for d_j in (1, d1, d2, d3), None if r is no square in K."""
    for j, d in enumerate((1, *K.d)):
        n = r * d
        if n > 0 and (s := isqrt(n)) * s == n:
            return j, s
    return None


def _witness_root(K: BiquadField, witness, x_factors, n: int, eta_factors) -> tuple[int, ...]:
    """The root x*sqrt(d_j)/(n*s) of eta = prod(eta_factors) = x**2/(n**2*r),
    x = prod(x_factors), for (j, s) the square witness of r.  The callers form
    the factors in K only once r has a witness."""
    j, s = witness
    x = reduce(K.mul_basis_coords, [*x_factors, K.from_radicals(_SQRT_D[j])] if j else x_factors)
    return _checked_root(K, x, n * s, reduce(K.mul_basis_coords, eta_factors))


def _all_minus_root(K: BiquadField) -> tuple[int, ...] | None:
    """The root of eta = eps1*eps2*eps3 in a real field with every
    lambda_i = -1, or None (module docstring): eta = (eta + eps1)**2/beta
    with beta = eps1*(2 + Tr_{K/k1}(eps2*eps3)) in k1, and beta is a square
    in K = k1(sqrt(d2)) exactly when beta or beta*d2 is a square in k1."""
    halves = []  # 2*eps_i = x_i + y_i*sqrt(d_i)
    for k in K.subfields:
        u, v = k.fundamental_unit
        halves.append((2 * u + v, v) if k.d % 4 == 1 else (2 * u, 2 * v))
    (x1, y1), (x2, y2), (x3, y3) = halves
    d1, d2 = K.d[0], K.d[1]
    # sqrt(d2)*sqrt(d3) = m*sqrt(d1), so 2*(2 + Tr_{K/k1} eps2*eps3) = p + q*sqrt(d1)
    p, q = 4 + x2 * x3, K.cofactors[0] * y2 * y3
    bx, by = x1 * p + d1 * y1 * q, x1 * q + y1 * p  # 4*beta
    for f in (1, d2):
        g = _k1_sqrt(f * bx, f * by, d1)
        if g is not None:
            break
    else:
        return None
    # gamma = g0 + g1*sqrt(d1) squares to 4*f*beta, and 1/gamma = gamma'/N(gamma),
    # so xi = 2*sqrt(f)*(eta + eps1)*gamma'/N(gamma)
    g0, g1 = g
    eps = [K.from_quad(i, k.fundamental_unit) for i, k in enumerate(K.subfields)]
    eta = reduce(K.mul_basis_coords, eps)
    factors = [[a + b for a, b in zip(eta, eps[0])], K.from_radicals((2 * g0, -2 * g1, 0, 0))]
    if f != 1:
        factors.append(K.from_radicals(_SQRT_D[2]))
    return _checked_root(K, reduce(K.mul_basis_coords, factors), g0 * g0 - d1 * g1 * g1, eta)


def _torsion_generator(K: BiquadField) -> tuple[int, int, int, tuple]:
    """Generator zeta of the subgroup of roots of unity generated by the
    subfield torsion units, with its order w, written as zeta = c*(rho/n)**2
    with c rational and rho integral: (w, c, n, rho), with rho given by its
    factors (i, (u, v)), integers u + v*omega_i of the subfields k_i, for
    _torsion_elements to form in K.  -1 = -1*1**2, i = 2*((1 + i)/2)**2,
    zeta_6 = -zeta_3**2 and zeta_12 = i*conj(zeta_6) = -2*((1 + i)*zeta_3**2/2)**2,
    with zeta_6 = omega = (1 + sqrt(-3))/2, zeta_3 = omega - 1 and
    zeta_3**2 = -omega."""
    at = {d: i for i, d in enumerate(K.d)}
    if -1 in at and -3 in at:
        return 12, -2, 2, ((at[-1], (1, 1)), (at[-3], (0, -1)))
    if -1 in at:
        return 4, 2, 2, ((at[-1], (1, 1)),)
    if -3 in at:
        return 6, -1, 1, ((at[-3], (-1, 1)),)
    return 2, -1, 1, ()


def _torsion_elements(K: BiquadField, c: int, n: int, rho) -> tuple[list[int], list[int]]:
    """(c*rho, zeta = c*(rho/n)**2) in K for the factors rho of _torsion_generator."""
    rho = reduce(K.mul_basis_coords, [K.from_quad(i, el) for i, el in rho], [1, 0, 0, 0])
    c_rho = [c * x for x in rho]
    return c_rho, K.divide(K.mul_basis_coords(c_rho, rho), n * n)


@cache
def _cocycle_count(w: int, k1: int, k2: int, c1: int = 0, c2: int = 0) -> int:
    """Number of (x, y) mod w with zeta^x * h, zeta^y * h a cocycle on (s1, s2),
    where s_t(zeta) = zeta^k_t and N_{K/k_t}(h) = zeta^c_t (h = 1 for c = 0)."""
    return sum(1 for x in range(w) for y in range(w)
               if (x * (1 + k1) + c1) % w == (y * (1 + k2) + c2) % w
               == (x + k1 * y + c1 - y - k2 * x - c2) % w == 0)


@cache
def _h1_roots_of_unity(w: int, k1: int, k2: int) -> int:
    """|H^1(G, mu)| for mu cyclic of order w, s_t acting by zeta -> zeta^k_t."""
    coboundaries = {((k1 - 1) * m % w, (k2 - 1) * m % w) for m in range(w)}
    return _cocycle_count(w, k1, k2) // len(coboundaries)


def _real_characters(K: BiquadField, us: UnitStructure) -> dict:
    """chi[a] = (chi_1(a), chi_2(a)), 1 meaning -1, on the square classes read,
    a1*a2 = 0: [j not in (0, t)] for j the radical index of the class's root."""
    chi = {(0, 0, 0): (0, 0)}
    for a in filter(lambda a: 0 in a[:2], us.square_class_roots):
        if (j := us.radical_index.get(a)) is None:
            raise InconsistencyError(f"the square class {a} of {K.d} has no radical index")
        chi[a] = int(j not in (0, 1)), int(j not in (0, 2))
    return chi


def _real_h1_order(K: BiquadField, us: UnitStructure) -> int:
    """|H^1(G, O_K^x)| of a real field, from its own characters (which raise
    on a class read with no radical index) and the memoised count over its
    signature; the count's divisibility is checked on every call."""
    chi = _real_characters(K, us)
    num, den = _real_h1_fraction(us.lam, us.q_k, tuple(us.square_class_roots),
                                 tuple(chi.items()))
    if num % den:
        raise InconsistencyError(f"|H^1(G, O_K^x)| = {num}/{den} for {K.d}")
    return num // den


@cache
def _real_h1_fraction(lam: tuple[int, int, int], q_k: int, classes: tuple,
                      chi_items: tuple) -> tuple[int, int]:
    """(|H^1(mu_K)| * |V| * 8, q_K * |delta(Z)|), whose quotient is |H^1(G,
    O_K^x)| of a real field with the norm signs lam, the unit index q_k, the
    square classes classes and the characters chi_items (module docstring)."""
    chi = dict(chi_items)
    found = {(0, 0, 0), *classes}

    def char(t: int, v) -> int:
        """chi_t (t = 1, 2) on the half-exponent vector v in L."""
        a = tuple(c & 1 for c in v)
        return (chi[a][t - 1] + sum((c - r) // 2 for i, (c, r) in enumerate(zip(v, a))
                                    if i != t - 1 and lam[i] == -1)) & 1

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
    return 32 * len(cocycles_mod_2), q_k * len(image)


def _imaginary_cocycle_data(K: BiquadField, us: UnitStructure) -> tuple[int, ...]:
    """(w, k1, k2, c1, c2) with s_t(zeta) = zeta^k_t and N_{K/k_t}(eta) =
    zeta^c_t (t = 1, 2) for the generators zeta of mu_K and eta of
    O_K^x / mu_K, read off K.d, lambda_3 and the square class with its
    radical index j (module docstring)."""
    w, h = us.mu_order, us.mu_order // 2
    # v_t: c*N_{K/k_t}(rho)/n**2 = zeta^v_t for zeta = c*(rho/n)**2
    if w == 8:  # Q(zeta_8), d = (-2, -1, 2): (1, 1) is no class, so v is not read
        k, v = (3, 5), None
    elif w == 12:  # Q(zeta_12), d = (-3, -1, 3)
        k, v = (7, 5), (10, 9)
    else:  # zeta = -1, or zeta lies in the subfield Q(sqrt(-1)) or Q(sqrt(-3))
        own = [d in (-1, -3) for d in K.d[:2]]
        c = _torsion_generator(K)[1]
        k = tuple(1 if o else w - 1 for o in own)
        v = tuple(1 if o else h * (c < 0) for o in own)
    if k[0] * k[1] % w != w - 1:
        raise InconsistencyError(f"s_1 s_2 does not invert the {w} roots of unity of {K.d}")
    if (1, 1) in us.square_class_roots:
        if (j := us.radical_index.get((1, 1))) is None:
            raise InconsistencyError(f"the square class (1, 1) of {K.d} has no radical index")
        c1, c2 = ((v[t - 1] + h * (j not in (0, t))) % w for t in (1, 2))
    else:  # eta = eps_r, which unit_structure certifies is no square in K
        c1 = c2 = h * (us.lam[2] == -1)
    return w, *k, c1, c2


def unit_cohomology_order(K: BiquadField) -> int:
    """|H^1(G, O_K^x)|, from the unit structure alone (module docstring)."""
    if K.is_real:
        return _real_h1_order(K, K.units)
    w, k1, k2, c1, c2 = _imaginary_cocycle_data(K, K.units)
    lifts = _cocycle_count(w, k1, k2, c1, c2) > 0
    return _h1_roots_of_unity(w, k1, k2) * (2 if lifts else 1)


# each nonempty subset of the three subfield units: its exponent triple
# (a1, a2, a3) and its indices
_SUBSETS = tuple(((m & 1, m >> 1 & 1, m >> 2), tuple(i for i in range(3) if m >> i & 1))
                 for m in range(1, 8))


def unit_structure(K: BiquadField) -> UnitStructure:
    """q_K, mu_K and the roots of the subfield-unit products that are
    squares in K, each decided by tests on rational integers, or for
    eps1*eps2*eps3 on an integer of one real subfield (module docstring)."""
    lam = tuple(k.lam if k.is_real else 0 for k in K.subfields)
    nu_k = sum(k.nu for k in K.subfields)
    roots, radical_index = {}, {}

    if K.is_real:
        plus = {i for i in range(3) if lam[i] == 1}
        for a, units in _SUBSETS:
            if plus.issuperset(units):
                # (1 + eps_i)**2 = eps_i*(Tr eps_i + 2), and 1 is the first basis element
                witness = _square_witness(K, prod(K.subfields[i].trace_plus_2 for i in units))
                if witness is not None:
                    if len(units) == 1 and witness[0] in (0, units[0] + 1):
                        raise InconsistencyError(f"the unit of Q(sqrt({K.d[units[0]]})) "
                                                 f"is a square in its own field")
                    eps = [K.from_quad(i, K.subfields[i].fundamental_unit) for i in units]
                    radical_index[a] = witness[0]
                    roots[a] = _witness_root(K, witness, [[e[0] + 1, *e[1:]] for e in eps],
                                             1, eps)
            elif lam == (-1, -1, -1) and len(units) == 3:
                if (xi := _all_minus_root(K)) is not None:
                    roots[a] = xi
            # any other product is not totally positive: a conjugate is negative
        mu_order = 2
        q_range = (1, 2, 4)
    else:
        w, c, n, rho = _torsion_generator(K)
        # the product of two d_i is the third times a square, so an imaginary
        # field has two negative d_i and its one real subfield, k_r, sorts last
        k = K.subfields[2]
        # (a, b) stands for zeta**a * eps_r**b, a square exactly when its
        # rational c**a * (Tr eps_r + 2)**b is; with N(eps_r) = -1 neither
        # eps_r nor zeta*eps_r is a square, and eps_r never is
        candidates = [((1, 0), c)]
        if k.lam == 1:
            if _square_witness(K, k.trace_plus_2) is not None:
                raise InconsistencyError(f"the unit of Q(sqrt({k.d})) is a square in its own field")
            candidates.append(((1, 1), c * k.trace_plus_2))
        for key, rational in candidates:
            if (witness := _square_witness(K, rational)) is None:
                continue
            radical_index[key] = witness[0]
            factors = [_torsion_elements(K, c, n, rho)]  # (x, eta) pairs
            if key[1]:
                eps_r = K.from_quad(2, k.fundamental_unit)
                factors.append(([eps_r[0] + 1, *eps_r[1:]], eps_r))
            x_factors, eta_factors = zip(*factors)
            roots[key] = _witness_root(K, witness, x_factors, n, eta_factors)
        # a root of the subfield torsion generator doubles the roots of unity
        mu_order = 2 * w if (1, 0) in roots else w
        q_range = (1, 2)

    q = len(roots) + 1
    if q not in q_range:
        raise InconsistencyError(f"unit index {q} outside {q_range} for {K.d}")
    return UnitStructure(
        q_k=q,
        mu_order=mu_order,
        lam=lam,
        nu_k=nu_k,
        square_class_roots=roots,
        radical_index=radical_index,
    )
