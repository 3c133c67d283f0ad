"""Quadratic fields Q(sqrt(d)): fundamental units by continued fractions,
ideal lattices in 2x2 Hermite form, principality testing, and the order of
the group of strongly ambiguous ideal classes both by the closed formula
2**(s-1-nu) and as the index of the principal products of ramified primes.

An integer of Q(sqrt(d)) is a pair (u, v) standing for u + v*omega, with
omega = sqrt(d), or (1 + sqrt(d))/2 when d = 1 mod 4; this is the one
representation the program uses.  omega_norm gives its norm, and
radical_coords writes it as (x + y*sqrt(d))/den for the output record.

Principality of an integral ideal is decided through the classical
correspondence with binary quadratic forms of discriminant Delta:
the ideal [A, B + C*omega] is principal exactly when its norm form
represents +1 or -1.  For imaginary fields the form is positive definite
and the search region is finite; for real fields we walk the cycle of
reduced indefinite forms, where a unit value is represented primitively
iff it occurs as a leading coefficient of the cycle (any |m| < sqrt(Delta)/2
does).  Both routes return an exact generator and both "nonprincipal"
verdicts are complete, never heuristic.

The strongly ambiguous classes are counted off the coset book that
ambiguous_classes returns, which first sieves each product of ramified
primes by Gauss's genus characters.
For an odd prime q dividing Delta, 4a*f(x, y) = (2ax + bb*y)^2 - Delta*y^2
is a square mod q, so every value of a form f = (a, bb, c) prime to q has
the same Legendre symbol chi_q(f); a primitive form has such a value among
a, c and a + bb + c.  The values of the norm form of an ideal are the
N(alpha)/N(ideal) for alpha in it, so chi_q is multiplicative on ideals,
and the form of a principal ideal represents +1, or -1 in a real field.
An ideal whose characters are neither those of +1 nor, for a real field,
those of -1 is therefore nonprincipal: the rejection is a proof from a few
exact Legendre symbols.  The characters of a product are the XOR of those
of its primes, so the products that pass form a subgroup, found by one
elimination over F_2 (cosets.f2_kernel), and only its cosets are decided
by the complete search above.

Subfield data is computed once per process.  quadratic_field interns each
field by its squarefree d, so its fundamental unit is found once on both
routes, and so are its sieve tables, each a mask with bit t for the t-th
odd prime l below 300 (_SIEVE_PRIMES), at the l where d is a nonzero
square: sieve_mask, those l, from which BiquadField.residue_maps takes its
primes; twist_mask, the non-residue bits of the twist generator under the
table root of d mod l; and ramified_masks, the non-residue and zero bits
of each ramified prime.  The oracle's characters are those of -1, of
subfield units and of rational primes, so BiquadField.generator_masks
reads them off these tables for every field, with no residue map.  The
field keeps the results of its searches in k.searched: the completed book
of ambiguous_classes and the generator_above_2.  Each is found once, and
charged to every budget that asks for it at the units that search spent
(errors.Budget.cached).  Emptying _FIELDS drops the table's hold on them,
but a BiquadField built before keeps its three subfields, and with them
their fundamental units, sieve tables and k.searched: only a field built
after the clear starts cold.
"""

from __future__ import annotations

from collections import namedtuple
from math import gcd, isqrt, prod

from .cosets import CosetBook, f2_kernel
from .errors import Budget, DomainError, InconsistencyError, InvalidInputError, bit_lengths
from .intmath import factorize
from .lazy import cached_attribute

# the odd primes below 300, in order: bit t of each sieve table of
# QuadraticField and of each character mask below 300 stands for
# _SIEVE_PRIMES[t], and _SQUARE_ROOTS maps each l to a table that holds
# exactly the nonzero squares mod l, each with a root
_SIEVE_PRIMES = tuple(p for p in range(3, 300, 2)
                      if all(p % q for q in range(3, isqrt(p) + 1, 2)))
_SQUARE_ROOTS = {l: {x * x % l: x for x in range(1, l // 2 + 1)} for l in _SIEVE_PRIMES}


def sieve_bits(mask: int):
    """(1 << t, _SIEVE_PRIMES[t]) for each set bit t of mask, lowest first."""
    while mask:
        bit = mask & -mask
        mask ^= bit
        yield bit, _SIEVE_PRIMES[bit.bit_length() - 1]


def sieve_symbols(x: int, mask: int) -> tuple[int, int]:
    """The Legendre symbols of the rational integer x at the primes of the
    set bits of mask, as (the bits t at which x is a non-residue mod
    _SIEVE_PRIMES[t], the bits t at which it is 0); each symbol is a lookup
    in the table of nonzero squares."""
    nonresidue = zero = 0
    for bit, l in sieve_bits(mask):
        r = x % l
        if not r:
            zero |= bit
        elif r not in _SQUARE_ROOTS[l]:
            nonresidue |= bit
    return nonresidue, zero


# the non-residue bits of -1: the sieve primes l = 3 mod 4
MINUS_ONE_MASK = sieve_symbols(-1, (1 << len(_SIEVE_PRIMES)) - 1)[0]


class QuadraticField:
    """Q(sqrt(d)) for squarefree d not in {0, 1}; quadratic_field keeps one
    per field and process, and with it the results of its searches."""

    def __init__(self, d: int, _primes: list[int] | None = None):
        # the squarefree part of d is the product of its primes of odd
        # exponent, passed as _primes by a caller that knows them; they
        # ramify, and so does 2 when it is 3 mod 4
        primes = [p for p, e in factorize(d).items() if e % 2] if _primes is None else _primes
        self.d = prod(primes, start=1 if d > 0 else -1)
        if self.d == 1:
            raise InvalidInputError(f"d={d} gives a degenerate quadratic field")
        self.delta = self.d if self.d % 4 == 1 else 4 * self.d
        self.is_real = self.d > 0
        self.ramified_primes = sorted(primes + [2] if self.d % 4 == 3 else primes)
        self.s = len(self.ramified_primes)
        # "book" and "gamma" -> (result, units), filled by errors.Budget.cached
        self.searched: dict[str, tuple] = {}

    @cached_attribute
    def fundamental_unit(self) -> tuple[int, int]:
        """The unit > 1, as (u, v), generating the units modulo +-1 (real fields
        only)."""
        if not self.is_real:
            raise DomainError("imaginary quadratic fields have no fundamental unit")
        return _cf_fundamental_unit(self)

    @cached_attribute
    def sieve_mask(self) -> int:
        """Bit t set exactly when d is a nonzero square mod _SIEVE_PRIMES[t]."""
        return sum(1 << t for t, l in enumerate(_SIEVE_PRIMES) if self.d % l in _SQUARE_ROOTS[l])

    @cached_attribute
    def trace_plus_2(self) -> int:
        """Tr(eps) + 2 for the fundamental unit eps (real fields only).  When
        N(eps) = +1, (1 + eps)**2 = eps*(Tr(eps) + 2), so eps is this
        rational integer times a square (units.unit_structure).  Certified
        here, once per field, by (Tr eps)**2 - 4*N(eps) = (eps - eps')**2
        = v**2*Delta for eps = u + v*omega: nothing downstream can tell a
        wrong trace from one that is no square."""
        u, v = self.fundamental_unit
        t = 2 * u + (v if self.d % 4 == 1 else 0) + 2
        if (t - 2) ** 2 - 4 * self.lam != v * v * self.delta:
            raise InconsistencyError(f"{t} is not Tr(eps) + 2 in Q(sqrt({self.d}))")
        return t

    @cached_attribute
    def lam(self) -> int:
        """Norm of the fundamental unit for real fields, else 0."""
        return omega_norm(self.d, *self.fundamental_unit) if self.is_real else 0

    @cached_attribute
    def nu(self) -> int:
        return 1 if self.is_real and self.lam == 1 else 0

    def twist_generator(self) -> tuple[int, int]:
        """The twist generator: eps in a real field, else the generator of
        the roots of unity: omega, which is i or zeta_6, or -1."""
        if self.is_real:
            return self.fundamental_unit
        return (0, 1) if self.d in (-1, -3) else (-1, 0)

    @cached_attribute
    def twist_mask(self) -> int:
        """The non-residue bits of the twist generator over the bits t of
        sieve_mask, under the map omega -> r, or -> (1 + r)/2 when
        d = 1 mod 4, mod l = _SIEVE_PRIMES[t], for the root r of d in the
        table _SQUARE_ROOTS[l]; each r*r = d mod l is certified, or
        InconsistencyError is raised.  With -r for r the mask of eps moves
        only when N(eps) = -1, and then exactly at the l = 3 mod 4, as
        eps' = -1/eps (BiquadField.generator_masks)."""
        u, v = self.twist_generator()
        d, half, bits = self.d, self.d % 4 == 1, 0
        for bit, l in sieve_bits(self.sieve_mask):
            squares = _SQUARE_ROOTS[l]
            r = squares[d % l]
            if (r * r - d) % l:
                raise InconsistencyError(f"the root {r} of {d} mod {l} does not square back")
            if (u + v * ((1 + r) * (l + 1) >> 1 if half else r)) % l not in squares:
                bits |= bit
        return bits

    @cached_attribute
    def ramified_masks(self) -> dict[int, tuple[int, int]]:
        """sieve_symbols of each ramified p over the bits of sieve_mask:
        (non-residue bits, zero bits)."""
        return {p: sieve_symbols(p, self.sieve_mask) for p in self.ramified_primes}

    def __repr__(self):
        return f"QuadraticField({self.d})"

    def __eq__(self, other):
        return isinstance(other, QuadraticField) and other.d == self.d

    def __hash__(self):
        return hash(("quad", self.d))


_FIELDS: dict[int, QuadraticField] = {}  # squarefree d -> its one field


def quadratic_field(d_raw: int, _primes: list[int] | None = None) -> QuadraticField:
    """Q(sqrt(d_raw)), one object per field and process; _primes as for
    QuadraticField.  A key of the table is squarefree, so a d_raw found
    there is the field's own d and is not factored."""
    if d_raw == 0:
        raise InvalidInputError("d must be nonzero")
    k = _FIELDS.get(d_raw)
    if k is None:
        k = QuadraticField(d_raw, _primes)
        k = _FIELDS.setdefault(k.d, k)
    return k


def omega_norm(d: int, u: int, v: int) -> int:
    """N(u + v*omega) in Q(sqrt(d))."""
    if d % 4 == 1:
        return u * u + u * v - (d - 1) // 4 * v * v
    return u * u - d * v * v


def radical_coords(d: int, u: int, v: int) -> tuple[int, int, int]:
    """u + v*omega as (x + y*sqrt(d))/den in lowest terms, den in {1, 2}."""
    if d % 4 != 1:
        return u, v, 1
    if v % 2:
        return 2 * u + v, v, 2
    return u + v // 2, v // 2, 1


def _cf_fundamental_unit(k: QuadraticField) -> tuple[int, int]:
    """Fundamental unit (u, v), u + v*omega, in one pass over one period of
    the continued fraction of omega = (D mod 2 + sqrt(D))/2, D = Delta.  The
    state x1 = (P + sqrt(D))/Q after the first digit is reduced, so its
    expansion is purely periodic, with every Q > 0 and finitely many states.
    The product M of the digit matrices, multiplied up until the state
    returns to x1, fixes x1, and M10*x1 + M11 is the smallest unit > 1 of
    the order of discriminant D; its bottom row is all the walk keeps.
    """
    D = k.delta
    s = isqrt(D)
    if s * s == D:
        raise InconsistencyError(f"the discriminant {D} of Q(sqrt({k.d})) is a square")
    a = ((D & 1) + s) // 2  # the first digit of omega, not part of the period
    P = 2 * a - (D & 1)
    Q = (D - P * P) // 2  # exact, as P = D mod 2, and positive, as P <= s
    x1 = P, Q
    m10, m11 = 0, 1
    while True:
        a = (P + s) // Q
        m10, m11 = m10 * a + m11, m10
        P = a * Q - P
        Q, r = divmod(D - P * P, Q)
        if r or Q <= 0:
            raise InconsistencyError(f"the continued fraction of Q(sqrt({k.d})) broke down")
        if (P, Q) == x1:
            break
    # unit = m10 * (P + sqrt(D))/Q + m11, with sqrt(D) = 2*omega - D mod 2
    u, ru = divmod(m10 * (P - (D & 1)) + m11 * Q, Q)
    v, rv = divmod(2 * m10, Q)
    x, y, _ = radical_coords(k.d, u, v)
    if ru or rv or abs(omega_norm(k.d, u, v)) != 1 or x <= 0 or y <= 0:
        raise InconsistencyError(
            f"u + v*omega with {bit_lengths((u, v))}-bit u/v is not a unit > 1 of Q(sqrt({k.d}))")
    return u, v


# ---------------------------------------------------------------------------
# Ideals as 2x2 Hermite-form lattices over the basis (1, omega)
# ---------------------------------------------------------------------------


class QuadIdeal(namedtuple("QuadIdeal", "field a b c")):
    """Integral ideal with Z-basis (A, B + C*omega); norm A*C."""

    __slots__ = ()

    @property
    def norm(self) -> int:
        return self.a * self.c

    def basis_elements(self) -> tuple[tuple[int, int], tuple[int, int]]:
        return (self.a, 0), (self.b, self.c)

    def contains(self, el: tuple[int, int]) -> bool:
        u, v = el
        if v % self.c:
            return False
        u -= (v // self.c) * self.b
        return u % self.a == 0

    def content_and_primitive(self) -> tuple[int, "QuadIdeal"]:
        if gcd(gcd(self.a, self.b), self.c) != self.c:
            raise InconsistencyError(f"ideal HNF {self} must have c | a and c | b")
        return self.c, QuadIdeal(self.field, self.a // self.c,
                                 (self.b // self.c) % (self.a // self.c), 1)


def _minpoly_double_root(d: int, p: int) -> int:
    """The double root mod ramified p of the minimal polynomial of omega:
    (p + 1)/2, which is 1/2, for x^2 - x - (d - 1)/4; for x^2 - d, 0 at
    p | d and 1 at p = 2 with d odd."""
    if d % 4 == 1:
        return (p + 1) // 2
    return d & 1 if p == 2 else 0


def ramified_product(k: QuadraticField, primes) -> QuadIdeal:
    """The product of the primes above distinct ramified primes, in closed
    form [m, b + omega]: m is the product of the p, and b = -r_p mod p for
    the double root r_p of the minimal polynomial of omega, joined by CRT."""
    m, b = 1, 0
    for p in primes:
        if p not in k.ramified_primes:
            raise DomainError(f"{p} is not ramified in Q(sqrt({k.d}))")
        r = _minpoly_double_root(k.d, p)
        b += m * ((-r - b) * pow(m, -1, p) % p)
        m *= p
    # the certificate: [m, b + omega] is an ideal, and the only ideal whose
    # norm is a squarefree product of ramified primes is their product
    _ideal_form(k, m, b)
    return QuadIdeal(k, m, b, 1)


def prime_above(k: QuadraticField, p: int) -> QuadIdeal:
    """The (unique) prime ideal over a ramified prime p."""
    return ramified_product(k, (p,))


# ---------------------------------------------------------------------------
# Principality via binary quadratic forms
# ---------------------------------------------------------------------------


def _ideal_form(k: QuadraticField, a: int, b: int) -> tuple[int, int, int]:
    """Norm form of the primitive ideal [a, b + omega]; discriminant Delta."""
    bb = 2 * b + 1 if k.d % 4 == 1 else 2 * b
    num = bb * bb - k.delta
    if num % (4 * a):
        raise InconsistencyError(f"[{a}, {b} + omega] is not an ideal of Q(sqrt({k.d}))")
    return a, bb, num // (4 * a)


def _form_characters(form: tuple[int, int, int], odd_primes: list[int]) -> int:
    """Genus characters of a primitive form of discriminant Delta, for odd
    primes q dividing Delta: bit j is set when chi_q, the Legendre symbol of
    a value prime to q (a, else c, else a + bb + c), is -1."""
    a, bb, c = form
    bits = 0
    for j, q in enumerate(odd_primes):
        m = a if a % q else c if c % q else a + bb + c
        if m % q == 0:
            raise InconsistencyError(f"the form {form} is not primitive at {q}")
        if pow(m, q >> 1, q) != 1:
            bits |= 1 << j
    return bits


def _definite_unit_representation(form: tuple[int, int, int]) -> tuple[int, int] | None:
    """Solve a x^2 + b x y + c y^2 = 1 for a positive definite form."""
    a, b, c = form
    disc = b * b - 4 * a * c
    if disc >= 0 or a <= 0:
        raise InconsistencyError(f"the form {form} is not positive definite")
    ymax = isqrt(4 * a // -disc)
    for y in range(-ymax, ymax + 1):
        dx = disc * y * y + 4 * a
        if dx < 0:
            continue
        t = isqrt(dx)
        if t * t != dx:
            continue
        for num in (-b * y + t, -b * y - t):
            if num % (2 * a) == 0:
                return num // (2 * a), y
    return None


def _is_reduced_indefinite(a: int, b: int, c: int, delta: int, s: int) -> bool:
    if b <= 0 or b > s:
        return False
    t = 2 * abs(a)
    if delta <= (t - b) * (t - b) and t > b:
        return False
    return delta < (t + b) * (t + b)


def _rho_step(a: int, b: int, c: int, delta: int, s: int) -> tuple[tuple[int, int, int], int]:
    """One reduction/cycle step (a,b,c) -> (c, r, c'), with the matrix column
    multiplier m of [[0,-1],[1,m]]."""
    ac = abs(c)
    if ac > s:
        r = (-b) % (2 * ac)
        if r > ac:
            r -= 2 * ac
    else:
        r = s - ((s + b) % (2 * ac))
    num = r * r - delta
    if num % (4 * c) or (b + r) % (2 * c):
        raise InconsistencyError(f"the step from the form {(a, b, c)} is not integral")
    return (c, r, num // (4 * c)), (b + r) // (2 * c)


def _indefinite_unit_representation(
    form: tuple[int, int, int], delta: int, budget: Budget
) -> tuple[int, int] | None:
    """Solve a x^2 + b x y + c y^2 = +-1 for an indefinite form, by walking
    the cycle of reduced forms with the change of basis tracked."""
    a, b, c = form
    s = isqrt(delta)
    u00, u01, u10, u11 = 1, 0, 0, 1
    steps = 0
    while not _is_reduced_indefinite(a, b, c, delta, s):
        (a, b, c), m = _rho_step(a, b, c, delta, s)
        u00, u01, u10, u11 = u01, -u00 + m * u01, u11, -u10 + m * u11
        steps += 1
        budget.charge()
        if steps >= 10_000:
            raise InconsistencyError(f"reduction of the form {form} did not terminate")

    start = (a, b, c)
    while True:
        if abs(a) == 1:
            return u00, u10
        (a, b, c), m = _rho_step(a, b, c, delta, s)
        u00, u01, u10, u11 = u01, -u00 + m * u01, u11, -u10 + m * u11
        budget.charge()
        if (a, b, c) == start:
            return None


def principal_generator_quad(ideal: QuadIdeal,
                             budget: Budget | None = None) -> tuple[int, int] | None:
    """Exact generator (u, v) of the ideal, or None when provably nonprincipal;
    no budget means no limit.  A lattice that is not an ideal fails
    content_and_primitive or _ideal_form."""
    if budget is None:
        budget = Budget()
    k = ideal.field
    content, prim = ideal.content_and_primitive()
    form = _ideal_form(k, prim.a, prim.b)
    if k.is_real:
        xy = _indefinite_unit_representation(form, k.delta, budget)
    else:
        xy = _definite_unit_representation(form)
    if xy is None:
        return None
    x, y = xy
    gen = content * (x * prim.a + y * prim.b), content * y
    if abs(omega_norm(k.d, *gen)) != ideal.norm or not ideal.contains(gen):
        raise InconsistencyError(
            f"the element with {bit_lengths(gen)}-bit coordinates does not generate the ideal {ideal}")
    return gen


# ---------------------------------------------------------------------------
# Strongly ambiguous classes
# ---------------------------------------------------------------------------


def polya_order_quad(k: QuadraticField) -> int:
    """Order of the group of strongly ambiguous classes: 2**(s - 1 - nu)."""
    return 2 ** (k.s - 1 - k.nu)


def _subset_ideal(k: QuadraticField, mask: int) -> QuadIdeal:
    """The product of the ramified primes of k at the set bits of mask, bit
    i for k.ramified_primes[i]."""
    return ramified_product(k, [p for i, p in enumerate(k.ramified_primes) if mask >> i & 1])


def _genus_kernel(k: QuadraticField) -> list[int]:
    """A basis of the masks of H: the kernel of the genus map, which sends
    each ramified p to the character vector of the form of [p, b + omega],
    modulo the vectors a principal ideal can have: that of +1, and that of
    -1 in a real field (bit j set when q_j = 3 mod 4)."""
    odd = [q for q in k.ramified_primes if q != 2]
    minus_one = sum(1 << j for j, q in enumerate(odd) if q % 4 == 3)
    return f2_kernel(([(0, minus_one)] if k.is_real else []) + [
        (1 << i, _form_characters(_ideal_form(k, p, -_minpoly_double_root(k.d, p) % p), odd))
        for i, p in enumerate(k.ramified_primes)])


def ambiguous_classes(k: QuadraticField, budget: Budget) -> CosetBook:
    """The completed book of the principal products of ramified primes of
    k, built once per process and charged to budget at the units its build
    spent (errors.Budget.cached).

    Squares of ramified primes are rational, so the 2**s products with
    exponents 0/1 generate every strongly ambiguous class.  A product is
    named by its mask, bit i for the i-th prime; the masks form
    G = (Z/2)**s under XOR, and the book decides which masks, i.e. which
    symmetric differences of two products, are principal.  The book packs
    a mask as it is, so its reduced vectors are the least masks of their
    cosets.  The product over a mask is written down in closed
    form by ramified_product, [m, b + omega] with m the product of the
    primes and b = -r_p mod each p, and certified by _ideal_form: it is an
    ideal of squarefree norm m, so it is the product.  The book starts with
    the mask of (sqrt(d)), the product of the primes dividing d.

    When that leaves masks undecided, the book decides only the kernel H
    of the genus map (see the module docstring), the masks whose character
    vector is that of +1, or of -1 in a real field: a subgroup, found by
    elimination over F_2 on the vectors of the primes.  Every mask outside
    H is nonprincipal by Gauss's genus characters, with no ideal, no search
    and no budget unit; H is decided one mask per coset of P, in increasing
    order of mask, each by principal_generator_quad.  So each verdict is a
    finite computation completed for its coset: a few Legendre symbols, or
    a complete search.
    """
    def build() -> CosetBook:
        book = CosetBook(k.s - 1, 2, lambda mask: principal_generator_quad(
            _subset_ideal(k, mask), budget) is not None)
        mask = sum(1 << i for i, p in enumerate(k.ramified_primes) if k.d % p == 0)
        ideal = _subset_ideal(k, mask)
        root = (-1, 2) if k.d % 4 == 1 else (0, 1)  # sqrt(d) = 2*omega - 1 or omega
        # an element of the ideal whose norm is +-N(ideal) generates it
        if not ideal.contains(root) or abs(omega_norm(k.d, *root)) != ideal.norm:
            raise InconsistencyError(f"sqrt({k.d}) does not generate {ideal}")
        book.add_principal(mask)
        if book.order < 1 << k.s:
            book.decide(_genus_kernel(k))
        book.complete = True
        return book

    return budget.cached(k.searched, "book", build)


def generator_above_2(k: QuadraticField, budget: Budget) -> tuple[int, int] | None:
    """A generator of the prime of k above a ramified 2, or None when it is
    nonprincipal: one search per process, charged to budget at its units
    (errors.Budget.cached)."""
    return budget.cached(k.searched, "gamma",
                         lambda: principal_generator_quad(prime_above(k, 2), budget))


def ambiguous_oracle_quad(k: QuadraticField, budget: Budget | None = None) -> int:
    """Number of strongly ambiguous classes, the cosets of the principal
    masks P in G = (Z/2)**s: |G : P| = 2**s / |P| from the completed book.
    Uses no closed formula, so it independently checks polya_order_quad.  No
    budget means no limit."""
    return (1 << k.s) // ambiguous_classes(k, Budget() if budget is None else budget).order
