"""Ideal lattices of a biquadratic field and the brute-force ambiguous-class
oracle.

An integral ideal is a rank-4 sublattice of the ring of integers, stored in
row Hermite normal form over the integral basis; the norm is the lattice
index, i.e. the determinant.  The radical of p*O_K is written down in closed
form from the prime above p in a quadratic subfield, or, for a totally
ramified 2, as the kernel of x -> N(x) mod 2 (see prime_radical).

Principality testing descends to the quadratic subfields.  For an ideal a of
norm n with Galois group {1, s1, s2, s3}, the relative norm ideal
b_i = N_{K/k_i}(a) = (a * s_i(a)) cap O_{k_i} has norm n in k_i.  The
intersection is one integer Hermite form: O_{k_i} = Z + Z*omega_i lies in
O_K through the basis coordinates of omega_i, and the rows (omega_i, 1, 0),
(1, 0, 1) and (r, 0, 0) for r in a * s_i(a) span a lattice of Z^6 whose
vectors (0, u, v) are exactly the u*omega_i + v in a * s_i(a).  The last two
rows of its Hermite form are therefore the canonical basis of b_i.  If some
b_i is nonprincipal then a is nonprincipal.  Otherwise pick generators
tau_i of b_i; for any generator alpha of a, N_{K/k_i}(alpha) is also a
generator of b_i, and the three relative norms multiply to
tau_1 tau_2 tau_3 = N(alpha) * alpha^2 = +-n * alpha^2.  Unit ambiguity in
each tau_i is a full unit of k_i and contributes a unit square to the
product after adjusting by a twist unit u_i: +-1 or +-eps_i (real k_i), 1
or the subfield root of unity (imaginary k_i), which cover the unit classes
modulo squares.  So a is principal iff g*u / n is the square of an element
of a with the right norm for g = tau_1 tau_2 tau_3 and some product
u = u_1 u_2 u_3.  The distinct products u depend only on K, so
BiquadField.unit_twists builds them once per field, 16 for real K and 4 to
16 for imaginary K.  The budget is charged one unit per candidate.

Most candidates are refuted before they are formed, by a sieve of
quadratic characters.  BiquadField.residue_maps holds reductions
O_K -> F_l, one modulo a prime above each odd prime l below 300 that
splits completely in K and divides none of d1, d2, and when fewer than
max(8, s_K + 4) split there, above primes l = 3 mod 4 past 300 up to that
many: one bit for each unknown of the oracle's table below, the s_K
ramified primes and at most four twist generators.  A reduction is a
ring map, so it sends squares to squares: a candidate whose image under one
of them is a non-residue is not a square in K.  That is a proof, not a
heuristic.  A character mask has one bit per map, the map's own: bit t for
the t-th odd prime below 300 (quadratic._SIEVE_PRIMES), the layout of the
subfields' sieve masks, and the bits after those for the maps past 300.
Each twist u carries the mask of its characters, the XOR of the masks of
-1 and of the subfield twist generators.  The characters of g / n are
those of n * tau_1 tau_2 tau_3, read off the subfield generators mod l, so
a refuted candidate costs no big-integer product.  A map that sends n * g
to 0 refutes nothing.  Each surviving candidate is settled by the exact
square-root test, and g is formed once, at the first of them.  So every
twist is either refuted by a ring map or settled by the root, and
"nonprincipal" stays a completed finite computation; the principal
direction is complete too.
g / n is integral, as b_1 b_2 b_3 = N(a) * a^2, so an n that does not
divide every coordinate of g means inconsistent generators and raises
InconsistencyError.

The oracle reads the same sieve from a table before any descent.  For a
vector with even v_2 the generators are (r, 0) (see below), so
g / n = r^3 / r^2 = r, a rational integer, and the candidates are r*u.  A
ring map sends r*u to r mod l times the image of u, so its character is the
Legendre symbol (r/l) times u's bit, and l divides no prime of r, so no map
sends r to 0.  The oracle reads the bits of each ramified p off
BiquadField.generator_masks, with those of -1 and of the subfield twist
generators.  Each of these is rational or a subfield unit, so below 300
its Legendre symbols depend on the subfield alone: generator_masks reads
them off tables each interned subfield keeps once per process, at the
bits of the field's maps, and builds no map; only a descent builds
residue_maps.  The even vectors form (Z/2)^s_K and their bits are the XOR
of the bits of the primes of r, a linear map to F_2 at the bits of the
maps, so the vectors whose bits match some twist mask form a subgroup T,
the preimage of the span of the masks of -1 and of the three twist
generators, found by one elimination over F_2.  T holds the even vectors
of P, and on every field of bound 60 that reads the table nothing else.
A vector outside T has no square candidate and is nonprincipal without a
descent; each coset of P that the table settles is charged the budget
units its descent would have charged, one per twist.  That is the per-candidate sieve read from a
table, so the verdict is the same completed finite computation, made once
for the whole coset.  Only T and the odd vectors are left to descents,
and of T one vector per coset of P (cosets.CosetBook.decide).

The oracle builds none of these lattices.  It descends only on radical
products that earlier verdicts leave undecided.  Before any descent it
marks principal the extension of a basis of the principal subgroup of each
quadratic subfield: A = (alpha) gives A*O_K = alpha*O_K.  Both oracle
counts rest on one fact: the prime P_i of k_i above a p that ramifies in
k_i extends to rad(p)^(e_p/2), i.e. to rad(p) when e_p = 2 and to rad(2)^2
when e_2 = 4.  That is ramification theory: P_i^2 = p*O_{k_i} and
ramification indices multiply, so when e_p = 2, K/k_i is unramified above
P_i and P_i*O_K is the product of the primes above p, and when e_2 = 4 it
is P^2 for the one prime P above 2.  The seeding reads only masks and these
images, no generator of P_i and no product in K.  quadratic._ideal_form
certifies that each [p, b + omega_i] of a subfield book is an ideal of
norm p, so it is P_i, and BiquadField certifies the embedding of each k_i
in K through the minimal polynomials of the omega rows, when the rows are
first written.
So every verdict is a completed descent, in K or in a subfield, a table of
characters read for a whole coset, or follows from such verdicts by the
group law; each subfield book starts with the mask of (sqrt(d)).  The same
fact puts (e_p/2)*u_p in the image of every p, so the kernel and cokernel of
the extension map are group orders read off the pivots of the books, with
no Hermite form.  The books hold exponent vectors packed into integers, and
P as a basis in echelon form (see AmbiguousIdealOracle and
cosets.CosetBook).  A subfield's book and gamma_i (below) depend on its d
alone, so each is computed once per process and kept on the interned
subfield (quadratic.ambiguous_classes, quadratic.generator_above_2), and
every field that reads one is charged the units its computation recorded
(errors.Budget.cached): a field's budget spent does not depend on what ran
before it.

A descent reads everything off the exponent vector of
a = prod_p rad(p)^v_p with 0 <= v_p < e_p.  As N(rad(p)) = p^(4/e_p),
N(a) = prod_p p^((4/e_p)*v_p).  Membership needs no lattice either: by the
same valuations xi is in rad(p) iff xi^e_p is in p*O_K, i.e. iff p divides
every basis coordinate of xi^e_p, and xi is in a iff xi is in rad(p) for
every p with v_p > 0 (see AmbiguousIdealOracle._descend).  The relative
norms are written down in closed form.  rad(p) is the product of all
primes above p, hence Galois-stable, and so is a.  Then
a * s_i(a) = a^2 = r * rad(2)^(2*eps) with r = prod_p p^floor(2*v_p/e_p)
and eps = 1 exactly when e_2 = 4 and v_2 is odd (e_p = 4 only for p = 2).
Since (r*L) cap O_{k_i} = r*(L cap O_{k_i}), and rad(2)^2 = P_2*O_K for the
prime P_2 of k_i above a totally ramified 2, b_i is r*O_{k_i} or r*P_2.  So
the descent is handed the generators of the b_i in closed form too: (r, 0),
or r*gamma_i for a generator gamma_i of P_2, which one search per subfield
decides (None when P_2 is nonprincipal).  So when some
gamma_i is None no vector with odd v_2 is principal, and the oracle records
that once instead of descending on each.  The closed form
is not trusted alone: every generator must still have norm +-N(a), and a
"principal" verdict still needs xi in a with |N(xi)| = N(a).

prime_radical, relative_norm_ideal and the lattice products they take are
the reference the tests check the oracle's membership test, relative-norm
generators and seed images against.  prime_radical raises unless one
lattice product holds: rad(p)^2 = p*O_K when e_p = 2, and rad(2)^2 = P*O_K
for the prime P above 2 of the first subfield when e_2 = 4.
"""

from __future__ import annotations

from math import prod

from .biquadratic import BiquadField
from .cosets import CosetBook, f2_kernel
from .errors import Budget, DomainError, InconsistencyError, InvalidInputError, bit_lengths
from .lazy import cached_attribute
from .linalg import hnf_contains, hnf_rows
from .quadratic import QuadIdeal, ambiguous_classes, generator_above_2, omega_norm, prime_above
from .units import integral_square_root


class IdealLattice:
    """Integral ideal as a 4x4 Hermite-form lattice over the integral basis."""

    __slots__ = ("field", "rows", "norm")

    def __init__(self, field: BiquadField, rows):
        self.field = field
        self.rows = tuple(tuple(r) for r in rows)
        if len(self.rows) != 4 or any(r[i] <= 0 or any(r[:i])
                                      for i, r in enumerate(self.rows)):
            raise InconsistencyError(f"ideal rows {self.rows} are not in Hermite form")
        self.norm = prod(r[i] for i, r in enumerate(self.rows))

    def __eq__(self, other):
        return (isinstance(other, IdealLattice)
                and self.field.d == other.field.d and self.rows == other.rows)

    def __hash__(self):
        return hash((self.field.d, self.rows))

    def __repr__(self):
        return f"IdealLattice(norm={self.norm}, rows={self.rows})"

    def contains(self, x) -> bool:
        """Membership of the element with integer basis coordinates x."""
        return hnf_contains(self.rows, x)

    def multiply(self, other: "IdealLattice") -> "IdealLattice":
        if self.field.d != other.field.d:
            raise InvalidInputError("ideals belong to different fields")
        K = self.field
        prod_rows = [K.mul_basis_coords(a, b) for a in self.rows for b in other.rows]
        lat = IdealLattice(K, hnf_rows(prod_rows, 4))
        if lat.norm != self.norm * other.norm:
            raise InconsistencyError(
                f"ideal norms must multiply: {self.norm} * {other.norm} != {lat.norm}")
        return lat

    def conjugate(self, t: int) -> "IdealLattice":
        """Image under sigma_t."""
        K = self.field
        return IdealLattice(K, hnf_rows([K.sigma(r, t) for r in self.rows], 4))


def rational_ideal(K: BiquadField, m: int) -> IdealLattice:
    if m == 0:
        raise InvalidInputError("the zero ideal is not a rank-4 lattice")
    m = abs(m)
    return IdealLattice(K, [[m if i == j else 0 for j in range(4)] for i in range(4)])


# ---------------------------------------------------------------------------
# Radicals of p*O_K
# ---------------------------------------------------------------------------


def prime_radical(K: BiquadField, p: int) -> IdealLattice:
    """rad(p*O_K), the product of the primes above a ramified p; satisfies
    rad**e_p = p*O_K.

    p ramifies in some k_i, the first such, with prime P_i = [p, b + omega_i]
    and P_i^2 = p*O_{k_i}.  When e_p = 2, K/k_i is unramified above p, so
    rad(p) = P_i*O_K, certified by rad^2 = p*O_K.  When e_2 = 4, the one
    prime P above 2 has residue field F_2 and v_2(N(x)) = v_P(x), so P is the
    kernel of the ring map x -> N(x) mod 2.  It is certified by one product,
    P^2 = P_i*O_K, which gives P^4 = P_i^2*O_K = 2*O_K.  Both certificates,
    and N(rad) = p^(4/e_p), raise InconsistencyError: rad(p) is the product
    of the g primes above p, each of norm p^f, and e_p*f*g = 4.
    """
    if p not in K.profile.primes:
        raise DomainError(f"{p} is unramified in the field {K.d}")
    e = K.profile.exponents[K.profile.primes.index(p)]
    eye = [[int(i == j) for j in range(4)] for i in range(4)]
    rows = [[p * x for x in u] for u in eye]
    i = next(i for i, k in enumerate(K.subfields) if p in k.ramified_primes)
    gen = K.from_quad(i, prime_above(K.subfields[i], p).basis_elements()[1])
    extended = IdealLattice(K, hnf_rows(rows + [K.mul_basis_coords(gen, u) for u in eye], 4))
    if e == 2:
        rad, square = extended, rational_ideal(K, p)
    else:
        rad = IdealLattice(K, hnf_rows(
            rows + [[-(K.norm(u) % 2), *u[1:]] for u in eye[1:]], 4))
        square = extended
    if rad.norm != p ** (4 // e):
        raise InconsistencyError(
            f"radical norm {rad.norm} != p^(4/e_p) = {p ** (4 // e)} for p={p}, field {K.d}")
    if rad.multiply(rad) != square:
        raise InconsistencyError(
            f"rad(pO_K)^2 != {'pO_K' if e == 2 else 'P_i*O_K'} for p={p}, field {K.d}")
    return rad


# ---------------------------------------------------------------------------
# Principality by relative-norm descent
# ---------------------------------------------------------------------------


def relative_norm_ideal(K: BiquadField, lat: IdealLattice, i: int) -> QuadIdeal:
    """N_{K/k_i}(a) = (a * sigma_i(a)) cap O_{k_i} as an ideal of the subfield,
    read off the last two rows (0, c, b) and (0, 0, a) of one Hermite form."""
    m = lat.multiply(lat.conjugate(i + 1))
    rows = [[*K.omega_rows[i], 1, 0], [1, 0, 0, 0, 0, 1]]
    rows += [[*r, 0, 0] for r in m.rows]
    H = hnf_rows(rows, 6)
    return QuadIdeal(K.subfields[i], H[5][5], H[4][5], H[4][4])


def principal_ideal_generator(K: BiquadField, n: int, gens, contains,
                              budget: Budget | None = None) -> tuple[int, ...] | None:
    """Basis coordinates of a generator of an ideal a of norm n > 1, or None
    when provably nonprincipal.  gens holds, for each subfield k_i in order,
    a generator (u, v) of N_{K/k_i}(a); contains(xi) decides xi in a for an
    xi with |N(xi)| = n.  No budget means no limit.

    Every generator must have |N_{k_i}(gen_i)| = n.  The candidates are
    g*u / n for g the product of the generators and u in K.unit_twists,
    tried in table order, and the budget is charged one unit per candidate,
    rejected or not.  A candidate is rejected, unformed, when its quadratic
    character under some map of K.residue_maps is -1: the character of
    g / n, which is that of n * g and is taken on the subfield generators,
    times that of u, which is a bit of u's mask.  A map that sends n * g to
    0 (l | n, or g in the prime above l) rejects nothing.  A ring map sends
    squares to squares, so a rejected candidate is not a square in K, and
    every other one is settled by the exact square root: "nonprincipal"
    stays a completed finite search.  g is formed only at the first
    candidate that survives.  g / n must be integral, as
    b_1 b_2 b_3 = N(a) * a^2; otherwise the generators are inconsistent and
    InconsistencyError is raised (see the module docstring)."""
    if budget is None:
        budget = Budget()
    for k, gi in zip(K.subfields, gens):
        norm = omega_norm(k.d, *gi)
        if abs(norm) != n:
            raise InconsistencyError(
                f"the relative norm generator of Q(sqrt({k.d})) with {bit_lengths(gi)}-bit "
                f"coordinates has a norm of {norm.bit_length()} bits, expected +-{n}")
    nonresidue, zero = K.character_masks([(list(enumerate(gens)), n)])[0]
    h = None  # g / n
    for u, mask in K.unit_twists:
        budget.charge()
        if (mask ^ nonresidue) & ~zero:
            continue  # g*u / n is a non-residue under some ring map
        if h is None:
            g = (1, 0, 0, 0)
            for i, gi in enumerate(gens):
                g = K.mul_basis_coords(g, K.from_quad(i, gi))
            if any(c % n for c in g):
                raise InconsistencyError(
                    f"the relative norm generators of {K.d} multiply to an element with "
                    f"{bit_lengths(g)}-bit coordinates, not in {n}*O_K")
            h = [c // n for c in g]
        # the denesting square root, which only the oracle takes
        xi = integral_square_root(K, K.mul_basis_coords(h, u))
        if xi is not None and abs(K.norm(xi)) == n and contains(xi):
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
    CosetBook builds from as few descents as it can, seeded with the
    extension of a basis of each subfield's principal subgroup (both counts
    rest on P_i*O_K = rad(p)^(e_p/2), by ramification theory; see the
    module docstring).
    The book holds each vector packed into one integer, mixed radix with the
    first prime most significant, so range(|G|) lists G in the order of
    itertools.product.  Only p = 2 can have e_p = 4 and it sorts first, so
    G = Z/e_2 + (Z/2)^(s-1): the low s - 1 bits add by XOR and the top digit
    mod e_2.  The book holds P as a basis in echelon form, so the first
    vector of each class is its reduced vector, and the book lists them
    without visiting G; the classes are counted as |G : P| without
    listing any.  It decides only what the tables leave (see _book):
    the vectors of T, and the odd vectors when every gamma_i exists.  A
    coset settled otherwise is still a completed finite computation: the
    ring maps of the descent's sieve, read once from the table for every
    candidate of every vector of the coset, or the search that found no
    gamma_i.
    A descent builds no lattice: N(a) = prod_p p^((4/e_p)*v_p), the
    relative-norm generators are in closed form, and a root xi is in rad(p)
    iff p divides every coordinate of xi^e_p (see _membership).
    The cokernel G / <im phi, P> and the kernel,
    |ker| = prod_i |Po(k_i)| * |P| / |<im phi, P>|, are group orders read
    off the pivots of P and of the subfield books, with no Hermite form.
    """

    def __init__(self, K: BiquadField, budget_units: int | None = None):
        self.K = K
        self.budget = Budget(budget_units)
        self.primes = K.profile.primes
        self.exponents = K.profile.exponents
        # the packed image (e_p/2)*u_p of P*O_K for the prime P above p of
        # a subfield in which p ramifies: rad(p) when e_p = 2 and rad(2)^2
        # when 2 is totally ramified
        n = len(self.primes)
        self._prime_images = {p: e // 2 << n - 1 - j
                              for j, (p, e) in enumerate(zip(self.primes, self.exponents))}

    def unpack(self, x: int) -> tuple[int, ...]:
        vec = []
        for e in reversed(self.exponents):
            x, v = divmod(x, e)
            vec.append(v)
        return tuple(reversed(vec))

    @cached_attribute
    def _subfield_books(self) -> list[CosetBook]:
        """The completed book of each subfield, from quadratic.ambiguous_classes."""
        return [ambiguous_classes(k, self.budget) for k in self.K.subfields]

    @cached_attribute
    def _book(self) -> CosetBook:
        """The book with every vector decided, and so complete.  P is
        seeded with the extension of a basis of each subfield's principal
        subgroup.  An even vector whose character bits match no twist mask
        is nonprincipal by the table; the book decides only T, the even
        vectors whose bits match one, one vector per coset of P, and only
        when the seed leaves even vectors undecided.  The
        cosets the table settles are charged K.twist_count units each, as
        their descents would be.  Then the odd vectors, when e_2 = 4: none
        is principal when some gamma_i is None, as its relative norms are
        r*P_2; otherwise the book descends on odd cosets until P holds an
        odd vector, and from then on every odd coset reduces to an even
        one."""
        n = len(self.primes)
        book = CosetBook(n - 1, self.exponents[0], lambda x: self._descend(self.unpack(x)))
        images = self._prime_images
        for k, sub in zip(self.K.subfields, self._subfield_books):
            for x in sub.basis():
                image = 0  # prime images have order 2, so they add by XOR
                for i, p in enumerate(k.ramified_primes):
                    if x >> i & 1:
                        image ^= images[p]
                book.add_principal(image)
        if book.order < 1 << n:  # the even vectors form (Z/2)^n
            kernel = self._table_kernel
            book.decide(kernel)
            self.budget.charge(self.K.twist_count * (((1 << n) - (1 << len(kernel))) // book.order))
        if self.exponents[0] == 4 and self._gammas is not None:
            if book.reduce(2 << n - 1):
                raise InconsistencyError(
                    f"P_2 is principal in every subfield of {self.K.d}, yet rad(2)^2 is not")
            for x in book.representatives():
                if x >> n - 1 & 1 and book.is_principal(x):
                    break
        book.complete = True
        return book

    @cached_attribute
    def _gammas(self) -> list[tuple[int, int]] | None:
        """A generator gamma_i of the certified prime P_2 of each subfield
        k_i above a totally ramified 2, or None at the first P_2 that is
        nonprincipal, with no search past it.  Each search is made once per
        process and kept on k_i (quadratic.generator_above_2)."""
        gammas = []
        for k in self.K.subfields:
            gamma = generator_above_2(k, self.budget)
            if gamma is None:
                return None
            gammas.append(gamma)
        return gammas

    def _relative_norm_generators(self, vec: tuple[int, ...]) -> list[tuple[int, int]]:
        """Generators of N_{K/k_i} of the radical product of vec, in closed
        form (see the module docstring), in subfield order: (r, 0) for
        r*O_{k_i}, and r*gamma_i for r*P_2 when rad(2) is left over, which
        needs every gamma_i."""
        r = prod(p ** (2 * v // e) for p, e, v in zip(self.primes, self.exponents, vec))
        if not any(2 * v % e for e, v in zip(self.exponents, vec)):
            return [(r, 0)] * 3
        return [(r * u, r * v) for u, v in self._gammas]

    def _membership(self, vec: tuple[int, ...]):
        """The test xi in rad(p) for every p with v_p > 0, on basis
        coordinates.  Every prime P above p has v_P(p) = e_p, so xi is in
        every P iff xi^e_p is in p*O_K: one square decides every p with
        e_p = 2 at once, by their product, and its square decides a totally
        ramified 2."""
        mul = self.K.mul_basis_coords
        m = prod(p for p, e, v in zip(self.primes, self.exponents, vec) if v and e == 2)
        fourth = self.exponents[0] == 4 and vec[0]

        def contains(xi) -> bool:
            sq = mul(xi, xi)
            if any(c % m for c in sq):
                return False
            return not fourth or not any(c % 2 for c in mul(sq, sq))
        return contains

    @cached_attribute
    def _table_kernel(self) -> list[int]:
        """A basis of T, the even vectors whose character bits match some
        twist mask, by elimination over F_2: the packed image (e_p/2)*u_p
        of each ramified p, read off _prime_images, against its bits,
        modulo the span of the twist masks, that of the masks of -1 and of
        the three twist generators, the first four of K.generator_masks.
        Each bit is that of one map, the bit of its prime l (see the module
        docstring).  A vector with even v_2 has the
        relative-norm generators (r, 0), so its candidates are r*u for the
        twists u of K, and the characters of r*u are the XOR of the bits of
        the primes of r and the mask of u: a vector outside T is
        nonprincipal.  The bits of the primes are the tail of
        K.generator_masks, in the order of self.primes, which is
        K.profile's."""
        masks = self.K.generator_masks
        return f2_kernel([(0, mask) for mask in masks[:4]]
                         + [(self._prime_images[p], bits)
                            for p, bits in zip(self.primes, masks[4:])])

    def _descend(self, vec: tuple[int, ...]) -> bool:
        """Principality of a = prod_p rad(p)^v_p from its exponent vector.

        N(a) = prod_p p^((4/e_p)*v_p), as rad(p) has norm p^(4/e_p) (see
        prime_radical).  For a root xi with |N(xi)| = N(a), xi is in a iff xi
        is in rad(p) for every p with v_p > 0, i.e. iff v_P(xi) >= v_P(a) for
        every prime P above such a p.  When e_2 = 4 the one P above 2 has
        residue field F_2, so v_P(xi) = v_2(N(xi)) = v_2(N(a)) = v_P(a).
        When e_p = 2, v_p = 1: xi in rad(p) gives v_P(xi) >= 1 = v_P(a) at
        each P above p.
        """
        n = prod(p ** (4 // e * v) for p, e, v in zip(self.primes, self.exponents, vec))
        return principal_ideal_generator(self.K, n, self._relative_norm_generators(vec),
                                         self._membership(vec), self.budget) is not None

    def class_representatives(self) -> list[tuple[int, ...]]:
        """The lexicographically first vector of each coset of P."""
        return [self.unpack(x) for x in self._book.representatives()]

    def polya_order_oracle(self) -> int:
        """Number of strongly ambiguous classes, the cosets of P in G:
        |G : P| = prod e_p / |P|, read off the pivots of the completed book
        like the kernel order, with no class listed.  _book decides every
        coset, so this is the number of vectors class_representatives
        lists."""
        return prod(self.exponents) // self._book.order

    def cokernel_order_oracle(self) -> int:
        """Order of the cokernel of the extension map on ambiguous classes,
        |G / <im phi, P>| = |Po(K) / im phi|.  im phi holds (e_p/2)*u_p for
        every p, so the quotient is Z/2 when e_2 = 4 and no basis vector of
        P has odd v_2, i.e. the top pivot of the book is not 1, else 1."""
        if self.exponents[0] == 4 and self._book.top >> len(self.primes) - 1 != 1:
            return 2
        return 1

    def kernel_order_oracle(self) -> int:
        """Order of the kernel of the extension map on ambiguous classes,
        prod_i |Po(k_i)| * |P| / |<im phi, P>|, with |Po(k_i)| = 2^s_i / |P_i|
        from each subfield book and |<im phi, P>| = prod e_p / |coker|."""
        span = prod(self.exponents) // self.cokernel_order_oracle()
        domain = prod((1 << k.s) // sub.order
                      for k, sub in zip(self.K.subfields, self._subfield_books)) * self._book.order
        if domain % span:
            raise InconsistencyError(
                f"|<im phi, P>| = {span} does not divide prod |Po(k_i)| * |P| = {domain}")
        return domain // span
