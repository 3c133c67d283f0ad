"""The coset book: principality verdicts on a finite abelian group
G = Z/e + (Z/2)^m, e in (2, 4), that maps onto ideal classes, kept as the
principal subgroup P in echelon form and the known-nonprincipal cosets by
their reduced vectors.  The subfield books (G = (Z/2)^s) and the oracle in
a biquadratic field (G = Z/e_2 + (Z/2)^(s_K - 1)) both keep one, and both
find the subgroup they leave to it, the kernel of a map of characters
into F_2^k, by f2_kernel, which the book decides one vector per coset of P.
"""

from __future__ import annotations

from .errors import InconsistencyError


def f2_kernel(pairs) -> list[int]:
    """A basis of the kernel of an F_2-linear map, by Gaussian elimination:
    pairs holds (x, image of x) over a basis of its domain, both packed
    into integers under XOR.  A pair (0, c) puts c in the subgroup divided
    out of the target, so the kernel is then the preimage of that subgroup."""
    pivots: dict[int, tuple[int, int]] = {}  # highest bit of an image -> (image, x)
    kernel = []
    for x, c in pairs:
        while c:
            row = pivots.get(c.bit_length())
            if row is None:
                pivots[c.bit_length()] = c, x
                break
            c, x = c ^ row[0], x ^ row[1]
        else:
            if x:
                kernel.append(x)
    return kernel


def f2_span(basis) -> list[int]:
    """Every XOR combination of the vectors of basis."""
    span = [0]
    for b in basis:
        span += [x ^ b for x in span]
    return span


def f2_echelon(vectors) -> list[int]:
    """A basis of the span of vectors under XOR in reduced echelon form,
    lowest first: the rows have distinct highest bits, each set in its own
    row alone.  So x ^ r < x exactly when x holds the highest bit of r, and
    f2_span lists the span in increasing order: the highest bit at which
    two combinations differ is that of the highest row only one of them
    takes."""
    rows: list[int] = []
    for v in vectors:
        for r in rows:  # in any order: r clears its own highest bit alone
            v = min(v, v ^ r)
        if v:
            rows = [min(r, r ^ v) for r in rows]
            rows.append(v)
    return sorted(rows)


class CosetBook:
    """Principality verdicts on G = Z/e + (Z/2)^m, e in (2, 4), for a group
    G mapping onto ideal classes.  An element is packed into one integer
    t*2^m + w: the digit t mod e is the most significant, and the m low
    bits w add by XOR, so the integer order is the lexicographic order of
    the digits.  The principal subgroup P is held as a basis in echelon
    form, pivots on the most significant digit: at most one vector, top,
    whose top digit, 1 or 2, generates the top digits of P, and rows,
    vectors with top digit 0 and distinct highest bits.  Reducing x
    by the pivots from the most significant down gives the least element
    of x + P, so a coset is named by its reduced vector, |P| is the product
    of the orders of the pivots, and the reduced vectors, listed in
    increasing order, are the first element of each coset.

    The known-nonprincipal cosets are held by their reduced vectors.  Only
    a vector in neither P nor one of them is tested, so each coset at most
    once: a principal verdict grows P, and re-reduces the nonprincipal
    cosets, raising InconsistencyError if one of them falls into P; a
    nonprincipal verdict records the coset.  Once its owner has decided
    every coset it sets complete, and the book answers from P alone: x is
    principal iff it reduces to 0, with no test, so a completed book,
    shared or not, never descends or charges a budget again."""

    def __init__(self, m: int, e: int, test):
        self.m, self.e, self.test = m, e, test
        self.low = (1 << m) - 1
        self.top = 0
        self.rows: list[tuple[int, int]] = []  # (highest bit, vector), highest first
        self.nonprincipal: set[int] = set()
        self.complete = False

    @property
    def order(self) -> int:
        """|P|: e, or e/2, for the top pivot times 2 for each row."""
        q = self.top >> self.m
        return (self.e // q if q else 1) << len(self.rows)

    def basis(self) -> list[int]:
        return ([self.top] if self.top else []) + [v for _, v in self.rows]

    def reduce(self, x: int) -> int:
        """The least element of x + P."""
        t, q = x >> self.m, self.top >> self.m
        if q == 1 and t:  # add (e - t)*top: the low bits change when t is odd
            x = x & self.low ^ (self.top & self.low if t & 1 else 0)
        elif q == 2 and t & 2:
            x = (x - (2 << self.m)) ^ self.top & self.low
        for bit, v in self.rows:
            if x & bit:
                x ^= v
        return x

    def add_principal(self, x: int) -> None:
        """Grow P to <P, x> for an x known to be principal, tested or not."""
        y = self.reduce(x)
        t = y >> self.m
        if t:  # no top pivot yet, or one with digit 2 and t = 1
            old = self.top
            self.top = y - (2 << self.m) if t == 3 else y  # -y has digit 1
            # old - 2*top, with 2*top = 2*2^m, is a row
            y = old and self.reduce(old & self.low)
        if y:
            self.rows.append((1 << y.bit_length() - 1, y))
            self.rows.sort(reverse=True)
        if self.nonprincipal:
            spread = {self.reduce(n) for n in self.nonprincipal}
            if 0 in spread:
                raise InconsistencyError(
                    f"{x} is principal, yet <P, {x}> meets a nonprincipal coset")
            self.nonprincipal = spread

    def is_principal(self, x: int) -> bool:
        r = self.reduce(x)
        if not r:
            return True
        if self.complete or r in self.nonprincipal:
            return False
        if self.test(x):
            self.add_principal(x)
            return True
        self.nonprincipal.add(r)
        return False

    def decide(self, basis: list[int]) -> None:
        """Decide every element of the span S of basis, a subgroup whose
        top digits are 0 or e/2, so that it adds by XOR, by deciding one
        element of each coset of P in S: the reduced vectors of S, the span
        of the reduced basis, in increasing order.  A walk over all of S in
        increasing order tests only these, and in this order: P only grows
        inside S, so an element tested there is the least of its coset,
        and one that is not reduced by the P it starts from reduces, by the
        P of its turn, to a vector decided before it.  P must lie in S, or
        InconsistencyError is raised before any test."""
        span = f2_echelon(basis)
        for v in self.basis():
            for r in span:
                v = min(v, v ^ r)
            if v:
                raise InconsistencyError("a principal vector lies outside the subgroup left to decide")
        for x in f2_span(f2_echelon(self.reduce(b) for b in basis)):
            self.is_principal(x)

    def representatives(self):
        """The reduced vectors, i.e. the first element of each coset of P,
        in increasing order."""
        pivots = 0
        for bit, _ in self.rows:
            pivots |= bit
        low = [0]
        for j in range(self.m):
            if not pivots >> j & 1:
                low += [w | 1 << j for w in low]
        return (t << self.m | w for t in range(self.top >> self.m or self.e) for w in low)
