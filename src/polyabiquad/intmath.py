"""Exact integer primitives: trial-division factoring at desk scale, the
squarefree part and powers of two.

Inputs throughout the package are small: `QuadraticField` factors the
generator it is given (the two generators of a biquadratic field; the third
comes from them by a gcd), and `scan` factors each integer up to its bound
once to keep the squarefree ones.  So factoring is one loop of trial division
by 2 and the odd numbers.
"""

from __future__ import annotations

from math import prod

from .errors import InvalidInputError


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of |n| as {p: exponent}; factorize(+-1) == {}."""
    if n == 0:
        raise InvalidInputError("cannot factor 0")
    n = abs(n)
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        out[n] = 1
    return out


def squarefree_part(n: int) -> int:
    """The squarefree d with n = d*f**2 and sign(d) = sign(n): the signed
    product of the primes of odd exponent in n.  0 raises InvalidInputError."""
    return prod((p for p, e in factorize(n).items() if e % 2), start=1 if n > 0 else -1)


def is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0

