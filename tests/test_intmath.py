import random
from math import isqrt

import pytest

from exact_reference import kronecker
from polyabiquad.errors import InvalidInputError
from polyabiquad.intmath import factorize, squarefree_part


def _primes_below(n: int) -> list[int]:
    """The sieve of Eratosthenes."""
    composite = bytearray(n)
    for p in range(2, isqrt(n) + 1):
        if not composite[p]:
            composite[p * p::p] = b"\1" * len(range(p * p, n, p))
    return [p for p in range(2, n) if not composite[p]]


PRIMES = _primes_below(20_000)


def is_squarefree_part(d: int, n: int) -> bool:
    """d divides n, n/d is a perfect square, d has the sign of n and no
    prime square divides d."""
    return (n % d == 0 and n // d >= 0 and isqrt(n // d) ** 2 == n // d
            and (d > 0) == (n > 0) and all(e == 1 for e in factorize(d).values()))


def test_squarefree_examples():
    assert squarefree_part(18) == 2
    assert squarefree_part(-4) == -1
    assert squarefree_part(6) == 6
    assert squarefree_part(-1) == -1 and squarefree_part(1) == 1


def test_squarefree_zero_rejected():
    with pytest.raises(InvalidInputError):
        squarefree_part(0)


def test_squarefree_recompose_exhaustive_small():
    for n in range(1, 20_000):
        for m in (n, -n):
            assert is_squarefree_part(squarefree_part(m), m), m


def test_squarefree_recompose_random_to_1e6():
    rng = random.Random(7)
    for _ in range(500):
        n = rng.randint(2, 10**6) * rng.choice((1, -1))
        d = squarefree_part(n)
        assert is_squarefree_part(d, n), n
        assert squarefree_part(d) == d


def test_factorize_matches_the_sieve():
    assert len(PRIMES) == 2262 and PRIMES[-1] == 19997
    assert [p for p in range(1, 20_000) if factorize(p) == {p: 1}] == PRIMES


def test_factorize_past_the_sieve():
    # numbers with prime factors above 20,000, and cofactors above 20,000**2
    # after the primes below it are divided out, one of them odd
    for n in (2 * 38833 * 36313, 20011 * 20021, 3 * 20011 ** 2 * 20023, 20011 ** 3):
        fac = factorize(n)
        assert all(factorize(p) == {p: 1} for p in fac)
        prod = 1
        for p, e in fac.items():
            prod *= p ** e
        assert prod == n and max(fac) > PRIMES[-1], n
    assert factorize(-2 * 38833 * 36313) == {2: 1, 36313: 1, 38833: 1}


# the Kronecker symbol is a test reference (exact_reference.kronecker): the
# residue maps of test_lattice are checked against it
def test_kronecker_examples():
    assert kronecker(2, 7) == 1      # 2 = 3^2 mod 7
    assert kronecker(3, 5) == -1
    assert kronecker(12, 3) == 0


def test_kronecker_invalid():
    with pytest.raises(InvalidInputError):
        kronecker(0, 0)


def test_kronecker_matches_euler_criterion():
    # For odd prime p the symbol is the Legendre symbol.
    rng = random.Random(1)
    odd_primes = PRIMES[1:201]
    for _ in range(2000):
        p = rng.choice(odd_primes)
        a = rng.randint(-3 * p, 3 * p)
        euler = pow(a % p, (p - 1) // 2, p) if a % p else 0
        euler = -1 if euler == p - 1 else euler
        assert kronecker(a, p) == euler, (a, p)


def test_kronecker_reciprocity_random_odd_pairs():
    from math import gcd
    rng = random.Random(2)
    checked = 0
    while checked < 10_000:
        a = rng.randrange(3, 2000, 2)
        b = rng.randrange(3, 2000, 2)
        if gcd(a, b) != 1:
            continue
        sign = -1 if (a % 4 == 3 and b % 4 == 3) else 1
        assert kronecker(a, b) * kronecker(b, a) == sign
        checked += 1


def test_kronecker_multiplicative_in_n():
    rng = random.Random(3)
    for _ in range(500):
        a = rng.randint(-50, 50)
        m = rng.randint(-40, 40)
        n = rng.randint(-40, 40)
        if (a, m * n) == (0, 0) or m == 0 or n == 0:
            continue
        assert kronecker(a, m * n) == kronecker(a, m) * kronecker(a, n)


def test_kronecker_conventions_at_2_and_minus_one():
    assert kronecker(7, 2) == 1 and kronecker(9, 2) == 1
    assert kronecker(3, 2) == -1 and kronecker(5, 2) == -1
    assert kronecker(4, 2) == 0
    assert kronecker(5, -1) == 1 and kronecker(-5, -1) == -1

