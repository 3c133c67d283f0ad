"""Differential test: a deliberately naive principality decision for small
imaginary biquadratic fields, sharing no code with the descent algorithm.

For imaginary K the unit group has rank 1, generated (up to roots of unity
and a bounded index) by the real subfield's fundamental unit eps.  Any
generator alpha of an ideal of norm n can be unit-translated so that both
complex embeddings satisfy |sigma(alpha)| <= B = (1 + margin) * eps^(1/2) *
n^(1/4); the radical coordinates of such alpha are then bounded by B (for
the rational coordinate) and B/sqrt(|d_i|), and integral elements live on
the (1/4)Z grid.  Enumerating the whole grid box and checking the exact
norm and lattice membership therefore decides principality soundly; it is
hopeless at scale but perfect as an independent witness on tiny fields.
"""

import itertools
from fractions import Fraction
from math import isqrt

from exact_reference import (BiquadElement, QuadElement, basis_coords, lattice_generator,
                             vector_lattice)
from polyabiquad.biquadratic import biquadratic_field
from polyabiquad.lattice import AmbiguousIdealOracle


def _sqrt_upper(x: Fraction, scale: int = 1 << 24) -> Fraction:
    """A rational upper bound for sqrt(x), x >= 0."""
    num = x.numerator * scale * scale
    return Fraction(isqrt(num // x.denominator) + 1, scale)


def brute_principal_imaginary(lat) -> bool:
    K = lat.field
    assert not K.is_real
    n = lat.norm
    # the one real subfield sorts last
    eps = QuadElement.from_omega(K.d[2], *K.subfields[2].fundamental_unit)
    eps_upper = (Fraction(eps.x, eps.den)
                 + Fraction(eps.y, eps.den) * _sqrt_upper(Fraction(K.d[2])))
    # |sigma(alpha)| <= B with B^2 = 1.1 * eps * sqrt(n)
    b_sq = Fraction(11, 10) * eps_upper * _sqrt_upper(Fraction(n))
    bound0 = _sqrt_upper(b_sq)
    ranges = []
    for i in range(4):
        scale = Fraction(1) if i == 0 else _sqrt_upper(Fraction(abs(K.d[i - 1])))
        hi = int(4 * bound0 / (scale if i else 1)) + 1
        ranges.append(range(-hi, hi + 1))
    # integer norm form on quartered coordinates: with alpha = (q0 + q1 r1 +
    # q2 r2 + q3 r3)/4 and r2 r3 = s*f*r1,
    #   256*N(alpha) = A^2 - d1*B^2,
    #   A = q0^2 + d1 q1^2 - d2 q2^2 - d3 q3^2,  B = 2 q0 q1 - 2 s f q2 q3.
    d1, d2, d3 = K.d
    sf = K.cofactors[0]
    target = 256 * n
    for q0, q1, q2, q3 in itertools.product(*ranges):
        a = q0 * q0 + d1 * q1 * q1 - d2 * q2 * q2 - d3 * q3 * q3
        b = 2 * q0 * q1 - 2 * sf * q2 * q3
        if abs(a * a - d1 * b * b) != target:
            continue
        el = BiquadElement(K, [Fraction(q, 4) for q in (q0, q1, q2, q3)])
        assert abs(el.norm()) == n
        coords = basis_coords(K, el)
        if all(c.denominator == 1 for c in coords) and lat.contains([int(c) for c in coords]):
            return True
    return False


def test_descent_matches_naive_enumeration_on_small_imaginary_fields():
    for pair in ((-1, -3), (-1, 2), (-1, 3), (-2, -3)):
        K = biquadratic_field(*pair)
        orc = AmbiguousIdealOracle(K)
        for vec in itertools.product(*[range(e) for e in orc.exponents]):
            lat = vector_lattice(orc, vec)
            if lat.norm > 12:
                continue
            descent = lattice_generator(lat) is not None
            assert brute_principal_imaginary(lat) == descent, (pair, vec)
