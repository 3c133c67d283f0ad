"""Exact rational references for the tests, independent of the program's
own integer linear algebra: a Gaussian-elimination determinant over Q and
the characteristic polynomial of a biquadratic element from its conjugates.
"""

from fractions import Fraction


def mat_det_fraction(M) -> Fraction:
    n = len(M)
    a = [[Fraction(v) for v in row] for row in M]
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det *= a[col][col]
        inv = 1 / a[col][col]
        for r in range(col + 1, n):
            if a[r][col]:
                f = a[r][col] * inv
                a[r] = [v - f * w for v, w in zip(a[r], a[col])]
    return det


def char_poly(x) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    """(s1, s2, s3, s4) with char = t^4 - s1 t^3 + s2 t^2 - s3 t + s4."""
    p1 = x * x.sigma(1)
    p2 = x * x.sigma(2)
    p3 = x * x.sigma(3)
    s1 = x.trace()
    s2 = 2 * (p1.coords[0] + p2.coords[0] + p3.coords[0])
    s3 = (p1 * x.sigma(2)).trace()
    n = p1 * p1.sigma(2)
    assert all(c == 0 for c in n.coords[1:])
    return s1, s2, s3, n.coords[0]


def gram_determinant(K) -> Fraction:
    """det(Tr(b_i b_j)) over the field's integral basis."""
    return mat_det_fraction([[(x * y).trace() for y in K.basis] for x in K.basis])
