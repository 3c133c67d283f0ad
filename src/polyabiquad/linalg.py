"""Small exact integer matrix routines: Hermite forms and lattice
membership.  Everything is dense: ideal lattices have dimension 4, the
relative-norm intersection 6, and exponent lattices of the ambiguous-ideal
oracle s_K, one column per ramified prime.  Plain Euclidean elimination is
plenty.
"""

from __future__ import annotations


def hnf_rows(rows: list[list[int]], dim: int) -> list[list[int]]:
    """Row Hermite normal form of the lattice spanned by integer rows.

    Returns one row per pivot, pivots positive and in increasing column
    order, entries above each pivot reduced into [0, pivot).  The result is
    canonical for the lattice.  Each column is cleared in one pass: every
    row with a nonzero entry b is folded into the pivot row (entry a) by the
    unimodular step (piv, r) -> (s*piv + t*r, (a/g)*r - (b/g)*piv), where
    s*a + t*b = g = gcd(a, b).
    """
    work = [list(r) for r in rows]
    basis: list[list[int]] = []
    for col in range(dim):
        piv = None
        rest = []
        for r in work:
            b = r[col]
            if not b:
                rest.append(r)
            elif piv is None:
                piv = r
            elif b % piv[col] == 0:
                q = b // piv[col]
                rest.append([y - q * x for x, y in zip(piv, r)])
            else:
                a = piv[col]
                g, s, t = _xgcd(a, b)
                ag, bg = a // g, b // g
                rest.append([ag * y - bg * x for x, y in zip(piv, r)])
                piv = [s * x + t * y for x, y in zip(piv, r)]
        work = rest
        if piv is not None:
            basis.append(piv if piv[col] > 0 else [-v for v in piv])
    # reduce entries above the pivots
    for i in range(len(basis)):
        for k in range(i + 1, len(basis)):
            pcol = next(j for j in range(dim) if basis[k][j])
            q = basis[i][pcol] // basis[k][pcol]
            if q:
                for j in range(dim):
                    basis[i][j] -= q * basis[k][j]
    return basis


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, t) with s*a + t*b = g = gcd(a, b) > 0."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        s0, s1, t0, t1 = s1, s0 - q * s1, t1, t0 - q * t1
    return (a, s0, t0) if a > 0 else (-a, -s0, -t0)


def hnf_contains(basis: list[list[int]], vec: list[int]) -> bool:
    """Membership of an integer vector in the lattice given by hnf_rows."""
    v = list(vec)
    dim = len(v)
    for row in basis:
        pcol = next(j for j in range(dim) if row[j])
        if v[pcol] % row[pcol]:
            return False
        q = v[pcol] // row[pcol]
        if q:
            for j in range(dim):
                v[j] -= q * row[j]
    return not any(v)
