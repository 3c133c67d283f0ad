"""Small exact integer matrix routines: Hermite forms, lattice membership,
determinants and adjugates.  Everything is dense and of dimension at most 6,
so plain Euclidean elimination and cofactor expansion are plenty.
"""

from __future__ import annotations


def hnf_rows(rows: list[list[int]], dim: int) -> list[list[int]]:
    """Row Hermite normal form of the lattice spanned by integer rows.

    Returns one row per pivot, pivots positive and in increasing column
    order, entries above each pivot reduced into [0, pivot).  The result is
    canonical for the lattice.
    """
    work = [list(r) for r in rows if any(r)]
    basis: list[list[int]] = []
    for col in range(dim):
        while True:
            cand = [r for r in work if r[col]]
            if len(cand) <= 1:
                break
            cand.sort(key=lambda r: abs(r[col]))
            piv = cand[0]
            for r in cand[1:]:
                q = r[col] // piv[col]
                if q:
                    for j in range(dim):
                        r[j] -= q * piv[j]
            work = [r for r in work if any(r)]
        cand = [r for r in work if r[col]]
        if cand:
            piv = cand[0]
            work.remove(piv)
            if piv[col] < 0:
                piv = [-v for v in piv]
            basis.append(piv)
    # reduce entries above the pivots
    for i in range(len(basis)):
        for k in range(i + 1, len(basis)):
            pcol = next(j for j in range(dim) if basis[k][j])
            q = basis[i][pcol] // basis[k][pcol]
            if q:
                for j in range(dim):
                    basis[i][j] -= q * basis[k][j]
    return basis


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


def mat_det_int(M: list[list[int]]) -> int:
    """Determinant by cofactor expansion along the first row (small n)."""
    if len(M) == 1:
        return M[0][0]
    return sum((-1) ** j * M[0][j] * mat_det_int([r[:j] + r[j + 1:] for r in M[1:]])
               for j in range(len(M)) if M[0][j])


def mat_adjugate_int(M: list[list[int]]) -> tuple[list[list[int]], int]:
    """(adj(M), det(M)) of a small square integer matrix, with
    M @ adj(M) == adj(M) @ M == det(M) * I."""
    n = len(M)

    def minor(i, j):
        return [r[:j] + r[j + 1:] for t, r in enumerate(M) if t != i]

    adj = [[(-1) ** (i + j) * mat_det_int(minor(j, i)) for j in range(n)]
           for i in range(n)]
    return adj, sum(M[0][k] * adj[k][0] for k in range(n))
