"""The benchmark's corpora and the checks on every answered field.

Nothing here imports polyabiquad: the corpus, the ramification data and the
structural properties below are derived from integer factorisation alone, so
a field passes only if the program agrees with facts computed apart from it.
"""

from __future__ import annotations

import itertools
import json

# Keys of one `biquad --json` row, in the order the program prints them.
ROW_KEYS = (
    "d1", "d2", "d3", "delta1", "delta2", "delta3", "s1", "s2", "s3",
    "s_k", "i2", "e2", "j2", "q_k", "mu_order", "lambda1", "lambda2",
    "lambda3", "nu_k", "po1", "po2", "po3", "ker", "coker", "po_k",
    "h3_h0", "h2_h1", "h1_h0", "h3_h2", "verify_status",
)

# Many-prime fields (s_K >= 5): real and imaginary, with and without 2
# totally ramified.  Q(sqrt 7429, sqrt 30030) is left out: the oracle refuses
# it (exit 3, "exceeds the oracle bound").
MANYPRIME_PAIRS = ((-210, 143), (210, 143), (-2310, 13), (-1155, 26), (30, 77))

# Class-number-one fields, whose Polya group is trivial.
TRIVIAL_POLYA = ((-2, -1, 2), (-3, -1, 3), (2, 3, 6))


def prime_factors(n: int) -> list[int]:
    """Distinct primes dividing |n|, by trial division."""
    n = abs(n)
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


def squarefree_kernel(n: int) -> int:
    """The squarefree integer d with n = d * m**2, sign kept."""
    sign = -1 if n < 0 else 1
    n = abs(n)
    out = 1
    for p in prime_factors(n):
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e % 2:
            out *= p
    return sign * out


def discriminant(d: int) -> int:
    return d if d % 4 == 1 else 4 * d


def triple_of(a: int, b: int) -> tuple[int, int, int]:
    return tuple(sorted((a, b, squarefree_kernel(a * b))))


def scan_corpus(bound: int) -> list[tuple[int, int, int]]:
    """Canonical triples of every field Q(sqrt a, sqrt b), |a|, |b| <= bound."""
    vals = [v for v in range(-bound, bound + 1)
            if v not in (0, 1) and squarefree_kernel(v) == v]
    return sorted({triple_of(a, b) for a, b in itertools.combinations(vals, 2)})


def expected_facts(triple: tuple[int, int, int]) -> dict:
    """The row entries fixed by factorisation alone."""
    deltas = [discriminant(d) for d in triple]
    ram = [set(prime_factors(D)) for D in deltas]
    i2 = int(all(2 in r for r in ram))
    ds = set(triple)
    if ds == {-1, 2, -2}:
        mu = 8
    elif ds == {-1, 3, -3}:
        mu = 12
    elif -1 in ds:
        mu = 4
    elif -3 in ds:
        mu = 6
    else:
        mu = 2
    facts = {"d1": triple[0], "d2": triple[1], "d3": triple[2],
             "s_k": len(set().union(*ram)), "i2": i2, "mu_order": mu,
             "e2": 4 if i2 else (2 if any(2 in r for r in ram) else 1)}
    for i in range(3):
        facts[f"delta{i + 1}"] = deltas[i]
        facts[f"s{i + 1}"] = len(ram[i])
    return facts


def _power_of_two(n) -> bool:
    return isinstance(n, int) and n >= 1 and n & (n - 1) == 0


def check_row(triple: tuple[int, int, int], row: dict, status: str) -> list[str]:
    """Every way `row` disagrees with the field `triple`; empty when it passes."""
    if set(row) != set(ROW_KEYS):
        return [f"keys differ: missing {sorted(set(ROW_KEYS) - set(row))}, "
                f"extra {sorted(set(row) - set(ROW_KEYS))}"]
    errs = [f"{k} = {row[k]}, expected {v}"
            for k, v in expected_facts(triple).items() if row[k] != v]
    if row["verify_status"] != status:
        errs.append(f"verify_status = {row['verify_status']!r}, expected {status!r}")
    orders = ("po1", "po2", "po3", "ker", "coker", "po_k", "q_k",
              "h3_h0", "h2_h1", "h1_h0", "h3_h2")
    bad = [k for k in orders if not _power_of_two(row[k])]
    if bad:
        return errs + [f"not a power of two: {bad}"]
    if row["po_k"] * row["ker"] != row["po1"] * row["po2"] * row["po3"] * row["coker"]:
        errs.append("po_k * ker != po1 * po2 * po3 * coker")
    if row["h3_h2"] * row["h2_h1"] * row["h1_h0"] != row["h3_h0"]:
        errs.append("chain does not telescope")
    if row["h3_h0"] != 2 ** row["s_k"]:
        errs.append("(H3:H0) != 2^s_K")
    if (row["h1_h0"] == 2) != (-1 in triple):
        errs.append(f"(H1:H0) = {row['h1_h0']} but -1 in triple is {-1 in triple}")
    real = all(d > 0 for d in triple)
    if row["q_k"] not in ((1, 2, 4) if real else (1, 2)):
        errs.append(f"q_K = {row['q_k']} out of range")
    for i, d in enumerate(triple):
        s, po = row[f"s{i + 1}"], row[f"po{i + 1}"]
        if d < 0 and po != 2 ** (s - 1):
            errs.append(f"po{i + 1} = {po} != 2^(s-1) for imaginary {d}")
        if d > 0 and any(p % 4 == 3 for p in prime_factors(d)) and po != 2 ** (s - 2):
            errs.append(f"po{i + 1} = {po} != 2^(s-2) for real {d} with a p = 3 mod 4")
    if triple in TRIVIAL_POLYA and row["po_k"] != 1:
        errs.append(f"po_k = {row['po_k']} for a class-number-one field")
    return errs


def parse_row(stdout: str) -> dict:
    """The single JSON row of a `biquad --json` answer."""
    lines = stdout.splitlines()
    if len(lines) != 1:
        raise ValueError(f"expected one output line, got {len(lines)}")
    return json.loads(lines[0])
