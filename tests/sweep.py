"""Seeded sweep of random biquadratic fields through both routes.

    PYTHONPATH=src python tests/sweep.py --seed N --fields F [--cap C]

Draws F pairs (d1, d2) from the seed and answers each with one in-process
``cli.main(["biquad", d1, d2, "--verify", "--json"])``, so every row compares
the closed formulas with the ambiguous-ideal oracle.  Each generator is a
signed product of 1-6 distinct primes below 200, drawn to favour small
primes so that fields with eight or more ramified primes are common; both
signs and every squarefree residue mod 8 occur.

The cap |d_i| <= C (10**6 by default) is a limit of the method, not of the
draw: the third subfield's d3 = d1*d2/gcd(d1, d2)**2 can reach C**2, and the
continued fraction of a real subfield near d has a period near sqrt(d).  A
real subfield near 10**19 would leave a sweep of a few hundred fields
unfinished after minutes.

Every choice comes from random.Random(seed).random(): of the module's
methods only seed() and random() promise the same stream on every Python
version, so a seed names the same pairs everywhere.  The script prints the
stderr and the row of each field whose row is not "ok" or whose exit code
is not 0, then the s_K histogram, then the SHA-256 of all rows and their
count; it exits 1 if any field was printed.  pytest does not collect it.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import random
import sys
from collections import Counter

from polyabiquad import cli

PRIMES = [p for p in range(2, 200) if all(p % q for q in range(2, int(p ** 0.5) + 1))]


def generator(rng: random.Random, cap: int) -> int:
    """A signed product of 1-6 distinct primes below min(200, cap + 1) of
    absolute value at most cap; a prime at rank r of PRIMES is drawn with
    probability falling like r**(-2/3).  A prime that repeats or overshoots
    the cap is redrawn, up to eight tries per prime wanted."""
    primes = [p for p in PRIMES if p <= cap]
    want = 1 + int(6 * rng.random())
    d, chosen = 1, set()
    for _ in range(8 * want):
        p = primes[int(len(primes) * rng.random() ** 3)]
        if p not in chosen and d * p <= cap:
            chosen.add(p)
            d *= p
            if len(chosen) == want:
                break
    return d if rng.random() < 0.5 else -d


def pairs(seed: int, fields: int, cap: int):
    """fields pairs (d1, d2) of distinct generators, drawn from seed."""
    rng = random.Random(seed)
    for _ in range(fields):
        d1 = generator(rng, cap)
        d2 = generator(rng, cap)
        while d2 == d1:
            d2 = generator(rng, cap)
        yield d1, d2


def answer(d1: int, d2: int) -> tuple[int, str, str]:
    """The exit code, stdout and stderr of one verified biquad request."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["biquad", str(d1), str(d2), "--verify", "--json"])
    return code, out.getvalue(), err.getvalue()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--fields", type=int, required=True)
    parser.add_argument("--cap", type=int, default=10 ** 6, help="largest |d_i|, at least 2")
    args = parser.parse_args(argv)
    if args.cap < 2 or args.fields < 1:
        parser.error("--cap must be at least 2 and --fields at least 1")
    digest, histogram, failed = hashlib.sha256(), Counter(), 0
    for d1, d2 in pairs(args.seed, args.fields, args.cap):
        code, out, err = answer(d1, d2)
        digest.update(out.encode())
        status = "no row"
        if out:
            row = json.loads(out)
            status = row["verify_status"]
            histogram[row["s_k"]] += 1
        if code != 0 or status != "ok":
            failed += 1
            print(f"({d1}, {d2}) exit {code}: {err.strip()}")
            sys.stdout.write(out)
    print("s_K histogram: " + " ".join(f"{s}:{n}" for s, n in sorted(histogram.items())))
    print(f"{digest.hexdigest()}  {sum(histogram.values())} rows")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
