"""Command-line front end.

Subcommands:
  quad D                  one quadratic field: discriminant, unit, class data
  biquad D1 D2            one biquadratic field: the full report
  scan --bound N          every biquadratic field generated by |d1|,|d2| <= N

Exit codes: 0 success, 1 invalid input, usage or IO error, 2 formula-vs-oracle
mismatch, 3 search budget exhausted, 4 internal inconsistency (a check
inside the program raised InconsistencyError: a bug, not a verdict).
Under --verify the enumeration budget comes from --budget, else the
POLYA_ORACLE_BUDGET environment variable, else a generous default; each
field gets its own budget.  Without --verify neither is read.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import multiprocessing
import sys
from math import gcd

from .biquadratic import biquadratic_field
from .errors import (Budget, BudgetExceededError, DomainError, InconsistencyError,
                     InvalidInputError, default_budget_units)
from .intmath import squarefree_part
from .lattice import AmbiguousIdealOracle
from .polya import polya_order_quad, polya_report, verify_biquad, verify_quad
from .quadratic import quadratic_field
from .report import quad_record, render_records


def _add_format_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--json", action="store_true", help="newline-delimited JSON")
    p.add_argument("--csv", action="store_true", help="CSV with a header row")
    p.add_argument("--text", action="store_true", help="fixed-width table (default)")


def _resolve_format(args) -> str:
    chosen = [f for f in ("json", "csv", "text") if getattr(args, f)]
    if len(chosen) > 1:
        raise InvalidInputError("choose at most one output format")
    return chosen[0] if chosen else "text"


def _budget_units(args) -> int:
    if args.budget is not None:
        if args.budget <= 0:
            raise InvalidInputError("--budget must be positive")
        return args.budget
    return default_budget_units()


def _cmd_quad(args) -> int:
    fmt = _resolve_format(args)
    units = _budget_units(args) if args.verify else None
    k = quadratic_field(args.d)
    status = "unchecked"
    if args.verify:
        status, _ = verify_quad(k, Budget(units))
    rec = quad_record(k, polya_order_quad(k), status)
    sys.stdout.write(render_records([rec], fmt))
    return 2 if status == "mismatch" else 0


def _mismatch_note(K, details: dict) -> str:
    """One stderr line saying what the oracle and the formulas disagreed on."""
    return f"mismatch for {K.d}: " + " ".join(f"{k}={v}" for k, v in details.items())


def _verified(K, rec, units: int):
    """The row rec of K with the oracle's verify status, and the stderr
    line of a mismatch or None; budget exhaustion propagates."""
    status, details = verify_biquad(K, rec, AmbiguousIdealOracle(K, units))
    note = _mismatch_note(K, details) if status == "mismatch" else None
    return rec.with_status(status), note


def _cmd_biquad(args) -> int:
    fmt = _resolve_format(args)
    units = _budget_units(args) if args.verify else None
    K = biquadratic_field(args.d1, args.d2)
    rec, note = polya_report(K), None
    if args.verify:
        rec, note = _verified(K, rec, units)
    sys.stdout.write(render_records([rec], fmt))
    if note is not None:
        print(note, file=sys.stderr)
    if args.chain and fmt == "text":
        sys.stdout.write(
            f"chain: (H3:H2)={rec.h3_h2}  (H2:H1)={rec.h2_h1}  (H1:H0)={rec.h1_h0}  "
            f"product={rec.h3_h2 * rec.h2_h1 * rec.h1_h0} = 2^s_K = (H3:H0)={rec.h3_h0}\n")
    return 2 if rec.verify_status == "mismatch" else 0


def _scan_tasks(bound: int, real_only: bool, imag_only: bool):
    """Each field exactly once, keyed and ordered by its canonical triple;
    a, b squarefree make a*b/gcd(a, b)^2 the squarefree third generator."""
    vals = [v for v in range(-bound, bound + 1)
            if v not in (0, 1) and squarefree_part(v) == v]
    generators: dict[tuple[int, int, int], tuple[int, int]] = {}
    for a, b in itertools.combinations(vals, 2):
        triple = tuple(sorted((a, b, a * b // gcd(a, b) ** 2)))
        generators.setdefault(triple, (a, b))
    out = []
    for triple in sorted(generators):
        is_real = all(v > 0 for v in triple)
        if (real_only and not is_real) or (imag_only and is_real):
            continue
        out.append(generators[triple])
    return out


def _scan_worker(task):
    a, b, verify, units = task
    K = biquadratic_field(a, b)
    rec, note = polya_report(K), None
    if verify:
        try:
            rec, note = _verified(K, rec, units)
        except BudgetExceededError:
            rec = rec.with_status("budget_exceeded")
    return rec, note


def _cmd_scan(args) -> int:
    if args.bound < 2:
        raise InvalidInputError("--bound must be at least 2")
    if args.real_only and args.imag_only:
        raise InvalidInputError("--real-only and --imag-only are exclusive")
    if args.jobs < 1:
        raise InvalidInputError("--jobs must be at least 1")
    fmt = _resolve_format(args)
    units = _budget_units(args) if args.verify else None
    tasks = [(a, b, args.verify, units)
             for a, b in _scan_tasks(args.bound, args.real_only, args.imag_only)]
    if args.jobs > 1:
        with multiprocessing.Pool(args.jobs) as pool:
            results = pool.map(_scan_worker, tasks)
    else:
        results = [_scan_worker(t) for t in tasks]
    records = []
    for rec, note in results:
        records.append(rec)
        if note is not None:
            print(note, file=sys.stderr)
    rendered = render_records(records, fmt) if records else ""
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(rendered)
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
            return 1
    else:
        sys.stdout.write(rendered)
    if any(r.verify_status == "mismatch" for r in records):
        return 2
    if any(r.verify_status == "budget_exceeded" for r in records):
        return 3
    return 0


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1 through main: exit 2 means a mismatch."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise InvalidInputError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parse_args keeps no
    state between calls, and building the tree costs more than a formula
    request."""
    parser = _Parser(
        prog="polyabiquad",
        description="Orders of Polya groups (strongly ambiguous ideal classes) "
                    "of quadratic and bicyclic biquadratic number fields, with "
                    "an independent brute-force verifier.")
    sub = parser.add_subparsers(dest="command", required=True)

    q = sub.add_parser("quad", help="one quadratic field Q(sqrt(d))")
    q.add_argument("d", type=int)
    q.add_argument("--verify", action="store_true",
                   help="check the formula against direct class enumeration")
    q.add_argument("--budget", type=int, default=None)
    _add_format_flags(q)
    q.set_defaults(func=_cmd_quad)

    b = sub.add_parser("biquad", help="one biquadratic field Q(sqrt(d1),sqrt(d2))")
    b.add_argument("d1", type=int)
    b.add_argument("d2", type=int)
    b.add_argument("--verify", action="store_true",
                   help="run the ambiguous-ideal oracle against the formulas")
    b.add_argument("--chain", action="store_true",
                   help="also spell out the subgroup chain indices")
    b.add_argument("--budget", type=int, default=None)
    _add_format_flags(b)
    b.set_defaults(func=_cmd_biquad)

    s = sub.add_parser("scan", help="all fields with |d1|,|d2| <= bound")
    s.add_argument("--bound", type=int, required=True)
    s.add_argument("--real-only", action="store_true")
    s.add_argument("--imag-only", action="store_true")
    s.add_argument("--verify", action="store_true")
    s.add_argument("--out", type=str, default=None)
    s.add_argument("--jobs", type=int, default=1)
    s.add_argument("--budget", type=int, default=None)
    _add_format_flags(s)
    s.set_defaults(func=_cmd_scan)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (InvalidInputError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except InconsistencyError as exc:
        print(f"error: internal inconsistency: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
