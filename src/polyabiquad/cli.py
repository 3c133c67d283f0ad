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

import contextlib
import itertools
import os
import sys
from math import gcd
from types import SimpleNamespace

from .biquadratic import biquadratic_field
from .errors import Budget, BudgetExceededError, DomainError, InconsistencyError, InvalidInputError
from .intmath import squarefree_part
from .lattice import AmbiguousIdealOracle
from .polya import polya_order_quad, polya_report, verify_biquad, verify_quad
from .quadratic import quadratic_field
from .report import quad_record, render_records

USAGE = """\
usage: polyabiquad quad D [--verify] [--json|--csv|--text] [--budget N]
       polyabiquad biquad D1 D2 [--verify] [--chain] [--json|--csv|--text] [--budget N]
       polyabiquad scan --bound N [--real-only|--imag-only] [--verify]
                        [--json|--csv|--text] [--out FILE] [--jobs J] [--budget N]
"""


_BUDGET_VAR = "POLYA_ORACLE_BUDGET"


def _budget_units(args) -> int | None:
    """The oracle's budget per field under --verify: --budget, else
    POLYA_ORACLE_BUDGET, else 50,000,000 units; None without --verify,
    which reads neither.  Only the command line reads the variable: a
    library Budget() has no limit."""
    if not args.verify:
        return None
    if args.budget is not None:
        if args.budget <= 0:
            raise InvalidInputError("--budget must be positive")
        return args.budget
    raw = os.environ.get(_BUDGET_VAR, "50000000")
    try:
        units = int(raw)
    except ValueError as exc:
        raise InvalidInputError(f"{_BUDGET_VAR} must be an integer, got {raw!r}") from exc
    if units <= 0:
        raise InvalidInputError(f"{_BUDGET_VAR} must be positive, got {units}")
    return units


def _mismatch_note(K, status: str, details) -> str | None:
    """The stderr line of a mismatch, saying what the oracle and the formulas
    disagreed on; None for any other status."""
    return (f"mismatch for {K.d}: " + " ".join(f"{k}={v}" for k, v in details.items())
            if status == "mismatch" else None)


def _write(fh, results, fmt: str) -> int:
    """Print the mismatch line of each (row, line) pair to stderr, then the
    rows to fh, and return the exit code: 2 if a row is a mismatch, else 3
    if one ran out of budget, else 0."""
    for _, note in results:
        if note is not None:
            print(note, file=sys.stderr)
    fh.write(render_records([rec for rec, _ in results], fmt) if results else "")
    statuses = {rec.verify_status for rec, _ in results}
    return 2 if "mismatch" in statuses else 3 if "budget_exceeded" in statuses else 0


def _cmd_quad(args) -> int:
    units = _budget_units(args)
    k = quadratic_field(args.d)
    status, details = verify_quad(k, Budget(units)) if args.verify else ("unchecked", None)
    rec = quad_record(k, polya_order_quad(k), status)
    return _write(sys.stdout, [(rec, _mismatch_note(k, status, details))], args.format)


def _row(K, rec, units: int | None):
    """The row rec = polya_report(K) with the oracle's verify status under a
    budget of units (unchecked when None), and its mismatch line or None;
    budget exhaustion propagates."""
    if units is None:
        return rec, None
    status, details = verify_biquad(K, rec, AmbiguousIdealOracle(K, units))
    return rec.with_status(status), _mismatch_note(K, status, details)


def _cmd_biquad(args) -> int:
    units = _budget_units(args)
    K = biquadratic_field(args.d1, args.d2)
    rec, note = _row(K, polya_report(K), units)
    code = _write(sys.stdout, [(rec, note)], args.format)
    if args.chain and args.format == "text":
        sys.stdout.write(
            f"chain: (H3:H2)={rec.h3_h2}  (H2:H1)={rec.h2_h1}  (H1:H0)={rec.h1_h0}  "
            f"product={rec.h3_h2 * rec.h2_h1 * rec.h1_h0} = 2^s_K = (H3:H0)={rec.h3_h0}\n")
    return code


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
    a, b, units = task
    K = biquadratic_field(a, b)
    rec = polya_report(K)
    try:
        return _row(K, rec, units)
    except BudgetExceededError:
        return rec.with_status("budget_exceeded"), None


def _cmd_scan(args) -> int:
    if args.bound < 2:
        raise InvalidInputError("--bound must be at least 2")
    if args.real_only and args.imag_only:
        raise InvalidInputError("--real-only and --imag-only are exclusive")
    if args.jobs < 1:
        raise InvalidInputError("--jobs must be at least 1")
    units = _budget_units(args)
    tasks = [(a, b, units) for a, b in _scan_tasks(args.bound, args.real_only, args.imag_only)]
    # FILE is created before the first field, so an unwritable one costs no scan
    with open(args.out, "w") if args.out else contextlib.nullcontext(sys.stdout) as fh:
        # pool.map keeps the order; more workers than CPUs would only add processes
        workers = min(args.jobs, len(tasks), os.cpu_count() or 1)
        if workers > 1:
            import multiprocessing  # only here: it costs more to import than a request
            with multiprocessing.Pool(workers) as pool:
                results = pool.map(_scan_worker, tasks)
        else:
            results = [_scan_worker(t) for t in tasks]
        return _write(fh, results, args.format)


# subcommand -> (handler, positionals, flags, valued options: name -> (type,
# default)), each named as its handler reads it; a default of ... marks a
# required option.  Every subcommand also takes one of the _FORMATS flags.
_COMMANDS = {
    "quad": (_cmd_quad, ("d",), ("verify",), {"budget": (int, None)}),
    "biquad": (_cmd_biquad, ("d1", "d2"), ("verify", "chain"), {"budget": (int, None)}),
    "scan": (_cmd_scan, (), ("real_only", "imag_only", "verify"),
             {"bound": (int, ...), "out": (str, None), "jobs": (int, 1),
              "budget": (int, None)}),
}
_FORMATS = ("json", "csv", "text")


def _usage_error(message: str):
    """Usage errors exit 1 through main: exit 2 means a mismatch."""
    sys.stderr.write(USAGE)
    raise InvalidInputError(message)


def _is_option(token: str) -> bool:
    """A lone minus sign, or one followed by digits, is a positional."""
    return len(token) > 1 and token[0] == "-" and not token[1:].isdecimal()


def _convert(name: str, kind, value: str):
    try:
        return kind(value)
    except ValueError:
        _usage_error(f"argument {name}: invalid {kind.__name__} value: {value!r}")


def parse_args(argv: list[str]) -> SimpleNamespace:
    """The command line argv read in one pass against _COMMANDS: func, the
    positionals, flags and options by name, and the output format.  Options
    may come anywhere, as --opt value or --opt=value, spelled in full.  -h
    or --help anywhere prints USAGE and the module docstring and raises
    SystemExit(0)."""
    if "-h" in argv or "--help" in argv:
        sys.stdout.write(USAGE + "\n" + (__doc__ or ""))
        sys.stdout.flush()  # a failed write is an IO error, for main to report
        raise SystemExit(0)
    if not argv:
        _usage_error("the following arguments are required: command")
    if argv[0] not in _COMMANDS:
        _usage_error(f"argument command: invalid choice: {argv[0]!r}")
    func, positionals, flags, options = _COMMANDS[argv[0]]
    args = dict.fromkeys(flags, False)
    args.update((name, default) for name, (_, default) in options.items())
    formats, values = set(), []
    tokens = iter(argv[1:])
    for token in tokens:
        if not _is_option(token):
            values.append(token)
            continue
        option, eq, value = token.partition("=")
        # the table names --real-only real_only, as the handler reads it
        name = option[2:].replace("-", "_") if option[:2] == "--" and "_" not in option else ""
        if not eq and name in _FORMATS:
            formats.add(name)
        elif not eq and name in flags:
            args[name] = True
        elif name in options:
            if not eq:
                value = next(tokens, None)
                if value is None or _is_option(value):
                    _usage_error(f"argument {option}: expected one argument")
            args[name] = _convert(option, options[name][0], value)
        else:
            _usage_error(f"unrecognized arguments: {token}")
    if len(values) > len(positionals):
        _usage_error("unrecognized arguments: " + " ".join(values[len(positionals):]))
    missing = positionals[len(values):] + tuple(
        "--" + name.replace("_", "-") for name, value in args.items() if value is ...)
    if missing:
        _usage_error("the following arguments are required: " + ", ".join(missing))
    args.update((name, _convert(name, int, value)) for name, value in zip(positionals, values))
    if len(formats) > 1:
        raise InvalidInputError("choose at most one output format")
    return SimpleNamespace(func=func, format=formats.pop() if formats else "text", **args)


def main(argv=None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
        code = args.func(args)
        sys.stdout.flush()  # a failed write raises here, not in the flush at exit
        return code
    except (InvalidInputError, DomainError, OSError) as exc:
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
