"""Reference-normalised benchmark of the polyabiquad CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout of the repository; the program is imported from its
``src`` directory, never from an installed copy.  Each field is one
in-process request to ``polyabiquad.cli.main(["biquad", d1, d2, "--json"]
[+ ["--verify"]])`` from a single client in a closed loop.  Its stdout is
parsed and checked against facts computed apart from the program
(fields.py).

Every timed section is converted into reference time: its wall time times
NOMINAL_KERNEL_S over the wall time of the reference kernel, timed just
before and just after it and every 25 ms inside it (refkernel.py).  The run makes whole passes over the
workload's corpus in an order drawn from the seed: at least the workload's
own number of passes, and more while less than S wall seconds have gone by.

With --trace 0 the last stdout line reports the end-to-end metrics; with
--trace 1 it reports the per-layer metrics of a traced pass (layertrace.py)
and the tracing overhead over an untraced pass of the same run.  Per-run
details go to bench/out/.  Exits 2 without a result when the program is
missing or a set-up step fails.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import math
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import fields
from layertrace import LayerTracer
from refkernel import ReferenceClock

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

SETUP_RUNS = 9
SPOT_CHECKS = 12
SETUP_TRIPLE = (-2, -1, 2)


def _scan(bound: int):
    return [(t, (t[0], t[1])) for t in fields.scan_corpus(bound)]


def _manyprime():
    return [(fields.triple_of(a, b), (a, b)) for a, b in fields.MANYPRIME_PAIRS]


# name: (corpus function, expected corpus size, --verify, spot checks,
# least number of passes)
WORKLOADS = {
    "b20_verify": (lambda: _scan(20), 236, True, 0, 1),
    "b30_formula": (lambda: _scan(30), 534, False, SPOT_CHECKS, 1),
    "manyprime_verify": (_manyprime, 5, True, 0, 2),
}

# (metric, unit) of the traced run, in report order.
PER_LAYER = [
    ("biquadratic.biquadratic_field.calls", "count"),
    ("biquadratic.biquadratic_field.self_ref_ms", "ref_ms"),
    ("units.unit_structure.total_ref_ms", "ref_ms"),
    ("units.integral_square_root.calls", "count"),
    ("units.integral_square_root.self_ref_ms", "ref_ms"),
    ("units.integral_square_root.found_ratio", "ratio"),
    ("lattice.principal_ideal_generator.calls", "count"),
    ("lattice.principal_ideal_generator.self_ref_ms", "ref_ms"),
    ("lattice.principal_ideal_generator.total_ref_ms", "ref_ms"),
    ("lattice.principal_ideal_generator.found_ratio", "ratio"),
    ("lattice.relative_norm_ideal.calls", "count"),
    ("lattice.relative_norm_ideal.self_ref_ms", "ref_ms"),
    ("lattice.prime_radical.self_ref_ms", "ref_ms"),
    ("lattice.AmbiguousIdealOracle.class_representatives.calls", "count"),
    ("lattice.AmbiguousIdealOracle.class_representatives.self_ref_ms", "ref_ms"),
    ("lattice.AmbiguousIdealOracle.polya_order_oracle.total_ref_ms", "ref_ms"),
    ("lattice.AmbiguousIdealOracle.kernel_order_oracle.total_ref_ms", "ref_ms"),
    ("quadratic.principal_generator_quad.calls", "count"),
    ("quadratic.principal_generator_quad.self_ref_ms", "ref_ms"),
    ("quadratic.principal_generator_quad.found_ratio", "ratio"),
    ("linalg.hnf_rows.calls", "count"),
    ("linalg.hnf_rows.self_ref_ms", "ref_ms"),
    ("polya.polya_report.calls", "count"),
    ("polya.polya_report.total_ref_ms", "ref_ms"),
    ("polya.verify_biquad.total_ref_ms", "ref_ms"),
    ("cli.main.self_ref_ms", "ref_ms"),
    ("errors.Budget.units_spent", "count"),
    ("trace.overhead_ratio", "ratio"),
]


class SetupError(RuntimeError):
    """The benchmark could not start measuring."""


def load_cli():
    """polyabiquad.cli imported from this checkout's src directory."""
    if not (SRC / "polyabiquad" / "__init__.py").is_file():
        raise SetupError(f"no polyabiquad package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from polyabiquad import cli
    if Path(cli.__file__).resolve().parent != SRC / "polyabiquad":
        raise SetupError(f"polyabiquad was imported from {cli.__file__}")
    return cli


def ask(cli, pair, verify: bool):
    """One request; returns (exit code or None on an exception, stdout, stderr)."""
    argv = ["biquad", str(pair[0]), str(pair[1]), "--json"]
    if verify:
        argv.append("--verify")
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except (Exception, SystemExit) as exc:
        return None, out.getvalue(), f"{type(exc).__name__}: {exc}"
    return rc, out.getvalue(), err.getvalue()


def timed_pass(cli, order, verify: bool, tracer: LayerTracer | None = None):
    """Answer every field of `order` once.  Each record holds the field, the
    answer, its wall and reference seconds and the kernel samples taken
    around and inside it."""
    clock = ReferenceClock()
    if tracer:
        tracer.clock = clock.now
    records = []
    for triple, pair in order:
        (rc, out, err), wall, ref, kernels = clock.measure(ask, cli, pair, verify)
        records.append({
            "triple": triple, "pair": pair, "rc": rc, "stdout": out, "stderr": err,
            "wall_s": wall, "ref_s": ref, "kernel_s": kernels,
            "layers": tracer.take() if tracer else None})
    return records


def judge(rec, verify: bool) -> list[str]:
    """Why the field failed: a non-zero exit, an exception or a failed
    output check; empty when it passed."""
    if rec["rc"] != 0:
        return [f"exit {rec['rc']}: {rec['stderr'].strip()[-300:]}"]
    try:
        rec["row"] = fields.parse_row(rec["stdout"])
    except ValueError as exc:
        return [f"unparsable output: {exc}"]
    return fields.check_row(rec["triple"], rec["row"], "ok" if verify else "unchecked")


def measure_setup() -> list[float]:
    """Reference seconds for fresh processes to import and answer Q(i, sqrt 2);
    the first, untimed, start compiles the bytecode."""
    out = []
    for i in range(SETUP_RUNS + 1):
        proc = subprocess.run([sys.executable, str(BENCH_DIR / "probe.py"), str(SRC)],
                              capture_output=True, text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            raise SetupError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        res = json.loads(proc.stdout.splitlines()[-1])
        if Path(res["module"]).resolve().parent != SRC / "polyabiquad":
            raise SetupError(f"set-up probe imported {res['module']}")
        errs = ([f"exit {res['rc']}"] if res["rc"] != 0 else
                fields.check_row(SETUP_TRIPLE, fields.parse_row(res["stdout"]), "unchecked"))
        if errs:
            raise SetupError(f"set-up probe answered wrongly: {errs}")
        if i:
            out.append(res["ref_s"])
    return out


def nearest_rank(values, q: float) -> float:
    s = sorted(values)
    return s[max(0, math.ceil(q * len(s)) - 1)]


def layer_metrics(records, overhead: float) -> dict:
    calls, found, self_ms, total_ms = {}, {}, {}, {}
    units_spent = 0
    for rec in records:
        for name, val in rec["layers"].items():
            if name == "errors.Budget":
                units_spent += val
                continue
            c, f, s, t = val
            calls[name] = calls.get(name, 0) + c
            found[name] = found.get(name, 0) + f
            scale = rec["ref_s"] / rec["wall_s"]
            self_ms[name] = self_ms.get(name, 0.0) + 1000 * s * scale
            total_ms[name] = total_ms.get(name, 0.0) + 1000 * t * scale
    values = {"errors.Budget.units_spent": units_spent, "trace.overhead_ratio": overhead}
    for metric, _ in PER_LAYER:
        if metric in values:
            continue
        layer, kind = metric.rsplit(".", 1)
        c = calls.get(layer, 0)
        values[metric] = {"calls": c,
                          "self_ref_ms": self_ms.get(layer, 0.0),
                          "total_ref_ms": total_ms.get(layer, 0.0),
                          "found_ratio": found.get(layer, 0) / c if c else 0.0}[kind]
    return {m: {"value": values[m], "unit": u} for m, u in PER_LAYER}


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    build, size, verify, spot, passes = WORKLOADS[workload]
    corpus = build()
    correct = len(corpus) == size and len({t for t, _ in corpus}) == size
    if not correct:
        print(f"corpus has {len(corpus)} fields, expected {size}", file=sys.stderr)
    rng = random.Random(seed)
    cli = load_cli()
    setup = [] if trace else measure_setup()
    ask(cli, (-1, 2), verify)  # warm-up, untimed

    records, traced = [], []
    start = time.perf_counter()
    for done in itertools.count(1):
        order = corpus[:]
        rng.shuffle(order)
        records += timed_pass(cli, order, verify)
        if trace or (done >= passes and time.perf_counter() - start >= seconds):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if trace:
        tracer = LayerTracer()
        tracer.install()
        try:
            traced = timed_pass(cli, order, verify, tracer)
        finally:
            tracer.uninstall()

    problems = []
    for rec in records + traced:
        errs = judge(rec, verify)
        rec["failed"] = bool(errs)
        if errs:
            correct = correct and rec["rc"] != 0
            problems.append(f"{rec['triple']}: {'; '.join(errs)}")
    for rec in rng.sample(records, min(spot, len(records))):
        again = {"triple": rec["triple"], "stderr": ""}
        again["rc"], again["stdout"], _ = ask(cli, rec["pair"], True)
        if judge(again, True) or {**again["row"], "verify_status": "unchecked"} != rec.get("row"):
            problems.append(f"{rec['triple']}: spot check with --verify disagrees")
            correct = False
    for p in problems[:20]:
        print(f"problem: {p}", file=sys.stderr)

    ref_s = [r["ref_s"] for r in records]
    answered = sum(not r["failed"] for r in records)
    kernels = [k for r in records for k in r["kernel_s"]]
    kq = statistics.quantiles(kernels, n=4)
    summary = {
        "raw_s": sum(r["wall_s"] for r in records), "ref_s": sum(ref_s),
        "kernel_median_s": statistics.median(kernels),
        "kernel_iqr_share": (kq[2] - kq[0]) / kq[1], "fields": len(records)}
    if trace:
        traced_ref = sum(r["ref_s"] for r in traced)
        overhead = traced_ref / summary["ref_s"] - 1
        summary.update(traced_ref_s=traced_ref, trace_overhead_ratio=overhead)
        metrics = layer_metrics(traced, overhead)
    else:
        metrics = {
            "fields_per_ref_s": {"value": answered / sum(ref_s), "unit": "1/ref_s"},
            "field_ref_ms_p50": {"value": 1000 * nearest_rank(ref_s, 0.5), "unit": "ref_ms"},
            "field_ref_ms_p90": {"value": 1000 * nearest_rank(ref_s, 0.9), "unit": "ref_ms"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
        summary["setup_ref_s"] = setup
    print("summary: " + json.dumps(summary), file=sys.stderr)
    _write_details(workload, seed, trace, summary, records + traced)
    return {"correct": correct, "attempted": len(records) + len(traced),
            "failed": sum(r["failed"] for r in records + traced), "metrics": metrics}


def _write_details(workload, seed, trace, summary, records) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    keep = ("triple", "rc", "wall_s", "ref_s", "kernel_s", "layers")
    path = OUT_DIR / f"{workload}-seed{seed}{'-trace' if trace else ''}.json"
    path.write_text(json.dumps({"summary": summary,
                                "fields": [{k: r[k] for k in keep} for r in records]}))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
