"""Acceptance suite: every criterion is exact (zero tolerance) and printed
as one PASS/FAIL line.  Run with `pytest tests/test_acceptance.py -v -s`.

Corpora:
  - quadratic sweep: all squarefree 2 <= |d| <= 150
  - structural / chain corpus: all biquadratic fields with |d1|, |d2| <= 20
  - oracle corpus: all biquadratic fields with |d1|, |d2| <= 15
"""

import hashlib
import itertools
import time

import pytest

from exact_reference import gram_determinant
from polyabiquad.biquadratic import biquadratic_field
from polyabiquad.cli import main
from polyabiquad.errors import BudgetExceededError
from polyabiquad.intmath import squarefree_part
from polyabiquad.lattice import AmbiguousIdealOracle
from polyabiquad.polya import polya_report
from polyabiquad.quadratic import (ambiguous_oracle_quad, polya_order_quad,
                                   quadratic_field)

QUAD_SWEEP_LIMIT_S = 60.0
STRUCTURAL_LIMIT_S = 300.0
ORACLE_LIMIT_S = 900.0


def _fields(bound):
    vals = [v for v in range(-bound, bound + 1)
            if v not in (0, 1) and squarefree_part(v) == v]
    seen = {}
    for a, b in itertools.combinations(vals, 2):
        K = biquadratic_field(a, b)
        seen.setdefault(K.d, K)
    return [seen[t] for t in sorted(seen)]


@pytest.fixture(scope="module")
def corpus_20():
    return _fields(20)


@pytest.fixture(scope="module")
def oracle_results_15():
    """Formula reports plus both oracle counts for the |d_i| <= 15 corpus,
    under the default budget; build time is part of the acceptance budget."""
    t0 = time.time()
    out = {}
    for K in _fields(15):
        orc = AmbiguousIdealOracle(K)
        rep = polya_report(K)
        out[K.d] = (rep, orc.polya_order_oracle(), orc.kernel_order_oracle())
    return out, time.time() - t0


def test_criterion_eq1_quadratic_sweep():
    """|Po(k)| formula == ambiguous-class enumeration for 2 <= |d| <= 150."""
    t0 = time.time()
    checked = 0
    for d in range(-150, 151):
        if abs(d) < 2 or squarefree_part(d) != d:
            continue
        k = quadratic_field(d)
        assert ambiguous_oracle_quad(k) == polya_order_quad(k) == 2 ** (k.s - 1 - k.nu), d
        checked += 1
    elapsed = time.time() - t0
    assert checked >= 180
    assert elapsed < QUAD_SWEEP_LIMIT_S
    print(f"\nPASS eq1-sweep: {checked} quadratic fields, oracle == 2^(s-1-nu), "
          f"{elapsed:.1f}s")


def test_criterion_structural_identities(corpus_20):
    """Ramification and unit-index identities on the |d_i| <= 20 corpus."""
    t0 = time.time()
    for K in corpus_20:
        prof, us = K.profile, K.units
        assert sum(k.s for k in K.subfields) == 2 * prof.s_k + prof.i2, K.d
        prod_disc = 1
        for k in K.subfields:
            prod_disc *= k.delta
        assert gram_determinant(K) == prod_disc, K.d
        assert (4 if K.is_real else 2) % us.q_k == 0, K.d
        assert prof.product_e == 2 ** (prof.s_k + prof.i2), K.d
    elapsed = time.time() - t0
    assert elapsed < STRUCTURAL_LIMIT_S
    print(f"\nPASS structural-identities: {len(corpus_20)} fields, "
          f"{elapsed:.1f}s")


def test_criterion_kernel_formula_vs_oracle(oracle_results_15):
    """Kernel-order formula == direct capitulation count, |d_i| <= 15."""
    results, elapsed = oracle_results_15
    for triple, (rep, _po_o, ker_o) in results.items():
        assert rep.ker == ker_o, (triple, rep.ker, ker_o)
    assert elapsed < ORACLE_LIMIT_S
    print(f"\nPASS kernel-vs-oracle: {len(results)} fields, zero budget_exceeded, "
          f"corpus built in {elapsed:.1f}s")


def test_criterion_polya_order_formula_vs_oracle(oracle_results_15):
    """|Po(K)| formula == direct class count, plus the decomposition identity."""
    results, _ = oracle_results_15
    for triple, (rep, po_o, _ker_o) in results.items():
        assert rep.po_k == po_o, (triple, rep.po_k, po_o)
        assert rep.po_k * rep.ker == rep.po1 * rep.po2 * rep.po3 * rep.coker, triple
    print(f"\nPASS polya-order-vs-oracle: {len(results)} fields, "
          f"decomposition identity holds on every row")


def test_criterion_chain_telescope(corpus_20):
    """(H3:H2)(H2:H1)(H1:H0) = 2^s_K; (H1:H0) = 2 iff sqrt(-1) in K, else 4."""
    for K in corpus_20:
        rec = polya_report(K)
        assert rec.h3_h2 * rec.h2_h1 * rec.h1_h0 == rec.h3_h0 == 2 ** K.profile.s_k, K.d
        assert rec.h1_h0 == (2 if -1 in K.d else 4), K.d
    print(f"\nPASS chain-telescope: {len(corpus_20)} fields")


def test_criterion_named_fields():
    """Three reference fields: oracle path first, formula path must match."""
    expectations = [
        ((-1, 2), dict(q_k=2, j2=0, po_k=1)),
        ((-1, -3), dict(q_k=2, nu_k=1, po_k=1)),
        ((2, 3), dict(q_k=4, nu_k=2, i2=1, po_k=1)),
    ]
    for pair, want in expectations:
        K = biquadratic_field(*pair)
        orc = AmbiguousIdealOracle(K)
        po_oracle = orc.polya_order_oracle()
        ker_oracle = orc.kernel_order_oracle()
        assert po_oracle == want["po_k"], (pair, po_oracle)
        rep = polya_report(K)
        assert rep.po_k == po_oracle and rep.ker == ker_oracle, pair
        for key, val in want.items():
            assert getattr(rep, key) == val, (pair, key)
    print("\nPASS named-fields: Q(i,sqrt2), Q(i,sqrt-3), Q(sqrt2,sqrt3)")


def test_criterion_scan_determinism(capsys):
    """`scan --bound 10 --json` byte-identical across runs and worker counts."""
    outputs = []
    for argv in (["scan", "--bound", "10", "--json"],
                 ["scan", "--bound", "10", "--json"],
                 ["scan", "--bound", "10", "--json", "--jobs", "3"]):
        code = main(argv)
        assert code == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1] == outputs[2]
    rows = len(outputs[0].splitlines())
    print(f"\nPASS scan-determinism: {rows} rows byte-identical across runs "
          f"and worker counts")


def test_criterion_scan_output_is_frozen(capsys):
    """`scan --json` byte-identical to the frozen SHA-256 on bound 30 and on
    bounds 20, 40 and 60 verified (every one of the 1,057 bound-40 rows is
    ok, and verified bound 60 exits 0)."""
    frozen = {
        ("--bound", "30"):
            "55b7e9e0638e2c99a6811cbbd2d9aa718abf9381498bf2521615b9872f719870",
        ("--bound", "20", "--verify"):
            "81bd07659265f564f868f48358756fb7c6dc9cdcde0a2e73c46aa3fa4182f6e1",
        ("--bound", "40", "--verify", "--jobs", "2"):
            "cac3cab988d9651b91c2c89a60753b13485892bf9ad9a03c7019444eaa3116c6",
        ("--bound", "60", "--verify", "--jobs", "2"):
            "7093bf81d7de07685f39244ce729a39f2144c5c841dfbd7f10e9ac692ccbbaf6",
    }
    for args, digest in frozen.items():
        assert main(["scan", *args, "--json"]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest, args
    print(f"\nPASS scan-frozen: {len(frozen)} scans match their SHA-256")


def test_criterion_quad_output_is_frozen(capsys):
    """`quad d --json --verify` byte-identical to the frozen SHA-256 over all
    1,215 squarefree 2 <= |d| <= 1000 (77 units with eps_den = 2)."""
    fields = 0
    for d in range(-1000, 1001):
        if d in (0, 1) or squarefree_part(d) != d:
            continue
        assert main(["quad", str(d), "--json", "--verify"]) == 0, d
        fields += 1
    out = capsys.readouterr().out
    assert fields == 1215
    assert sum('"eps_den": 2' in line for line in out.splitlines()) == 77
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "5cb5557d1c34510b79c05aee0cdbd4e01f5a057f9a5f0e6fa05f38580f01a187"
    print(f"\nPASS quad-frozen: {fields} quadratic fields match their SHA-256")
