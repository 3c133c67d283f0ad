import contextlib
import io
import itertools
import os
import random
from math import prod

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from polyabiquad.biquadratic import biquadratic_field
from polyabiquad.cli import main
from polyabiquad.errors import InconsistencyError
from polyabiquad.intmath import squarefree_part
from polyabiquad.lattice import AmbiguousIdealOracle
from polyabiquad.polya import (j2_value, kernel_order, polya_report, verify_biquad,
                               verify_quad)
from polyabiquad.quadratic import polya_order_quad, quadratic_field
from polyabiquad.report import OutputRecord
from polyabiquad.units import unit_cohomology_order

# Q(sqrt2, sqrt d) with the prime above 2 nonprincipal but its class extended
# from a subfield (j2 = 0), and five fields with s_K >= 5
Q_SQRT2_FAMILY = ((2, 51), (2, 123), (2, 187), (2, 287))
MANY_PRIME_PAIRS = ((-210, 143), (210, 143), (-2310, 13), (-1155, 26), (30, 77))


def small_corpus(bound):
    vals = [v for v in range(-bound, bound + 1)
            if v not in (0, 1) and squarefree_part(v) == v]
    seen = set()
    for a, b in itertools.combinations(vals, 2):
        K = biquadratic_field(a, b)
        if K.d not in seen:
            seen.add(K.d)
            yield K


def test_cokernel_examples():
    assert polya_report(biquadratic_field(-1, 2)).coker == 1  # 1+zeta8 generates
    assert polya_report(biquadratic_field(-1, -3)).coker == 1  # i2 = 0
    assert polya_report(biquadratic_field(2, 3)).coker == 1
    # a field where the class of the prime over 2 lies outside the image of the
    # subfield ambiguous classes: j2 = 1
    K = biquadratic_field(-5, -10)
    assert K.profile.i2 == 1 and j2_value(K) == 1
    assert polya_report(K).coker == AmbiguousIdealOracle(K).cokernel_order_oracle() == 2


def test_kernel_order_branches():
    # imaginary, s_K = 1, i2 = 1, q = 2: (1/(2q)) * 2^2 = 1
    K8 = biquadratic_field(-1, 2)
    assert (K8.profile.s_k, K8.profile.i2, K8.units.q_k) == (1, 1, 2)
    assert kernel_order(K8) == 1
    # real with nu_K = 2, q = 4: (1/(2q)) * 2^3 = 1
    K23 = biquadratic_field(2, 3)
    assert (K23.units.nu_k, K23.units.q_k) == (2, 4)
    assert kernel_order(K23) == 1
    # real with nu_K = 0 branch: (1/q) * prod e_p
    K25 = biquadratic_field(2, 5)
    assert K25.units.nu_k == 0
    assert kernel_order(K25) == K25.profile.product_e // K25.units.q_k == 2


def test_polya_order_named_fields():
    assert polya_report(biquadratic_field(-1, 2)).po_k == 1
    assert polya_report(biquadratic_field(-1, -3)).po_k == 1
    assert polya_report(biquadratic_field(2, 3)).po_k == 1  # exercises max(1, nu_K)


def test_chain_examples():
    assert polya_report(biquadratic_field(-1, 2)).h1_h0 == 2   # sqrt(-1) in K
    assert polya_report(biquadratic_field(2, 3)).h1_h0 == 4    # sqrt(-1) not in K
    for K in (biquadratic_field(-1, -3), biquadratic_field(2, 3),
              biquadratic_field(-1, -5)):
        if K.profile.s_k == 2:
            assert polya_report(K).h3_h0 == 4  # (H3:H0) = 2^s_K


def test_chain_telescopes_on_corpus():
    for K in small_corpus(8):
        rec = polya_report(K)
        assert rec.h3_h2 * rec.h2_h1 * rec.h1_h0 == rec.h3_h0 == 2 ** K.profile.s_k
        # sqrt(-1) lies in K exactly when -1 is one of the d_i
        assert (rec.mu_order % 4 == 0) == (-1 in K.d)
        assert rec.h1_h0 == (2 if -1 in K.d else 4)


def test_report_assembles_and_decomposition_identity():
    for K in small_corpus(7):
        rep = polya_report(K)
        assert rep.po_k * rep.ker == rep.po1 * rep.po2 * rep.po3 * rep.coker
        assert K.profile.product_e == 2 ** (rep.s_k + rep.i2)
        for v in (rep.po1, rep.po2, rep.po3, rep.ker, rep.coker, rep.po_k,
                  rep.h3_h0, rep.h2_h1, rep.h1_h0, rep.h3_h2):
            assert v & (v - 1) == 0


def test_the_positional_row_names_every_column():
    # polya_report writes its row by position; here each column is named and
    # read from K, its subfields, K.profile and K.units, so on every field of
    # bound 30 a swapped column fails by its name
    from polyabiquad.cli import _scan_tasks
    from polyabiquad.polya import _chain_indices
    pairs = _scan_tasks(30, False, False)
    assert len(pairs) == 534
    for pair in pairs:
        K = biquadratic_field(*pair)
        (k1, k2, k3), prof, us = K.subfields, K.profile, K.units
        j2, ker = j2_value(K), kernel_order(K)
        po1, po2, po3 = (polya_order_quad(k) for k in K.subfields)
        h30, h21, h10, h32 = _chain_indices(K, ker, po1 * po2 * po3)
        drop = max(1, us.nu_k) if K.is_real else us.nu_k
        e = prof.s_k + j2 - 2 - drop
        expected = dict(
            d1=k1.d, d2=k2.d, d3=k3.d, delta1=k1.delta, delta2=k2.delta, delta3=k3.delta,
            s1=k1.s, s2=k2.s, s3=k3.s, s_k=prof.s_k, i2=prof.i2, e2=prof.e2, j2=j2,
            q_k=us.q_k, mu_order=us.mu_order,
            lambda1=us.lam[0], lambda2=us.lam[1], lambda3=us.lam[2], nu_k=us.nu_k,
            po1=po1, po2=po2, po3=po3, ker=ker, coker=2 ** j2,
            po_k=us.q_k << e if e >= 0 else us.q_k >> -e,
            h3_h0=h30, h2_h1=h21, h1_h0=h10, h3_h2=h32, verify_status="unchecked")
        rec = polya_report(K)
        assert rec._asdict() == expected, pair
        assert rec == OutputRecord(**expected), pair


@pytest.mark.parametrize("change, message", [
    (lambda r: {"po_k": 2 * r.po_k}, "decomposition identity"),
    (lambda r: {"h3_h2": 2 * r.h3_h2}, "telescope"),
    (lambda r: {"po1": 3 * r.po1, "ker": 3 * r.ker}, "powers of two"),
])
def test_record_that_breaks_an_identity_raises(change, message):
    # through the constructor: _replace skips the checks
    rec = polya_report(biquadratic_field(-5, -10))
    with pytest.raises(InconsistencyError, match=message):
        OutputRecord(**{**rec._asdict(), **change(rec)})


def test_report_example_zeta8():
    rep = polya_report(biquadratic_field(-1, 2))
    assert (rep.po1, rep.po2, rep.po3) == (1, 1, 1)
    assert (rep.ker, rep.coker, rep.po_k) == (1, 1, 1)
    assert (rep.q_k, rep.j2, rep.nu_k) == (2, 0, 0)


def test_verify_biquad_ok_and_oracle_reuse():
    K = biquadratic_field(-1, -5)
    orc = AmbiguousIdealOracle(K)
    status, details = verify_biquad(K, polya_report(K), orc)
    assert status == "ok"
    assert details["po_oracle"] == details["po_formula"] == 1
    assert details["ker_oracle"] == details["ker_formula"] == 2
    assert details["coker_oracle"] == details["coker_formula"] == 1


def test_verify_quad():
    status, det = verify_quad(quadratic_field(-5))
    assert status == "ok" and det["po_formula"] == 2
    status, det = verify_quad(quadratic_field(3))
    assert status == "ok" and det["po_formula"] == 1


def test_formula_oracle_agreement_with_nontrivial_values():
    # fields exercising j2 = 1, kernel > 1, |Po| > 1
    for pair in ((-5, -10), (-1, -5), (2, 5), (-5, 13), (-6, -10)):
        K = biquadratic_field(*pair)
        status, details = verify_biquad(K, polya_report(K))
        assert status == "ok", (pair, details)


# a signed product of at most four distinct primes <= 53; two of them ramify
# at most nine primes in K, so s_K <= 10
_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)
_SQUAREFREE = st.builds(lambda sign, ps: sign * prod(ps), st.sampled_from((1, -1)),
                        st.lists(st.sampled_from(_PRIMES), unique=True, max_size=4))


@settings(max_examples=40, deadline=None)
@given(_SQUAREFREE, _SQUAREFREE)
def test_formula_matches_oracle_on_random_fields(d1, d2):
    assume(1 not in (d1, d2) and d1 != d2)
    K = biquadratic_field(d1, d2)
    assert len(K.profile.primes) <= 10
    status, details = verify_biquad(K, polya_report(K))
    assert status == "ok", (K.d, details)


def test_formula_matches_oracle_on_wide_random_fields():
    # eight fixed fields, each d_i a signed product of four to seven primes
    # <= 53: s_K runs from 7 to 12
    rng = random.Random(12345)
    s_ks = []
    for _ in range(8):
        d1, d2 = (rng.choice((1, -1)) * prod(rng.sample(_PRIMES, rng.randint(4, 7)))
                  for _ in range(2))
        K = biquadratic_field(d1, d2)
        assert K.profile.s_k <= 12, K.d
        s_ks.append(K.profile.s_k)
        status, details = verify_biquad(K, polya_report(K))
        assert status == "ok", (K.d, details)
    assert max(s_ks) == 12 and s_ks.count(11) == 2


@settings(max_examples=40, deadline=None)
@given(_SQUAREFREE, _SQUAREFREE)
def test_the_field_does_not_depend_on_the_generating_pair(d1, d2):
    # any two of d1, d2, d3 = sf(d1*d2) generate K: the canonical triple and
    # the printed row are the same for all three pairs
    assume(1 not in (d1, d2) and d1 != d2)
    d3 = squarefree_part(d1 * d2)
    pairs = ((d1, d2), (d2, d3), (d1, d3))
    assert len({biquadratic_field(*pair).d for pair in pairs}) == 1
    rows = set()
    for pair in pairs:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["biquad", *map(str, pair), "--json"]) == 0
        rows.add(out.getvalue())
    assert len(rows) == 1, pairs


def test_unit_cohomology_times_oracle_polya_order_is_prod_e():
    # Zantema: 0 -> H^1(G, O_K^x) -> sum_p Z/e_p -> Po(K) -> 0, checked against
    # the direct class count on every field with |d_i| <= 60, with and
    # without a totally ramified 2, and on fields past it; Q(sqrt2, sqrt51)
    # lies in both
    fields = [*small_corpus(60),
              *(biquadratic_field(*p) for p in Q_SQRT2_FAMILY + MANY_PRIME_PAIRS)]
    assert len({K.d for K in fields}) == 2284 + 3 + 5
    for K in fields:
        h1 = unit_cohomology_order(K)
        po = AmbiguousIdealOracle(K).polya_order_oracle()
        assert h1 * po == K.profile.product_e, (K.d, h1, po)


def test_a_corrupt_relative_norm_sign_raises_under_python_O():
    # every input the H^1 computation reads a sign from is guarded by a raise,
    # not an assert: drop in turn the radical index of each square class it
    # reads its characters off (each index is the one its root was built and
    # squared back with), in a real field and in two imaginary fields with
    # the class (1, 1), where the index gives the sign of both relative norms
    import subprocess, sys
    import polyabiquad
    script = """
from polyabiquad.biquadratic import biquadratic_field
from polyabiquad.errors import InconsistencyError
from polyabiquad.polya import polya_report

for pair in ((2, 51), (-2, 59), (-1, 46)):
    K = biquadratic_field(*pair)
    index = K.units.radical_index
    for a in sorted(index):
        j = index.pop(a)
        try:
            polya_report(K)
        except InconsistencyError:
            print("raised", pair, a)
        else:
            print("passed", pair, a)
        index[a] = j
"""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(polyabiquad.__file__)))
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    # the three square classes of Q(sqrt2, sqrt51), all with a1 = 0, and the
    # class (1, 1) of Q(sqrt-2, sqrt59) and of Q(sqrt-1, sqrt46)
    assert lines == ["raised (2, 51) (0, 0, 1)", "raised (2, 51) (0, 1, 0)",
                     "raised (2, 51) (0, 1, 1)", "raised (-2, 59) (1, 1)",
                     "raised (-1, 46) (1, 1)"], lines
