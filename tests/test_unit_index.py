"""The unit index q_K, mu_K and the square-class roots, decided by tests on
rational integers (units.unit_structure), against the earlier search that
forms each candidate product in K and denests it (denesting_unit_structure);
the real fields' cohomology characters, read off the radical indices,
against the signs of the relative norms (relative_norm_characters); and the
imaginary fields' (w, k1, k2, c1, c2), read off closed forms, against the
powers of zeta formed in K (relative_norm_cocycle_data); and |H^1(G, O_K^x)|,
memoised per signature, against the count formed afresh in K
(relative_norm_h1_order), with the raises that each field's own call
keeps."""

import pytest

from exact_reference import (H1_MEMOS, denesting_unit_structure, relative_norm_characters,
                             relative_norm_cocycle_data, relative_norm_h1_order)
from polyabiquad.biquadratic import biquadratic_field
from polyabiquad.cli import _scan_tasks
from polyabiquad.polya import j2_value
from polyabiquad.quadratic import quadratic_field
from polyabiquad.units import _imaginary_cocycle_data, _real_characters, unit_cohomology_order

# the five fields of the benchmark's many-prime workload (s_K >= 5), the
# s_K = 13 and s_K = 17 fields, and a real subfield unit of about 64,000
# digits
LARGE_PAIRS = [(-210, 143), (210, 143), (-2310, 13), (-1155, 26), (30, 77),
               (-9699690, 31367009), (-6469693230, 297194980009), (-10000000019, -1)]


def test_unit_structure_matches_the_denesting_reference():
    pairs = _scan_tasks(60, False, False)
    assert len(pairs) == 2284
    imaginary = 0
    for pair in pairs + LARGE_PAIRS:
        K, ref_K = biquadratic_field(*pair), biquadratic_field(*pair)
        us = K.units
        ref = ref_K.__dict__["units"] = denesting_unit_structure(ref_K)
        assert (us.q_k, us.mu_order, us.lam, us.nu_k) == \
            (ref.q_k, ref.mu_order, ref.lam, ref.nu_k), pair
        assert list(us.square_class_roots) == list(ref.square_class_roots), pair
        for key, root in ref.square_class_roots.items():
            assert us.square_class_roots[key] in (root, tuple(-c for c in root)), (pair, key)
        if K.is_real:
            # the characters read off the radical indices, on the classes read
            # (a1*a2 = 0), against the signs of the relative norms in K
            ref_chi = relative_norm_characters(K, us)
            assert _real_characters(K, us) == \
                {a: c for a, c in ref_chi.items() if 0 in a[:2]}, pair
            assert unit_cohomology_order(K) == unit_cohomology_order(ref_K), pair
            assert j2_value(K) == j2_value(ref_K), pair
        else:
            # the closed forms against the powers of zeta formed in K on the
            # reference's own roots; j2 follows from |H^1| and q_K
            imaginary += 1
            assert _imaginary_cocycle_data(K, us) == relative_norm_cocycle_data(ref_K, ref), pair
            assert unit_cohomology_order(K) == relative_norm_h1_order(ref_K, ref), pair
    assert imaginary == 1722 + 6


def test_memoised_h1_matches_the_in_k_reference():
    # every field of bound 60 whose row reads |H^1| (i2 = 1) and LARGE_PAIRS:
    # the memoised count from empty memo tables, and again warm on fields
    # built afresh, against the count formed in K on every call
    from polyabiquad import units
    pairs = [p for p in _scan_tasks(60, False, False) if biquadratic_field(*p).profile.i2]
    assert len(pairs) == 624
    pairs += LARGE_PAIRS
    fields = [biquadratic_field(*pair) for pair in pairs]
    expected = [relative_norm_h1_order(K, K.units) for K in fields]
    assert not any(memo.cache_info().currsize for memo in H1_MEMOS)
    assert [unit_cohomology_order(K) for K in fields] == expected
    cold = [memo.cache_info() for memo in H1_MEMOS]
    assert [unit_cohomology_order(biquadratic_field(*pair)) for pair in pairs] == expected
    warm = [memo.cache_info() for memo in H1_MEMOS]
    assert [info.misses for info in warm] == [info.misses for info in cold]
    real = sum(K.is_real for K in fields)
    assert warm[0].hits + warm[0].misses == 2 * real == 2 * (174 + 2)
    assert units._real_h1_fraction is H1_MEMOS[0]


def test_h1_memo_tables_stay_small(capsys):
    # scan --bound 60 --json reads |H^1| on 624 rows, 174 of them real, from
    # a few dozen signatures; a second scan adds no entry
    from polyabiquad.cli import main
    infos = []
    for _ in range(2):
        assert main(["scan", "--bound", "60", "--json"]) == 0
        capsys.readouterr()
        infos.append([memo.cache_info() for memo in H1_MEMOS])
    first, second = infos
    assert [info.currsize for info in first] == [39, 12, 3]
    assert (first[0].hits, first[0].hits + first[0].misses) == (135, 174)
    assert [info.currsize for info in second] == [39, 12, 3]
    assert second[0].hits == first[0].hits + 174


def test_a_memo_hit_never_skips_a_raise():
    # the divisibility of the real count is checked outside its memo, and
    # each field reads its own characters and cocycle data before the memo
    # is asked: a signature seen before raises again, and a field whose
    # square class lost its radical index raises after a good field with
    # the same classes has filled the memo
    from polyabiquad import units
    from polyabiquad.errors import InconsistencyError

    for n in (1, 2):
        K = biquadratic_field(2, 3)
        assert (0, 1, 1) in K.units.square_class_roots
        K.units.q_k = 3
        with pytest.raises(InconsistencyError, match=r"\| = \d+/\d+ for \(2, 3, 6\)"):
            unit_cohomology_order(K)
        info = units._real_h1_fraction.cache_info()
        assert (info.misses, info.hits) == (1, n - 1)
    for pair, key in (((2, 3), (0, 1, 1)), ((-2, -118), (1, 1))):
        h1 = unit_cohomology_order(biquadratic_field(*pair))
        K = biquadratic_field(*pair)
        assert key in K.units.radical_index
        K.units.radical_index.clear()
        with pytest.raises(InconsistencyError, match=r"has no radical index"):
            unit_cohomology_order(K)
        assert unit_cohomology_order(biquadratic_field(*pair)) == h1


def test_trace_plus_2_of_named_units():
    # 1 + sqrt2, 2 + sqrt3, (1 + sqrt5)/2, 5 + 2*sqrt6 and (3 + sqrt13)/2
    assert [quadratic_field(d).trace_plus_2 for d in (2, 3, 5, 6, 13)] == [4, 6, 3, 12, 5]


def test_a_wrong_trace_plus_2_raises_where_it_is_written(capsys, monkeypatch):
    # Tr(eps) + 2 one too large on Q(sqrt51) and Q(sqrt102) once turned
    # q_K = 4 of Q(sqrt2, sqrt51) into 2 without a sound, since "r is no
    # square" has no certificate of its own; the property now checks
    # (Tr eps)**2 - 4*N(eps) = v**2*Delta and raises, and biquad exits 4
    import inspect
    import textwrap
    from polyabiquad import quadratic
    from polyabiquad.cli import main
    from polyabiquad.errors import InconsistencyError
    from polyabiquad.quadratic import QuadraticField

    source = textwrap.dedent(inspect.getsource(QuadraticField.trace_plus_2.func))
    mutated = source.replace("t = ", "t = (self.d in (51, 102)) + ", 1)
    assert mutated != source
    namespace = dict(vars(quadratic))
    exec(mutated, namespace)

    class Mutant(QuadraticField):
        trace_plus_2 = namespace["trace_plus_2"]

    assert [Mutant(d).trace_plus_2 for d in (2, 3, 5, 6, 13)] == [4, 6, 3, 12, 5]
    for d in (51, 102):
        with pytest.raises(InconsistencyError, match=f"Q\\(sqrt\\({d}\\)\\)"):
            Mutant(d).trace_plus_2
    monkeypatch.setattr(quadratic, "QuadraticField", Mutant)
    monkeypatch.setattr(quadratic, "_FIELDS", {})
    assert main(["biquad", "2", "51", "--json"]) == 4
    out, err = capsys.readouterr()
    assert not out and err.startswith("error: internal inconsistency: ")


def test_a_failed_root_on_a_long_unit_raises_inconsistency():
    # the unit of Q(sqrt(297194980009)) has coordinates of about 40,000 bits,
    # past the 4,300 digits str(int) converts: a closed-form root that does
    # not square back names K.d and the bit lengths, not the coordinates, so
    # it raises InconsistencyError (exit 4) rather than ValueError
    from polyabiquad.errors import InconsistencyError
    from polyabiquad.units import _checked_root

    K = biquadratic_field(2, 297194980009)
    k = K.subfields[1]
    assert k.d == 297194980009
    eps = K.from_quad(1, k.fundamental_unit)
    assert max(c.bit_length() for c in eps) > 39_000
    with pytest.raises(ValueError):
        str(max(eps))
    with pytest.raises(InconsistencyError, match=r"\(2, 297194980009, 594389960018\) with \d+/"):
        _checked_root(K, eps, 1, [eps[0] + 1, *eps[1:]])


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_a_squared_subfield_unit_raises_without_verify(flags):
    # a unit search that returned eps**2 in place of eps would pass its own
    # checks (norm +-1, > 1, Tr + 2 certified); unit_structure catches it, as
    # Tr(eps**2) + 2 is (Tr eps)**2 or d*v**2, whose witness puts a root of
    # eps**2 in its own subfield: every field of bound 12 exits 4 with the
    # formula route alone, under python -O too
    import os
    import subprocess
    import sys
    import polyabiquad
    script = """
import sys
from polyabiquad import quadratic
from polyabiquad.cli import _scan_tasks, main

search = quadratic._cf_fundamental_unit

def squared(k):
    u, v = search(k)
    if k.d % 4 == 1:
        return u * u + v * v * (k.d - 1) // 4, 2 * u * v + v * v
    return u * u + v * v * k.d, 2 * u * v

quadratic._cf_fundamental_unit = squared
quadratic._FIELDS.clear()
pairs = _scan_tasks(12, False, False)
print(len(pairs), sorted({main(["biquad", str(d1), str(d2), "--json"]) for d1, d2 in pairs}))
"""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(polyabiquad.__file__)))
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, *flags, "-c", script],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    n, codes = proc.stdout.split(" ", 1)
    assert int(n) > 0 and codes.strip() == "[4]", proc.stdout
    errors = proc.stderr.splitlines()
    assert len(errors) == int(n) and all(
        "internal inconsistency: the unit of Q(sqrt(" in e and "is a square in" in e
        for e in errors), errors[:3]
