import itertools
import os
import random
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import gcd, prod

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from exact_reference import (BiquadElement, basis_elements, char_poly, dict_ramification_profile,
                             element_from_coords, embed_quad, generic_basis_tables,
                             gram_determinant, integral_coords, integral_square_root_fraction,
                             loop_mul, mat_det_fraction, mu_order_table)
from polyabiquad import biquadratic
from polyabiquad.biquadratic import BiquadField, biquadratic_field
from polyabiquad.cli import _scan_tasks
from polyabiquad.errors import InconsistencyError, InvalidInputError
from polyabiquad.intmath import factorize, squarefree_part
from polyabiquad.linalg import hnf_rows
from polyabiquad.polya import polya_report
from polyabiquad.quadratic import QuadraticField, quadratic_field
from polyabiquad.units import integral_square_root, unit_structure


def radical_index(K, d):
    return {v: i + 1 for i, v in enumerate(K.d)}[d]


def element(K, **coeffs):
    """element(K, one=..., **{str(d): c}) helper for readable tests."""
    coords = [Fraction(coeffs.get("one", 0))] + [0, 0, 0]
    for i, d in enumerate(K.d):
        coords[i + 1] = Fraction(coeffs.get(str(d), 0))
    return BiquadElement(K, coords)


def radical(K, d):
    """sqrt(d) as an element."""
    return element(K, **{str(d): 1})


def neg(x):
    return [-c for c in x]


def small_corpus(bound):
    vals = [v for v in range(-bound, bound + 1)
            if v not in (0, 1) and squarefree_part(v) == v]
    seen = set()
    for a, b in itertools.combinations(vals, 2):
        K = biquadratic_field(a, b)
        if K.d not in seen:
            seen.add(K.d)
            yield K


def test_construction_examples():
    K = biquadratic_field(-1, 2)
    assert K.d == (-2, -1, 2)
    assert prod(k.delta for k in K.subfields) == 256  # (-4)*(8)*(-8)
    # sqrt(-1)*sqrt(2) = sqrt(-2), sqrt(-2)*sqrt(2) = 2*sqrt(-1), sqrt(-2)*sqrt(-1) = -sqrt(2)
    assert K.cofactors == (1, 2, -1)

    K23 = biquadratic_field(2, 3)
    assert K23.d == (2, 3, 6)
    assert (K23.profile.s_k, K23.profile.i2) == (2, 1)
    assert sum(k.s for k in K23.subfields) == 2 * 2 + 1

    K13 = biquadratic_field(-1, -3)
    assert K13.d == (-3, -1, 3)
    assert (K13.profile.s_k, K13.profile.i2) == (2, 0)
    assert K13.units.mu_order == 12


def test_canonical_triple_is_generator_independent():
    assert biquadratic_field(2, 3).d == biquadratic_field(3, 6).d \
        == biquadratic_field(6, 2).d == biquadratic_field(3, 2).d
    assert biquadratic_field(-1, 2).d == biquadratic_field(-2, 2).d \
        == biquadratic_field(-1, -2).d
    assert biquadratic_field(8, 12).d == (2, 3, 6)  # squarefree normalization


def test_degenerate_inputs_rejected():
    for pair in ((2, 2), (2, 8), (4, 3), (0, 5), (1, 7), (5, 0)):
        with pytest.raises(InvalidInputError):
            biquadratic_field(*pair)


def test_imaginary_fields_have_one_real_subfield():
    for K in small_corpus(7):
        positives = [d for d in K.d if d > 0]
        assert len(positives) == (3 if K.is_real else 1)


def test_integral_basis_certificate():
    for K in small_corpus(8):
        basis = basis_elements(K)
        assert basis[0] == element(K, one=1)
        for e in basis:
            assert all(s.denominator == 1 for s in char_poly(e))
        prod_disc = 1
        for k in K.subfields:
            prod_disc *= k.delta
        assert gram_determinant(K) == prod_disc


def test_integral_basis_matches_frozen_saturation_search():
    # the lattice the index-2 saturation search found, for every field with
    # |d_i| <= 30, before the closed form replaced it
    path = os.path.join(os.path.dirname(__file__), "integral_basis_rows.txt")
    checked = 0
    with open(path) as fh:
        for line in fh:
            if line.startswith("#"):
                continue
            vals = [int(v) for v in line.split()]
            d, frozen = tuple(vals[:3]), vals[3:]
            K = biquadratic_field(d[0], d[1])
            assert K.d == d
            H = hnf_rows([list(r) for r in K.basis_rows], 4)
            assert [v for r in H for v in r] == frozen, d
            assert K.basis_rows[0] == [4, 0, 0, 0]
            checked += 1
    assert checked == 534


def _tables(tables):
    """(rows, consts, omegas) with every vector a tuple."""
    rows, consts, omegas = tables
    return ([tuple(r) for r in rows], [[tuple(c) for c in r] for r in consts],
            [tuple(w) for w in omegas])


def _written_tables(K):
    return _tables((K.basis_rows, K.structure_constants, K.omega_rows))


_UNITS = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))


def _check_against_the_adjugate_route(K):
    """The three written tables and the derived Galois action of K against
    the tables of generic_basis_tables."""
    *tables, sigmas = generic_basis_tables(K, K.basis_rows)
    assert _written_tables(K) == _tables(tables), K.d
    assert [[K.sigma(e, t) for e in _UNITS] for t in range(4)] == sigmas, K.d


def test_integral_basis_certificate_up_to_60():
    # construction runs the discriminant certificate and the inversion check;
    # the discriminant is checked again by a rational determinant the program
    # does not use, the written-down tables and the derived Galois action
    # against the adjugate route
    patterns = set()
    for K in small_corpus(60):
        d1, d2, d3 = K.d
        det = mat_det_fraction(K.basis_rows)
        assert det * det * d1 * d2 * d3 == 256 * prod(k.delta for k in K.subfields), K.d
        assert K.basis_rows[0] == [4, 0, 0, 0]
        _check_against_the_adjugate_route(K)
        patterns.add((tuple(x % 4 for x in K.d), K.is_real, abs(gcd(d1, d2)) > 1))
    # the 10 placements of the residues mod 4 in the sorted triple, real and
    # imaginary, with and without gcd(d1, d2) > 1, less the 4 where d1 and d2
    # are both even
    assert len(patterns) == 10 * 2 * 2 - 4


def _squarefree(residue):
    return st.integers(-24_999, 24_999).map(lambda n: 4 * n + residue).filter(
        lambda d: d != 1 and squarefree_part(d) == d)


# generating pairs by residues mod 4: (1, 1) gives the pattern {1, 1, 1},
# (1, 3) and (3, 3) give 1 against {3, 3}, (1, 2) gives 1 against {2, 2},
# (3, 2) gives 3 against {2, 2}, and (2, 2) either pattern with {2, 2}
_RESIDUE_PAIRS = ((1, 1), (1, 3), (3, 3), (1, 2), (3, 2), (2, 2))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(_RESIDUE_PAIRS).flatmap(
    lambda r: st.tuples(_squarefree(r[0]), _squarefree(r[1]))))
@example((-23, -19))        # {1, 1, 1}
@example((5, 3))            # 1 against {3, 3}
@example((5, 2))            # 1 against {2, 2}
@example((3, 2))            # 3 against {2, 2}
@example((99_991, -99_989))  # two primes: d3 = -9998000099
def test_written_tables_match_the_adjugate_route_on_random_fields(pair):
    assume(pair[0] != pair[1])
    _check_against_the_adjugate_route(biquadratic_field(*pair))


def test_construction_builds_no_radical_product(monkeypatch):
    # the tables are written down: no radical product exists to call,
    # construction converts nothing, and the first read of a table converts
    # only the basis rows past the first, 1, for the inversion check, and
    # divides each by 4; a second read converts nothing
    assert not hasattr(BiquadField, "radical_product")
    calls = []
    from_radicals, divide = biquadratic._from_radicals, BiquadField.divide

    def recording(d, omegas, vec):
        calls.append(list(vec))
        return from_radicals(d, omegas, vec)

    def recording_divide(self, x, n):
        calls.append(n)
        return divide(self, x, n)

    monkeypatch.setattr(biquadratic, "_from_radicals", recording)
    monkeypatch.setattr(BiquadField, "divide", recording_divide)
    pairs = _scan_tasks(30, False, False)
    assert len(pairs) == 534
    for pair in pairs:
        calls.clear()
        K = biquadratic_field(*pair)
        assert calls == [], K.d
        rows = K.structure_constants and K.basis_rows
        assert calls == [x for r in rows[1:] for x in (list(r), 4)], K.d
        calls.clear()
        assert K.omega_rows and K.basis_columns and calls == [], K.d


def test_construction_factors_each_generator_once(monkeypatch):
    # the primes of d3 are those dividing exactly one of d1, d2, so building
    # Q(sqrt(99991), sqrt(99989)) factors the two generators and not d3
    from polyabiquad import intmath, quadratic
    args = []
    factorize = intmath.factorize

    def recording(n):
        args.append(n)
        return factorize(n)

    monkeypatch.setattr(intmath, "factorize", recording)
    monkeypatch.setattr(quadratic, "factorize", recording)
    K = biquadratic_field(99991, 99989)
    assert K.d == (99989, 99991, 99989 * 99991)
    assert sorted(args) == [99989, 99991]
    monkeypatch.undo()
    # the subfields match fields built from scratch, with non-squarefree
    # generators too
    for pair in _scan_tasks(30, False, False) + [(12, -50), (-8, 45), (18, 75)]:
        K = biquadratic_field(*pair)
        for k in K.subfields:
            fresh = QuadraticField(k.d)
            assert (k.d, k.ramified_primes) == (fresh.d, fresh.ramified_primes), pair


def test_certificate_rejects_a_lattice_that_is_not_a_ring():
    # (1 + sqrt(d1) + sqrt(d2) + sqrt(d3))/4 in place of
    # (1 + sqrt(d1))(1 + sqrt(d2))/4: sqrt(-23)*sqrt(-19) = -sqrt(437), so the
    # sign of the last coordinate is wrong, yet the discriminant is the same
    K = biquadratic_field(-23, -19)
    assert K.d == (-23, -19, 437)
    good = [list(r) for r in K.basis_rows]
    assert good[3] == [1, 1, 1, 3]
    flipped = good[:3] + [[1, 1, 1, 1]]
    assert mat_det_fraction(flipped) == -mat_det_fraction(good)
    with pytest.raises(InconsistencyError, match="products of basis elements"):
        generic_basis_tables(K, flipped)
    # Z[sqrt2, sqrt3, sqrt6] is a ring with integral subfield integers and
    # tables, of index 2 in O_K; only the discriminant certificate rejects it
    K23 = biquadratic_field(2, 3)
    identity = [[4 if i == j else 0 for j in range(4)] for i in range(4)]
    with pytest.raises(InconsistencyError, match="lattice discriminant"):
        K23._set_basis(*generic_basis_tables(K23, identity)[:3])
    # the rejected tables were not installed: the first read writes O_K's
    assert K23.basis_rows == K23._integral_basis()[0] != identity
    # a wrong sign of m_ab in Q(sqrt3, sqrt5), d_a = 5 against {3, 15}: the
    # e_c-coordinate of e_a*e_b, (m_ab - m_ac)/4, becomes (-1 - 5)/4
    K = biquadratic_field(3, 5)
    m23, m13, m12 = K.cofactors
    K.cofactors = (m23, m13, -m12)
    for _ in range(2):  # the failed certificate installs nothing to read
        with pytest.raises(InconsistencyError, match="products of basis elements"):
            K.structure_constants


def _raises_on_every_read(K, **kwargs):
    """The first read of a table raises, and so does a second, of another
    table: a failed certificate installs none."""
    with pytest.raises(InconsistencyError, **kwargs):
        K.structure_constants
    with pytest.raises(InconsistencyError, **kwargs):
        K.omega_rows


def test_every_omega_row_mutant_raises_when_the_tables_are_first_read(monkeypatch):
    # the omega rows must carry the radical map back to the basis rows, and
    # each omega_i row must satisfy omega^2 = omega + (d_i - 1)/4 or
    # omega^2 = d_i: a change of +-1 in any one entry of the three rows raises
    # when the tables are first read, on every field of bound 12, 1,800
    # mutant fields
    pairs = _scan_tasks(12, False, False)
    assert len(pairs) == 75
    written = BiquadField._integral_basis
    for i, j, step in itertools.product(range(3), range(4), (1, -1)):
        def mutant(self, i=i, j=j, step=step):
            *tables, omegas = written(self)
            omegas = [list(w) for w in omegas]
            omegas[i][j] += step
            return (*tables, omegas)

        monkeypatch.setattr(BiquadField, "_integral_basis", mutant)
        for pair in pairs:
            _raises_on_every_read(biquadratic_field(*pair),
                                  match="fails its polynomial|do not invert|not integral")


def test_every_basis_row_mutant_raises_when_the_tables_are_first_read(monkeypatch):
    # the first row must be 1, the discriminant is read off the rows, and the
    # radical map of the omega rows must send each row to its unit vector: a
    # change of +-1 in any one entry of the four rows raises when the tables
    # are first read, on every field of bound 12, 2,400 mutant fields
    pairs = _scan_tasks(12, False, False)
    assert len(pairs) == 75
    written = BiquadField._integral_basis
    for i, j, step in itertools.product(range(4), range(4), (1, -1)):
        def mutant(self, i=i, j=j, step=step):
            rows, *tables = written(self)
            rows = [list(r) for r in rows]
            rows[i][j] += step
            return (rows, *tables)

        monkeypatch.setattr(BiquadField, "_integral_basis", mutant)
        for pair in pairs:
            _raises_on_every_read(biquadratic_field(*pair))


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_every_unit_product_mutant_raises_when_the_tables_are_first_read(flags):
    # the product reads only the e_i*e_j with i, j >= 1 and takes those with
    # e_0 = 1 as the unit vectors: a change of +-1 in any one of the 28
    # integers of row 0 and column 0 of the structure constants raises when
    # the tables are first read, and again on a second read, on every field
    # of bound 12, 4,200 mutant fields, under python -O too
    import subprocess
    import sys
    import polyabiquad
    script = """
import itertools
from polyabiquad.biquadratic import BiquadField, biquadratic_field
from polyabiquad.cli import _scan_tasks
from polyabiquad.errors import InconsistencyError

written = BiquadField._integral_basis
entries = [(0, j, k) for j in range(4) for k in range(4)]
entries += [(i, 0, k) for i in range(1, 4) for k in range(4)]
pairs = _scan_tasks(12, False, False)
raised = 0
for (i, j, k), step in itertools.product(entries, (1, -1)):
    def mutant(self, i=i, j=j, k=k, step=step):
        rows, consts, omegas = written(self)
        consts = [[list(c) for c in row] for row in consts]
        consts[i][j][k] += step
        return rows, consts, omegas

    BiquadField._integral_basis = mutant
    for pair in pairs:
        K = biquadratic_field(*pair)
        for table in ("structure_constants", "omega_rows"):
            try:
                getattr(K, table)
            except InconsistencyError as exc:
                raised += "products with 1" in str(exc)
print(len(entries), len(pairs), raised)
"""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(polyabiquad.__file__)))
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, *flags, "-c", script],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["28", "75", str(28 * 2 * 75 * 2)], proc.stdout


def test_the_radical_map_raises_on_a_non_integral_element():
    # sqrt(2)/2 is no algebraic integer; sqrt(2) and (sqrt(2) + sqrt(6))/2 are
    K = biquadratic_field(2, 3)
    assert K.d == (2, 3, 6)
    with pytest.raises(InconsistencyError, match="not integral"):
        K.from_radicals((0, 1, 0, 0), 2)
    for vec, scale in (((0, 1, 0, 0), 1), ((0, 1, 0, 1), 2), ((0, 2, 0, 0), 2)):
        x = K.from_radicals(vec, scale)
        assert element_from_coords(K, x) == BiquadElement(
            K, [Fraction(v, scale) for v in vec]), vec


def test_profile_examples():
    K = biquadratic_field(-1, 2)
    assert (K.profile.primes, K.profile.exponents) == ([2], [4])
    assert (K.profile.s_k, K.profile.i2, K.profile.e2, K.profile.product_e) == (1, 1, 4, 4)

    K13 = biquadratic_field(-1, -3)
    assert (K13.profile.primes, K13.profile.exponents) == ([2, 3], [2, 2])
    assert (K13.profile.i2, K13.profile.e2, K13.profile.product_e) == (0, 2, 4)

    K23 = biquadratic_field(2, 3)
    assert (K23.profile.primes, K23.profile.exponents) == ([2, 3], [4, 2])
    assert K23.profile.product_e == 2 ** (2 + 1) == 8

    K5 = biquadratic_field(5, 13)
    assert (K5.profile.primes, K5.profile.exponents) == ([5, 13], [2, 2])
    assert (K5.profile.i2, K5.profile.e2, K5.profile.product_e) == (0, 1, 4)


def test_profiles_of_bound_60_match_the_subfield_discriminants():
    # every profile of |d_i| <= 60 against one read off the subfield
    # discriminants: p ramifies in k_i exactly when p | Delta_i, in two
    # subfields (e_p = 2) or, for p = 2 alone, in all three (e_2 = 4);
    # 2 is seen unramified, in two subfields and in three
    seen = Counter()
    fields = _scan_tasks(60, False, False)
    for pair in fields:
        K = biquadratic_field(*pair)
        deltas = [k.delta for k in K.subfields]
        primes = sorted(factorize(prod(deltas)))
        count = {p: sum(delta % p == 0 for delta in deltas) for p in primes}
        assert all(c == 2 or c == 3 and p == 2 for p, c in count.items()), K.d
        exponents = [2 * count[p] - 2 for p in primes]
        i2 = int(count.get(2) == 3)
        prof = K.profile
        assert (prof.primes, prof.exponents, prof.i2) == (primes, exponents, i2), K.d
        assert prof.s_k == len(primes) and prof.e2 == {0: 1, 2: 2, 3: 4}[count.get(2, 0)]
        assert prof.product_e == prod(exponents) == 2 ** (prof.s_k + prof.i2), K.d
        seen[count.get(2, 0)] += 1
    assert len(fields) == 2284 and sorted(seen) == [0, 2, 3]


def test_profiles_match_the_dict_of_lists_reference():
    # the profile read off set operations on the subfields' prime sets
    # against the earlier one that lists the subfields of each prime, on
    # every field of bound 60, the many-prime fields and the four wide
    # fields of s_K = 12, 13 and 17
    pairs = _scan_tasks(60, False, False)
    assert len(pairs) == 2284
    pairs += [(-210, 143), (210, 143), (-2310, 13), (-1155, 26), (30, 77),
              (-9699690, 765049), (9699690, -765049), (-9699690, 31367009),
              (-6469693230, 297194980009)]
    columns = ("primes", "exponents", "s_k", "i2", "e2", "product_e")
    for pair in pairs:
        K = biquadratic_field(*pair)
        ref = dict_ramification_profile(K)
        assert [getattr(K.profile, c) for c in columns] == [getattr(ref, c) for c in columns], pair
    assert K.profile.s_k == 17


def test_each_profile_certificate_raises(monkeypatch):
    # Q(sqrt(3), sqrt(5)) has subfields k(3), k(5), k(15) with ramified
    # primes [2, 3], [5], [2, 3, 5]; each fault is planted on the interned
    # k(5), which monkeypatch restores
    k5 = quadratic_field(5)
    assert biquadratic_field(3, 5).profile.primes == [2, 3, 5]
    for name, value, message in (
            ("ramified_primes", [3, 5], "odd 3 ramifies in every subfield"),
            ("ramified_primes", [5, 7], "prime 7 ramifies in 1 subfield"),
            ("delta", 15, "3 divides the discriminant of the third subfield"),
            ("s", 2, r"s1\+s2\+s3 != 2\*s_K \+ i2")):
        with monkeypatch.context() as m:
            m.setattr(k5, name, value)
            with pytest.raises(InconsistencyError, match=message):
                biquadratic_field(3, 5)
    assert biquadratic_field(3, 5).profile.primes == [2, 3, 5]


def test_multiplication_sign_convention():
    # sqrt(a)*sqrt(b) = -sqrt(ab) exactly when a, b < 0 (principal branch)
    K = biquadratic_field(-1, -3)  # triple (-3, -1, 3)
    i, r3, rm3 = (integral_coords(K, radical(K, d)) for d in (-1, 3, -3))
    assert K.mul_basis_coords(i, rm3) == integral_coords(K, element(K, **{"3": -1}))
    assert K.mul_basis_coords(i, r3) == integral_coords(K, element(K, **{"-3": 1}))
    assert radical(K, -1) * radical(K, -3) == element(K, **{"3": -1})


def test_galois_action_composition_and_norm():
    rng = random.Random(5)
    for K in (biquadratic_field(2, 3), biquadratic_field(-1, -5),
              biquadratic_field(-2, 7)):
        for _ in range(10):
            x_el = BiquadElement(K, [Fraction(rng.randint(-5, 5)) for _ in range(4)])
            y_el = BiquadElement(K, [Fraction(rng.randint(-4, 4)) for _ in range(4)])
            x, y = integral_coords(K, x_el), integral_coords(K, y_el)
            for i, j in ((1, 2), (1, 3), (2, 3)):
                l = 6 - i - j
                assert K.sigma(K.sigma(x, i), j) == K.sigma(x, l)
            assert K.norm(x) == x_el.norm()
            xy = K.mul_basis_coords(x, y)
            assert K.norm(xy) == K.norm(x) * K.norm(y)
            assert K.sigma(xy, 1) == K.mul_basis_coords(K.sigma(x, 1), K.sigma(y, 1))


def test_sigma_3_is_the_product_of_sigma_1_and_sigma_2_up_to_60():
    # sigma_3 is derived through the radicals; it must equal sigma_1 o sigma_2
    # and, up to 12, the Galois images sigma_3(basis) converted by Cramer's rule
    up_to_12 = {K.d for K in small_corpus(12)}
    for K in small_corpus(60):
        derived = [K.sigma(e, 3) for e in _UNITS]
        assert [K.sigma(K.sigma(e, 1), 2) for e in _UNITS] == derived, K.d
        if K.d in up_to_12:
            assert derived == [integral_coords(K, e.sigma(3)) for e in basis_elements(K)], K.d


_INTS = st.one_of(st.integers(-9, 9), st.integers(-10**6, 10**6))
_COORDS = st.lists(_INTS, min_size=4, max_size=4)


@lru_cache(maxsize=None)
def _field(pair):
    return biquadratic_field(*pair)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(_scan_tasks(12, False, False)), _COORDS, _COORDS,
       st.integers(0, 3), st.integers(0, 2), _INTS, _INTS)
def test_element_operations_match_the_fraction_reference(pair, x, y, t, i, u, v):
    # the integer operations on basis coordinates against Fraction radical
    # arithmetic, on every field with |d_i| <= 12
    K = _field(pair)
    x_el, y_el = element_from_coords(K, x), element_from_coords(K, y)
    assert K.mul_basis_coords(x, y) == integral_coords(K, x_el * y_el)
    assert K.sigma(x, t) == integral_coords(K, x_el.sigma(t))
    assert K.norm(x) == x_el.norm()
    assert K.from_quad(i, (u, v)) == integral_coords(K, embed_quad(K, i, (u, v)))


_BIG_COORDS = st.lists(st.one_of(st.integers(-9, 9), st.integers(-(1 << 2000), 1 << 2000)),
                       min_size=4, max_size=4)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(_scan_tasks(60, False, False)), _BIG_COORDS, _BIG_COORDS)
def test_the_straight_line_product_matches_the_loop_reference(pair, x, y):
    # the product over the tables of every field with |d_i| <= 60, on
    # coordinates of up to 2,000 bits, against the loop over all 64 entries
    consts = _field(pair).structure_constants
    assert biquadratic._mul(consts, x, y) == loop_mul(consts, x, y)


def test_trace_and_charpoly_are_rational_integers_on_basis():
    for K in small_corpus(6):
        for e in basis_elements(K):
            s1, s2, s3, s4 = char_poly(e)
            assert all(v.denominator == 1 for v in (s1, s2, s3, s4))


def test_square_root_identity_and_zeta8():
    K23 = biquadratic_field(2, 3)
    assert integral_square_root(K23, [1, 0, 0, 0]) == (1, 0, 0, 0)

    K8 = biquadratic_field(-1, 2)
    i_el = integral_coords(K8, radical(K8, -1))
    xi = integral_square_root(K8, i_el)
    assert xi is not None and K8.mul_basis_coords(xi, xi) == i_el
    half = Fraction(1, 2)
    expected = [0, 0, 0, 0]
    expected[radical_index(K8, 2)] = half
    expected[radical_index(K8, -2)] = half
    root = element_from_coords(K8, xi)
    assert root.coords == tuple(expected) or (-root).coords == tuple(expected)


def test_square_root_frozen_real_case():
    # (2+sqrt3)(5+2sqrt6) = 10+6sqrt2+5sqrt3+4sqrt6 has the exact root
    # 1 + (3/2) sqrt2 + sqrt3 + (1/2) sqrt6  (hand-verified by squaring)
    K = biquadratic_field(2, 3)
    eta = element(K, one=10, **{"2": 6, "3": 5, "6": 4})
    root = element(K, one=1, **{"2": Fraction(3, 2), "3": 1, "6": Fraction(1, 2)})
    assert root * root == eta
    xi = integral_square_root(K, integral_coords(K, eta))
    assert element_from_coords(K, xi) in (root, -root)


def test_square_root_rejects_non_squares():
    K = biquadratic_field(2, 3)
    eps2 = element(K, one=1, **{"2": 1})  # 1+sqrt2 has a negative conjugate
    assert integral_square_root(K, integral_coords(K, eps2)) is None
    assert integral_square_root(K, [5, 0, 0, 0]) is None  # 5/d_i never a square
    assert integral_square_root(K, [-1, 0, 0, 0]) is None
    K5 = biquadratic_field(-1, 5)
    eps5 = element(K5, one=Fraction(1, 2), **{"5": Fraction(1, 2)})
    assert integral_square_root(K5, integral_coords(K5, eps5)) is None


def test_square_root_rational_cases():
    K = biquadratic_field(2, 3)
    assert integral_square_root(K, [9, 0, 0, 0]) == (3, 0, 0, 0)
    r = integral_square_root(K, [8, 0, 0, 0])
    assert r is not None and element_from_coords(K, r) in (element(K, **{"2": 2}),
                                                           element(K, **{"2": -2}))
    K1 = biquadratic_field(-1, 3)
    m1 = integral_square_root(K1, [-1, 0, 0, 0])
    assert m1 is not None and K1.mul_basis_coords(m1, m1) == [-1, 0, 0, 0]


def test_square_root_of_a_subfield_unit():
    K = biquadratic_field(2, 3)
    eps3 = element(K, one=2, **{"3": 1})
    xi = integral_square_root(K, integral_coords(K, eps3))  # (sqrt2+sqrt6)/2, hand-verified
    assert xi is not None and element_from_coords(K, xi) ** 2 == eps3


def test_unit_structure_named_fields():
    assert unit_structure(biquadratic_field(-1, 2)).q_k == 2
    assert unit_structure(biquadratic_field(2, 3)).q_k == 4
    us12 = unit_structure(biquadratic_field(-1, -3))
    assert (us12.q_k, us12.mu_order, us12.nu_k) == (2, 12, 1)
    assert unit_structure(biquadratic_field(-1, 5)).q_k == 1
    # the repr prints no root: str() of one past 4,300 digits raises
    assert repr(biquadratic_field(2, 3).units) == \
        "UnitStructure(q_k=4, mu_order=2, lam=(-1, 1, 1), nu_k=2)"


def units_over_star(rec) -> int:
    """(O_K^x : O*_K), read off the chain column (H3:H2) = (O_K^x : O*_K) *
    2**(s_K - shift), shift 5 for real K and 3 for imaginary K."""
    shift = 5 if rec.d1 > 0 and rec.d2 > 0 else 3
    index, rest = divmod(rec.h3_h2 << shift, 1 << rec.s_k)
    assert rest == 0, rec
    return index


def test_unit_structure_real_all_minus_index():
    # all three lambda = -1: (O_k1 O_k2 O_k3 : O*_K) = (1/2) * 2^3 = 4
    rec = polya_report(biquadratic_field(2, 5))
    assert (rec.lambda1, rec.lambda2, rec.lambda3) == (-1, -1, -1)
    assert units_over_star(rec) == 4 * rec.q_k


def test_unit_structure_pm_square_indices():
    # (O_K^x : +-(O_K^x)^2) = (O_K^x : O*_K) * (O*_K : +-(O_K^x)^2)
    def pm_squares(rec):
        return units_over_star(rec) * rec.h2_h1

    assert pm_squares(polya_report(biquadratic_field(2, 3))) == 8
    assert pm_squares(polya_report(biquadratic_field(-1, 2))) == 4
    assert pm_squares(polya_report(biquadratic_field(-2, -5))) == 2
    for K in small_corpus(6):
        rec = polya_report(K)
        assert rec.h2_h1 in (1, 2, 4, 8)
        assert pm_squares(rec) == (8 if K.is_real else 4 if rec.mu_order % 4 == 0 else 2)


def test_mu_order_matches_the_table_up_to_60():
    fields = list(small_corpus(60))
    assert len(fields) == 2284
    for K in fields:
        assert K.units.mu_order == mu_order_table(K), K.d


def test_mu_order_matches_the_table_over_sqrt_minus_1_and_sqrt_minus_3():
    seen, counts = set(), {}
    for d in range(-1500, 1501):
        if d in (0, 1) or squarefree_part(d) != d:
            continue
        for a in (-1, -3):
            if d != a:
                K = biquadratic_field(a, d)
                if K.d not in seen:
                    seen.add(K.d)
                    assert K.units.mu_order == mu_order_table(K), K.d
                    counts[K.units.mu_order] = counts.get(K.units.mu_order, 0) + 1
    assert counts == {4: 912, 6: 1370, 8: 1, 12: 1}


def test_unit_index_divides_corpus():
    for K in small_corpus(10):
        q = K.units.q_k
        assert (4 if K.is_real else 2) % q == 0


def test_square_class_roots_are_exact_witnesses():
    for K in (biquadratic_field(2, 3), biquadratic_field(-1, 2),
              biquadratic_field(2, 5), biquadratic_field(-1, -3)):
        us = K.units
        eps = [embed_quad(K, i, K.subfields[i].fundamental_unit)
               if K.subfields[i].is_real else None for i in range(3)]
        for key, root in us.square_class_roots.items():
            root_el = element_from_coords(K, root)
            if K.is_real:
                eta = element(K, one=1)
                for i in range(3):
                    if key[i]:
                        eta = eta * eps[i]
                assert root_el * root_el == eta
            assert all(type(c) is int for c in root)
            assert abs(root_el.norm()) == 1


def test_square_root_of_real_valued_element_in_imaginary_field():
    # in Q(i, sqrt5): -eps^2 is real and totally negative, yet (i*eps)^2 = -eps^2
    K = biquadratic_field(-1, 5)
    eps = element(K, one=Fraction(1, 2), **{"5": Fraction(1, 2)})
    eta = integral_coords(K, -(eps * eps))
    xi = integral_square_root(K, eta)
    assert xi is not None and K.mul_basis_coords(xi, xi) == eta
    i_eps = radical(K, -1) * eps
    assert element_from_coords(K, xi) in (i_eps, -i_eps)


def test_radical_product_with_nontrivial_square_factor():
    # sqrt(94) * sqrt(141) = 47 * sqrt(6)
    K = biquadratic_field(94, 141)
    assert K.d == (6, 94, 141)
    r6, r94, r141 = (integral_coords(K, radical(K, d)) for d in (6, 94, 141))
    assert K.mul_basis_coords(r94, r141) == integral_coords(K, element(K, **{"6": 47}))
    # sqrt(6) * sqrt(94) = sqrt(564) = 2 * sqrt(141)
    assert K.mul_basis_coords(r6, r94) == integral_coords(K, element(K, **{"141": 2}))
    assert radical(K, 94) * radical(K, 141) == element(K, **{"6": 47})


def test_square_root_roundtrip_random_elements():
    # every residue pattern of the triple mod 4, real and imaginary, up to
    # nine ramified primes, small and large coordinates; in a real field
    # -xi**2 is negative at every embedding, so never a square
    rng = random.Random(23)
    for pair in ((2, 3), (-1, -3), (5, 13), (-2, -5), (-1, 2), (11, 14), (-23, -19),
                 (3, 7), (-5, 21), (2, 51), (7429, 30030), (-510510, -221)):
        K = biquadratic_field(*pair)
        for bound in (3, 40, 10**6):
            for _ in range(6):
                xi = [rng.randint(-bound, bound) for _ in range(4)]
                if not any(xi):
                    continue
                eta = K.mul_basis_coords(xi, xi)
                root = integral_square_root(K, eta)
                assert root is not None and list(root) in (xi, neg(xi)), (pair, xi)
                if K.is_real:
                    assert integral_square_root(K, neg(eta)) is None, (pair, xi)


# m = -1 in Q(sqrt(-19), sqrt(-17)), Q(i, sqrt2) (mu_K = 8) and Q(i, sqrt3)
# (mu_K = 12), m = -2 in Q(sqrt(-6), sqrt(-10)), m = 2 in Q(sqrt6, sqrt10),
# where sqrt(d1)*sqrt(d2) = m*sqrt(d3)
_ROOT_FIELDS = ((-19, -17), (-1, 2), (-1, 3), (-6, -10), (6, 10), (2, 3), (-1, 5),
                (5, 13), (-23, -19), (11, 14), (-5, 21), (2, 51), (-510510, -221))
_ROOT_INPUTS = ("square", "negated square", "d1 square", "d2 square", "d3 square",
                "rational", "rational square", "arbitrary")


@settings(max_examples=600, deadline=None)
@given(st.sampled_from(_ROOT_FIELDS), st.sampled_from(_ROOT_INPUTS), _COORDS, _INTS)
def test_square_root_returns_the_reference_root(pair, kind, x, r):
    # the verdict and the root, sign included, against the Fraction denesting
    K = _field(pair)
    sq = K.mul_basis_coords(x, x)
    eta = {"square": sq, "negated square": neg(sq), "rational": [r, 0, 0, 0],
           "rational square": [r * r, 0, 0, 0], "arbitrary": x,
           **{f"d{j + 1} square": [d * c for c in sq] for j, d in enumerate(K.d)}}[kind]
    assert integral_square_root(K, eta) == integral_square_root_fraction(K, eta), (pair, eta)


def test_square_root_matches_frozen_verdicts():
    # every input 'scan --bound 6 --verify' gives the square root, with the
    # verdicts of the interval-refinement search the denesting replaced
    path = os.path.join(os.path.dirname(__file__), "square_root_verdicts.txt")
    fields, verdicts = {}, {"square": 0, "nonsquare": 0}
    with open(path) as fh:
        for line in fh:
            if line.startswith("#"):
                continue
            *triple, c0, c1, c2, c3, verdict = line.split()
            d = tuple(int(v) for v in triple)
            K = fields.setdefault(d, biquadratic_field(d[0], d[1]))
            assert K.d == d
            eta = integral_coords(K, BiquadElement(K, [Fraction(c) for c in (c0, c1, c2, c3)]))
            xi = integral_square_root(K, eta)
            assert (xi is not None) == (verdict == "square"), (d, eta)
            assert xi is None or K.mul_basis_coords(xi, xi) == eta
            verdicts[verdict] += 1
    assert verdicts == {"square": 96, "nonsquare": 168}
