import itertools
import os
import random
from fractions import Fraction
from math import gcd

import pytest

from exact_reference import (basis_coords, basis_elements, char_poly, gram_determinant,
                             mat_det_fraction)
from polyabiquad.biquadratic import BiquadElement, biquadratic_field
from polyabiquad.errors import InconsistencyError, InvalidInputError
from polyabiquad.intmath import squarefree_part
from polyabiquad.linalg import hnf_rows
from polyabiquad.units import integral_square_root, unit_structure


def radical_index(K, d):
    return {v: i + 1 for i, v in enumerate(K.d)}[d]


def element(K, **coeffs):
    """element(K, one=..., **{str(d): c}) helper for readable tests."""
    coords = [Fraction(coeffs.get("one", 0))] + [0, 0, 0]
    for i, d in enumerate(K.d):
        coords[i + 1] = Fraction(coeffs.get(str(d), 0))
    return BiquadElement(K, coords)


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
    assert K.disc == 256  # (-4)*(8)*(-8)

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
        assert basis[0] == K.one()
        for e in basis:
            assert all(s.denominator == 1 for s in char_poly(e))
        prod_disc = 1
        for k in K.subfields:
            prod_disc *= k.delta
        assert gram_determinant(K) == prod_disc == K.disc


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


def test_integral_basis_certificate_up_to_60():
    # construction runs the closure checks; the discriminant is checked again
    # by a rational determinant the program does not use
    patterns = set()
    for K in small_corpus(60):
        d1, d2, d3 = K.d
        det = mat_det_fraction(K.basis_rows)
        assert det * det * d1 * d2 * d3 == 256 * K.disc, K.d
        assert K.basis_rows[0] == [4, 0, 0, 0]
        patterns.add((tuple(x % 4 for x in K.d), K.is_real, abs(gcd(d1, d2)) > 1))
    # the 10 placements of the residues mod 4 in the sorted triple, real and
    # imaginary, with and without gcd(d1, d2) > 1, less the 4 where d1 and d2
    # are both even
    assert len(patterns) == 10 * 2 * 2 - 4


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
        biquadratic_field(-23, -19)._set_basis(flipped)
    with pytest.raises(InconsistencyError, match="lattice discriminant"):
        biquadratic_field(-23, -19)._set_basis(
            [[4 if i == j else 0 for j in range(4)] for i in range(4)])


def test_profile_examples():
    K = biquadratic_field(-1, 2)
    assert K.profile.efg == {2: (4, 1, 1)}
    assert (K.profile.s_k, K.profile.i2, K.profile.product_e) == (1, 1, 4)

    K13 = biquadratic_field(-1, -3)
    assert all(e == 2 for e, f, g in K13.profile.efg.values())
    assert K13.profile.product_e == 4

    K23 = biquadratic_field(2, 3)
    assert K23.profile.product_e == 2 ** (2 + 1) == 8


def test_profile_efg_product_is_degree():
    for K in small_corpus(8):
        for e, f, g in K.profile.efg.values():
            assert e * f * g == 4


def test_multiplication_sign_convention():
    # sqrt(a)*sqrt(b) = -sqrt(ab) exactly when a, b < 0 (principal branch)
    K = biquadratic_field(-1, -3)  # triple (-3, -1, 3)
    prod = K.radical(radical_index(K, -1)) * K.radical(radical_index(K, -3))
    assert prod == element(K, **{"3": -1})
    prod2 = K.radical(radical_index(K, -1)) * K.radical(radical_index(K, 3))
    assert prod2 == element(K, **{"-3": 1})


def test_galois_action_composition_and_norm():
    rng = random.Random(5)
    for K in (biquadratic_field(2, 3), biquadratic_field(-1, -5),
              biquadratic_field(-2, 7)):
        for _ in range(10):
            x = BiquadElement(K, [Fraction(rng.randint(-5, 5)) for _ in range(4)])
            for i, j in ((1, 2), (1, 3), (2, 3)):
                l = 6 - i - j
                assert x.sigma(i).sigma(j) == x.sigma(l)
            n = x.norm()
            assert n.denominator == 1
            y = BiquadElement(K, [Fraction(rng.randint(-4, 4)) for _ in range(4)])
            assert (x * y).norm() == x.norm() * y.norm()
            assert (x * y).sigma(1) == x.sigma(1) * y.sigma(1)


def test_trace_and_charpoly_are_rational_integers_on_basis():
    for K in small_corpus(6):
        for e in basis_elements(K):
            s1, s2, s3, s4 = char_poly(e)
            assert all(v.denominator == 1 for v in (s1, s2, s3, s4))


def test_square_root_identity_and_zeta8():
    K23 = biquadratic_field(2, 3)
    assert integral_square_root(K23, K23.one()) == K23.one()

    K8 = biquadratic_field(-1, 2)
    i_el = K8.radical(radical_index(K8, -1))
    xi = integral_square_root(K8, i_el)
    assert xi is not None and xi * xi == i_el
    half = Fraction(1, 2)
    expected = [0, 0, 0, 0]
    expected[radical_index(K8, 2)] = half
    expected[radical_index(K8, -2)] = half
    assert xi.coords == tuple(expected) or (-xi).coords == tuple(expected)


def test_square_root_frozen_real_case():
    # (2+sqrt3)(5+2sqrt6) = 10+6sqrt2+5sqrt3+4sqrt6 has the exact root
    # 1 + (3/2) sqrt2 + sqrt3 + (1/2) sqrt6  (hand-verified by squaring)
    K = biquadratic_field(2, 3)
    eta = element(K, one=10, **{"2": 6, "3": 5, "6": 4})
    root = element(K, one=1, **{"2": Fraction(3, 2), "3": 1, "6": Fraction(1, 2)})
    assert root * root == eta
    xi = integral_square_root(K, eta)
    assert xi in (root, -root)


def test_square_root_rejects_non_squares():
    K = biquadratic_field(2, 3)
    eps2 = element(K, one=1, **{"2": 1})  # 1+sqrt2 has a negative conjugate
    assert integral_square_root(K, eps2) is None
    assert integral_square_root(K, K.rational(5)) is None  # 5/d_i never a square
    assert integral_square_root(K, K.rational(-1)) is None
    K5 = biquadratic_field(-1, 5)
    eps5 = element(K5, one=Fraction(1, 2), **{"5": Fraction(1, 2)})
    assert integral_square_root(K5, eps5) is None


def test_square_root_rational_cases():
    K = biquadratic_field(2, 3)
    assert integral_square_root(K, K.rational(9)) == K.rational(3)
    two = K.rational(2)
    r = integral_square_root(K, K.rational(8))
    assert r is not None and r * r == K.rational(8)  # 2*sqrt(2)
    K1 = biquadratic_field(-1, 3)
    m1 = integral_square_root(K1, K1.rational(-1))
    assert m1 is not None and m1 * m1 == K1.rational(-1)


def test_square_root_of_a_subfield_unit():
    K = biquadratic_field(2, 3)
    eps3 = element(K, one=2, **{"3": 1})
    xi = integral_square_root(K, eps3)  # (sqrt2+sqrt6)/2, hand-verified
    assert xi is not None and xi * xi == eps3


def test_unit_structure_named_fields():
    assert unit_structure(biquadratic_field(-1, 2)).q_k == 2
    assert unit_structure(biquadratic_field(2, 3)).q_k == 4
    us12 = unit_structure(biquadratic_field(-1, -3))
    assert (us12.q_k, us12.mu_order, us12.nu_k) == (2, 12, 1)
    assert unit_structure(biquadratic_field(-1, 5)).q_k == 1


def test_unit_structure_real_all_minus_index():
    # all three lambda = -1: (O_k1 O_k2 O_k3 : O*_K) = (1/2) * 2^3 = 4
    us = unit_structure(biquadratic_field(2, 5))
    assert us.lam == (-1, -1, -1)
    assert us.star_case == "real_all_minus"
    assert us.index_sub_units_over_star == 4
    us2 = unit_structure(biquadratic_field(2, 3))
    assert us2.star_case == "product"


def test_unit_structure_pm_square_indices():
    assert unit_structure(biquadratic_field(2, 3)).index_pm_squares == 8
    assert unit_structure(biquadratic_field(-1, 2)).index_pm_squares == 4
    assert unit_structure(biquadratic_field(-2, -5)).index_pm_squares == 2
    for K in small_corpus(6):
        us = K.units
        assert us.index_star_over_pm_squares in (1, 2, 4, 8)
        assert us.index_units_over_star * us.index_star_over_pm_squares \
            == us.index_pm_squares


def test_unit_index_divides_corpus():
    for K in small_corpus(10):
        q = K.units.q_k
        assert (4 if K.is_real else 2) % q == 0


def test_square_class_roots_are_exact_witnesses():
    for K in (biquadratic_field(2, 3), biquadratic_field(-1, 2),
              biquadratic_field(2, 5), biquadratic_field(-1, -3)):
        us = K.units
        eps = [K.from_quad(i, K.subfields[i].fundamental_unit)
               if K.subfields[i].is_real else None for i in range(3)]
        for key, root in us.square_class_roots.items():
            if K.is_real:
                eta = K.one()
                for i in range(3):
                    if key[i]:
                        eta = eta * eps[i]
                assert root * root == eta
            assert all(c.denominator == 1 for c in basis_coords(K, root))
            assert abs(root.norm()) == 1


def test_square_root_of_real_valued_element_in_imaginary_field():
    # in Q(i, sqrt5): -eps^2 is real and totally negative, yet (i*eps)^2 = -eps^2
    K = biquadratic_field(-1, 5)
    i5 = radical_index(K, 5)
    eps = element(K, one=Fraction(1, 2), **{"5": Fraction(1, 2)})
    i_el = K.radical(radical_index(K, -1))
    eta = -(eps * eps)
    xi = integral_square_root(K, eta)
    assert xi is not None and xi * xi == eta
    assert xi in (i_el * eps, -(i_el * eps))


def test_radical_product_with_nontrivial_square_factor():
    # sqrt(94) * sqrt(141) = 47 * sqrt(6)
    K = biquadratic_field(94, 141)
    assert K.d == (6, 94, 141)
    prod = K.radical(radical_index(K, 94)) * K.radical(radical_index(K, 141))
    assert prod == element(K, **{"6": 47})
    # sqrt(6) * sqrt(94) = sqrt(564) = 2 * sqrt(141)
    assert (K.radical(radical_index(K, 6)) * K.radical(radical_index(K, 94))) \
        == element(K, **{"141": 2})


def test_square_root_roundtrip_random_elements():
    rng = random.Random(23)
    for pair in ((2, 3), (-1, -3), (5, 13), (-2, -5), (-1, 2), (11, 14)):
        K = biquadratic_field(*pair)
        for _ in range(6):
            xi = K.element_from_basis_coords([rng.randint(-3, 3) for _ in range(4)])
            if xi.is_zero():
                continue
            eta = xi * xi
            root = integral_square_root(K, eta)
            assert root is not None and root in (xi, -xi), (pair, xi.coords)


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
            eta = BiquadElement(K, [Fraction(c) for c in (c0, c1, c2, c3)])
            xi = integral_square_root(K, eta)
            assert (xi is not None) == (verdict == "square"), (d, eta)
            assert xi is None or xi * xi == eta
            verdicts[verdict] += 1
    assert verdicts == {"square": 96, "nonsquare": 168}
