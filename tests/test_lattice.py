import functools
import itertools
import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exact_reference import (BiquadElement, clear_subfield_caches, cokernel_by_hermite_form,
                             element_from_coords, embed_quad, euler_character_mask,
                             generator_items, ideal_from_elements, integral_coords,
                             is_closed_under_multiplication, is_galois_stable,
                             kernel_order_by_triples, kronecker, lattice_generator,
                             mapped_generator_masks, pack_vector, packed_add,
                             quad_ideal_from_elements, quad_ideal_multiply, reduce_vector,
                             reference_classes, relative_norm_fraction, scanned_residue_maps,
                             subfield_class_representatives, subfield_image, twist_mask_span,
                             twisted_products, unsieved_generator, vector_lattice)
from polyabiquad.biquadratic import BiquadField, biquadratic_field
from polyabiquad.cli import _scan_tasks
from polyabiquad.cosets import CosetBook
from polyabiquad.errors import (Budget, BudgetExceededError, DomainError,
                                InconsistencyError, InvalidInputError)
from polyabiquad.lattice import (AmbiguousIdealOracle, IdealLattice, prime_radical,
                                 principal_ideal_generator, rational_ideal,
                                 relative_norm_ideal)
from polyabiquad.linalg import hnf_rows
from polyabiquad.quadratic import (_subset_ideal, omega_norm, prime_above,
                                   principal_generator_quad, sieve_symbols)


def radical_index(K, d):
    return {v: i + 1 for i, v in enumerate(K.d)}[d]


def zeta8_field():
    return biquadratic_field(-1, 2)


def test_radical_examples():
    K = zeta8_field()
    rad = prime_radical(K, 2)
    assert rad.norm == 2
    # 1 + zeta8 has norm 2 and generates the prime over 2
    half = Fraction(1, 2)
    coords = [1, 0, 0, 0]
    coords[radical_index(K, 2)] = half
    coords[radical_index(K, -2)] = half
    one_plus_z8 = BiquadElement(K, coords)
    assert abs(one_plus_z8.norm()) == 2
    assert rad.contains(integral_coords(K, one_plus_z8))
    assert ideal_from_elements(K, [one_plus_z8]) == rad

    K12 = biquadratic_field(-1, -3)
    rad3 = prime_radical(K12, 3)
    assert rad3.norm == 9  # e=2, f=2
    assert rad3.multiply(rad3) == rational_ideal(K12, 3)


def radicals_up_to_30():
    """(K, p, rad(p)) for every ramified p of every field with |d_i| <= 30."""
    for a, b in _scan_tasks(30, False, False):
        K = biquadratic_field(a, b)
        for p in K.profile.primes:
            yield K, p, prime_radical(K, p)


def test_radical_galois_stability():
    cases = 0
    for K, p, rad in radicals_up_to_30():
        assert is_galois_stable(rad), (K.d, p)
        cases += 1
    assert cases == 1627


def test_radical_unramified_rejected():
    with pytest.raises(DomainError):
        prime_radical(zeta8_field(), 5)


def test_ideal_mul_identity_and_total_ramification():
    K = zeta8_field()
    rad = prime_radical(K, 2)
    one = rational_ideal(K, 1)
    assert rad.multiply(one) == rad
    fourth = rad.multiply(rad).multiply(rad).multiply(rad)
    assert fourth == rational_ideal(K, 2)  # e_2 = 4


def test_ideal_norm_multiplicative():
    K = biquadratic_field(2, 3)
    rad2, rad3 = prime_radical(K, 2), prime_radical(K, 3)
    prod = rad2.multiply(rad3)
    assert prod.norm == rad2.norm * rad3.norm


def test_extension_of_subfield_prime_is_radical_square():
    # when 2 is totally ramified, Pi_2(k_i) O_K = rad(2)^2
    K = zeta8_field()
    rad = prime_radical(K, 2)
    i = K.d.index(2)
    p2 = prime_above(K.subfields[i], 2)
    gens = [embed_quad(K, i, g) for g in p2.basis_elements()]
    assert ideal_from_elements(K, gens) == rad.multiply(rad)


def test_mismatched_fields_rejected():
    a = rational_ideal(zeta8_field(), 2)
    b = rational_ideal(biquadratic_field(2, 3), 2)
    with pytest.raises(InvalidInputError):
        a.multiply(b)


def test_non_integral_generators_rejected():
    K = zeta8_field()
    with pytest.raises(InvalidInputError):
        ideal_from_elements(K, [BiquadElement(K, (Fraction(1, 2), 0, 0, 0))])


def test_relative_norm_ideal_norms():
    K = biquadratic_field(-1, -5)
    orc = AmbiguousIdealOracle(K)
    for vec in ((1, 0), (0, 1), (1, 1)):
        lat = vector_lattice(orc, vec)
        for i in range(3):
            assert relative_norm_ideal(K, lat, i).norm == lat.norm


def test_principality_rational_ideal():
    K = zeta8_field()
    assert lattice_generator(rational_ideal(K, 1)) == (1, 0, 0, 0)
    gen = lattice_generator(rational_ideal(K, 2))
    assert gen is not None and abs(element_from_coords(K, gen).norm()) == 16
    assert ideal_from_elements(K, [element_from_coords(K, gen)]) == rational_ideal(K, 2)


def test_principality_pi2_zeta8():
    K = zeta8_field()
    rad = prime_radical(K, 2)
    gen = lattice_generator(rad)
    assert gen is not None
    assert abs(element_from_coords(K, gen).norm()) == 2 and rad.contains(gen)
    assert ideal_from_elements(K, [element_from_coords(K, gen)]) == rad


def test_principality_of_constructed_principal_ideals():
    rng = random.Random(11)
    for pair in ((2, 3), (-1, -5), (-2, 7), (2, 5)):
        K = biquadratic_field(*pair)
        for _ in range(3):
            el = BiquadElement(K, (0, 0, 0, 0))
            while el.is_zero() or abs(el.norm()) > 600 or el.norm() == 0:
                el = BiquadElement(K, [Fraction(rng.randint(-2, 2)) for _ in range(4)])
            lat = ideal_from_elements(K, [el])
            gen = lattice_generator(lat)
            assert gen is not None
            assert ideal_from_elements(K, [element_from_coords(K, gen)]) == lat


def test_principality_galois_invariant():
    K = biquadratic_field(-1, -5)
    orc = AmbiguousIdealOracle(K)
    for vec in ((1, 0), (0, 1), (1, 1)):
        lat = vector_lattice(orc, vec)
        verdict = lattice_generator(lat) is not None
        for t in (1, 2, 3):
            assert (lattice_generator(lat.conjugate(t)) is not None) == verdict


def test_class_counting_ignores_rational_factors():
    K = biquadratic_field(-1, -5)
    orc = AmbiguousIdealOracle(K)
    lat = vector_lattice(orc, (1, 1))
    scaled = lat.multiply(rational_ideal(K, 6))
    assert (lattice_generator(lat) is None) \
        == (lattice_generator(scaled) is None)


def test_oracle_polya_counts_named_fields():
    assert AmbiguousIdealOracle(zeta8_field()).polya_order_oracle() == 1
    assert AmbiguousIdealOracle(biquadratic_field(-1, -3)).polya_order_oracle() == 1
    # 8 products (m2 in 0..3, m3 in 0..1) all fall into one class
    orc = AmbiguousIdealOracle(biquadratic_field(2, 3))
    assert orc.exponents == [4, 2]
    assert orc.polya_order_oracle() == 1


def test_oracle_kernel_counts():
    assert AmbiguousIdealOracle(zeta8_field()).kernel_order_oracle() == 1
    # Q(i, sqrt5): the class of (2, 1+sqrt(-5)) capitulates, kernel = 2
    K = biquadratic_field(-1, -5)
    orc = AmbiguousIdealOracle(K)
    assert orc.kernel_order_oracle() == 2
    i5 = K.d.index(-5)
    mask = 1 << K.subfields[i5].ramified_primes.index(2)
    assert orc._book.is_principal(subfield_image(orc, i5, mask))  # the capitulation witness


def test_coset_verdicts_agree_with_a_descent_on_every_vector():
    # the oracle descends on few vectors and infers the rest; compare every
    # verdict and every class with a descent of its own, for two query orders
    pairs = _scan_tasks(12, False, False) + [(30, 77)]
    assert (2, 3) in pairs  # e_2 = 4: a Z/4 factor in G
    for a, b in pairs:
        K = biquadratic_field(a, b)
        lex, rev = AmbiguousIdealOracle(K), AmbiguousIdealOracle(K)
        vectors = list(itertools.product(*[range(e) for e in lex.exponents]))
        direct = {v: lattice_generator(vector_lattice(lex, v)) is not None
                  for v in vectors}
        reps = lex.class_representatives()
        for v in reversed(vectors):
            assert rev._book.is_principal(pack_vector(rev, v)) == direct[v], (K.d, v)
        for v in vectors:
            assert lex._book.is_principal(pack_vector(lex, v)) == direct[v], (K.d, v)
            # the representatives partition G: v lies in the class of exactly one
            assert sum(direct[reduce_vector(lex, [x - y for x, y in zip(v, r)])]
                       for r in reps) == 1, (K.d, v)


def test_a_completed_book_answers_from_its_principal_subgroup_alone():
    # once the classes are counted, the K book and every subfield book, the
    # latter shared by every field that reads it, answer each query from P:
    # a test that raises is never called, no budget is charged, and every
    # verdict matches a descent of its own, lattice_generator in K and the
    # form search in a subfield
    def refuse(x):
        raise AssertionError(f"a completed book tested {x}")

    for a, b in _scan_tasks(12, False, False) + [(30, 77)]:
        orc = AmbiguousIdealOracle(biquadratic_field(a, b))
        orc.class_representatives()
        spent = orc.budget.spent
        for book in [orc._book] + orc._subfield_books:
            book.test = refuse
        for v in itertools.product(*[range(e) for e in orc.exponents]):
            assert orc._book.is_principal(pack_vector(orc, v)) \
                == (lattice_generator(vector_lattice(orc, v)) is not None), (orc.K.d, v)
        for k, sub in zip(orc.K.subfields, orc._subfield_books):
            for m in range(2 ** k.s):
                assert sub.is_principal(m) \
                    == (principal_generator_quad(_subset_ideal(k, m)) is not None), (k, m)
        assert orc.budget.spent == spent, orc.K.d


def test_packed_vectors_follow_the_group_law():
    # the coset book holds exponent vectors packed into one integer:
    # pack_vector and unpack are inverse on G, range(|G|) lists G in the
    # order of itertools.product, the packed add is addition mod e_p, and a
    # book of the oracle's shape with P = <w> reduces x and x + w alike,
    # with 2 unramified, ramified and totally ramified
    e2s = set()
    for a, b in _scan_tasks(12, False, False):
        orc = AmbiguousIdealOracle(biquadratic_field(a, b))
        e2s.add(orc.K.profile.e2)
        vectors = list(itertools.product(*[range(e) for e in orc.exponents]))
        assert [orc.unpack(x) for x in range(len(vectors))] == vectors, orc.K.d
        assert [pack_vector(orc, v) for v in vectors] == list(range(len(vectors))), orc.K.d
        for v, w in itertools.product(vectors, repeat=2):
            assert orc.unpack(packed_add(orc, pack_vector(orc, v), pack_vector(orc, w))) \
                == reduce_vector(orc, [x + y for x, y in zip(v, w)]), (orc.K.d, v, w)
        for w in range(len(vectors)):
            book = CosetBook(len(orc.primes) - 1, orc.exponents[0], None)
            book.add_principal(w)
            assert all(book.reduce(packed_add(orc, x, w)) == book.reduce(x)
                       for x in range(len(vectors))), (orc.K.d, w)
    assert e2s == {1, 2, 4}


# the five fields of the benchmark's many-prime workload (s_K >= 5)
MANYPRIME_PAIRS = ((-210, 143), (210, 143), (-2310, 13), (-1155, 26), (30, 77))


def test_extended_subfield_primes_are_the_radicals_the_oracle_seeds_with():
    # both oracle counts rest on P_i*O_K = rad(p) when e_p = 2 and rad(2)^2
    # when e_2 = 4, for every subfield k_i in which p ramifies: the oracle's
    # seed vectors against the lattices of prime_radical
    cases = 0
    for a, b in _scan_tasks(30, False, False) + list(MANYPRIME_PAIRS):
        K = biquadratic_field(a, b)
        orc = AmbiguousIdealOracle(K)
        eye = [[int(r == c) for c in range(4)] for r in range(4)]
        for i, k in enumerate(K.subfields):
            for bit, p in enumerate(k.ramified_primes):
                gen = K.from_quad(i, prime_above(k, p).basis_elements()[1])
                rows = [[p * x for x in u] for u in eye] + [K.mul_basis_coords(gen, u)
                                                           for u in eye]
                extended = IdealLattice(K, hnf_rows(rows, 4))
                image = orc.unpack(orc._prime_images[p])
                assert extended == vector_lattice(orc, image), (K.d, i, p)
                cases += 1
    assert cases == 3477


def test_a_shifted_subfield_prime_generator_fails_its_ideal_form():
    # the oracle's seed rests on P_i*O_K = rad(p)^(e_p/2), ramification
    # theory once [p, b + omega_i] is the prime P_i above p, and every
    # ramified_product certifies that by quadratic._ideal_form: the wrong
    # generator b + 1 + omega_i raises there in any subfield in which p
    # ramifies, as N(b + 1 + omega_i) = Tr(b + omega_i) + 1 = 1 mod p
    from polyabiquad.quadratic import _ideal_form
    cases = 0
    for pair in _scan_tasks(12, False, False) + list(MANYPRIME_PAIRS):
        K = biquadratic_field(*pair)
        for k in K.subfields:
            for p in k.ramified_primes:
                P = prime_above(k, p)
                with pytest.raises(InconsistencyError, match="is not an ideal"):
                    _ideal_form(k, P.a, P.b + 1)
                cases += 1
        AmbiguousIdealOracle(K).polya_order_oracle()
    assert cases == 475


# Q(zeta_12), Q(zeta_8) and the three s_K >= 12 rows of test_cli
TWIST_PAIRS = (_scan_tasks(30, False, False) + list(MANYPRIME_PAIRS)
               + [(-1, 3), (-1, 2), (-9699690, 765049), (9699690, -765049),
                  (-9699690, 31367009)])


def test_unit_twist_table_gives_the_earlier_candidates():
    # a descent multiplies its relative-norm generators into g once and tries
    # g*u for u in K.unit_twists: the same distinct candidates, in the same
    # order, as every twisted product of the generators; 16 entries for real
    # K, and 4 for imaginary K times 2 for each of Q(i), Q(sqrt(-3)) in it
    sizes = set()
    for pair in TWIST_PAIRS:
        K = biquadratic_field(*pair)
        table = [u for u, _ in K.unit_twists]
        assert twisted_products(K, [(1, 0)] * 3) == list(table), K.d
        gens = [(i + 1, 1) for i in range(3)]
        g = K.mul_basis_coords(K.mul_basis_coords(K.from_quad(0, gens[0]),
                                                  K.from_quad(1, gens[1])),
                               K.from_quad(2, gens[2]))
        assert [tuple(K.mul_basis_coords(g, u)) for u in table] \
            == twisted_products(K, gens), K.d
        roots = {-1, -3} & set(K.d)
        assert len(table) == (16 if K.is_real else 4 << len(roots)), K.d
        sizes.add(len(table))
    assert sizes == {4, 8, 16}


def basis_images(K, l, omegas) -> list[int]:
    """The images mod l of the basis elements e_0..e_3 under the map of
    K.residue_maps with the omega images omegas: sqrt(d_i) goes to 2*w_i - 1
    when d_i = 1 mod 4, else to w_i, and e_j is row j of the basis over 4."""
    roots = [2 * w - 1 if d % 4 == 1 else w for w, d in zip(omegas, K.d)]
    return [(r[0] + r[1] * roots[0] + r[2] * roots[1] + r[3] * roots[2]) * pow(4, -1, l) % l
            for r in K.basis_rows]


def test_residue_maps_are_ring_homomorphisms():
    # K.residue_maps holds one map above each odd prime l < 300 at which d1
    # and d2 are nonzero squares, and when fewer than max(8, s_K + 4) split,
    # above the next primes l = 3 mod 4 below 2000 that split, up to that
    # many (2 of these 544 fields, two s_K >= 12 fields and the s_K = 17
    # field); each map, read on the basis, sends 1 to 1 and e_i*e_j to the
    # product of the images and agrees with its images of the omega_i; each
    # twist mask holds the quadratic characters of the twist's image under
    # every map, at the map's own bit
    sizes, past_300 = Counter(), set()
    for pair in TWIST_PAIRS + [(-6469693230, 297194980009)]:
        K = biquadratic_field(*pair)
        maps = K.residue_maps

        def split(ls):
            return [l for l in ls if all(l % q for q in range(3, l, 2))
                    and kronecker(K.d[0], l) == kronecker(K.d[1], l) == 1]

        primes, target = split(range(3, 300, 2)), max(8, K.profile.s_k + 4)
        if len(primes) < target:
            primes += split(range(303, 2000, 4))[:target - len(primes)]
            past_300.add(pair)
        assert [l for l, _, _ in maps] == primes and len(maps) >= target, K.d
        sizes[len(maps)] += 1
        images = []
        for l, bit, omegas in maps:
            assert 2 * K.d[0] * K.d[1] % l, (K.d, l)
            img = basis_images(K, l, omegas)
            assert img[0] == 1, (K.d, l)
            for i, j in itertools.product(range(4), repeat=2):
                product = sum(c * x for c, x in zip(K.structure_constants[i][j], img))
                assert img[i] * img[j] % l == product % l, (K.d, l, i, j)
            assert [sum(c * x for c, x in zip(row, img)) % l for row in K.omega_rows] \
                == list(omegas), (K.d, l)
            images.append((l, bit, img))
        for u, mask in K.unit_twists:
            chars = [pow(sum(c * x for c, x in zip(u, img)), l >> 1, l) for l, _, img in images]
            assert all(c in (1, l - 1) for c, (l, _, _) in zip(chars, images)), (K.d, u)
            assert mask == sum(bit for c, (_, bit, _) in zip(chars, images) if c != 1), (K.d, u)
    # 8 to 21 maps: every split prime below 300, not the first eight
    assert min(sizes) == 8 and max(sizes) == 21 and sum(sizes.values()) == len(TWIST_PAIRS) + 1
    assert sum(n for size, n in sizes.items() if size > 8) > len(TWIST_PAIRS) // 2
    assert past_300 == {(-23, 26), (-11, 23), (9699690, -765049), (-9699690, 31367009),
                        (-6469693230, 297194980009)}


SIEVE_PAIRS = _scan_tasks(30, False, False) + list(MANYPRIME_PAIRS)
# fields with fewer than eight split primes below 300, whose maps go on past 300
FALLBACK_PAIRS = [(-23, 26), (-11, 23), (-6469693230, 297194980009)]
# with MANYPRIME_PAIRS and the last of FALLBACK_PAIRS, test_unit_index.LARGE_PAIRS
LARGE_PAIRS = [(-9699690, 31367009), (-10000000019, -1)]


def test_residue_maps_match_the_per_field_scan():
    # the split primes below 300 are the set bits of the AND of two subfield
    # sieve masks: the maps, with their bits (bit t for the t-th odd prime
    # below 300, bit 61 + j for the j-th map past 300), equal those of a
    # scan of every prime below 300 for each field, and past 300 up to
    # max(8, s_K + 4) maps, on every field with |d_i| <= 60, the many-prime
    # and large fields of test_unit_index.LARGE_PAIRS and the three
    # fallback fields
    pairs = _scan_tasks(60, False, False)
    assert len(pairs) == 2284
    past_300, beyond_8 = set(), 0
    for pair in pairs + list(MANYPRIME_PAIRS) + LARGE_PAIRS + FALLBACK_PAIRS:
        K = biquadratic_field(*pair)
        assert K.residue_maps == scanned_residue_maps(K), pair
        if K.residue_maps[-1][0] > 300:
            past_300.add(pair)
        beyond_8 += len(K.residue_maps) > 8
    # ten fields of bound 60, (-35, 39) with s_K = 5 among them and two in
    # FALLBACK_PAIRS, and the s_K = 13 and s_K = 17 fields
    assert len(past_300) == 12 and past_300 > set(FALLBACK_PAIRS)
    assert (-35, 39) in past_300 and (-9699690, 31367009) in past_300
    assert beyond_8 > len(pairs) // 2


def test_every_root_certificate_raises(monkeypatch):
    # the roots of d1, d2 under each map below 300 come from the tables of
    # squares, those past 300 from d^((l+1)/4) mod l, and each s_i^2 = d_i
    # is certified: a wrong root raises for the field's maps, below 300 and
    # past it, and for a subfield's twist mask
    from polyabiquad import biquadratic, quadratic
    l = 17  # splits in the field, and r + 1 is a root of neither d1 = -30030 nor d2 = -2310
    table = quadratic._SQUARE_ROOTS
    wrong = {**table, l: {x: r + 1 for x, r in table[l].items()}}
    assert biquadratic_field(-2310, 13).split_mask >> quadratic._SIEVE_PRIMES.index(l) & 1
    monkeypatch.setattr(biquadratic, "_SQUARE_ROOTS", wrong)
    with pytest.raises(InconsistencyError, match="do not square back"):
        biquadratic_field(-2310, 13).residue_maps
    monkeypatch.setattr(biquadratic, "_SQUARE_ROOTS", table)
    monkeypatch.setattr(biquadratic, "_root_mod", lambda d, l: 2)
    with pytest.raises(InconsistencyError, match="do not square back"):
        biquadratic_field(*FALLBACK_PAIRS[0]).residue_maps
    monkeypatch.setattr(quadratic, "_SQUARE_ROOTS", wrong)
    clear_subfield_caches()
    with pytest.raises(InconsistencyError, match="does not square back"):
        biquadratic_field(-2310, 13).subfields[0].twist_mask
    clear_subfield_caches()


MASK_PAIRS = SIEVE_PAIRS + FALLBACK_PAIRS[:2]


def test_generator_masks_match_euler_criterion():
    # the characters of -1, of each twist generator and of each ramified p,
    # read in one pass with the Legendre symbols below 300 off the tables of
    # squares, against Euler's criterion at every prime
    for pair in MASK_PAIRS:
        K = biquadratic_field(*pair)
        items = generator_items(K)
        reference = [euler_character_mask(K, factors, scale) for factors, scale in items]
        assert K.character_masks(items) == reference, K.d
        assert list(K.generator_masks) == [bits for bits, _ in reference], K.d
        # a scale with no factor is reduced mod l too, so l goes to 0 under
        # its own map (the reference tests pow(l, (l-1)/2, l) = 0 against 1)
        for l, bit, _ in K.residue_maps:
            assert K.character_masks([((), l)])[0][1] == bit, (K.d, l)


def test_generator_masks_match_the_mapped_reference(monkeypatch):
    # generator_masks reads the subfields' tables at the bits of split_mask,
    # with eps_3 flipped where N(eps_3) = -1, l = 3 mod 4 and the root of
    # d3 is minus the table root, and the maps past 300 alone through
    # character_masks: bit for bit the characters under every map of
    # residue_maps, on every field with |d_i| <= 60, the many-prime, large
    # and fallback fields
    pairs = _scan_tasks(60, False, False)
    assert len(pairs) == 2284
    flipped = 0
    for pair in pairs + list(MANYPRIME_PAIRS) + LARGE_PAIRS + FALLBACK_PAIRS:
        K = biquadratic_field(*pair)
        assert K.generator_masks == mapped_generator_masks(K), pair
        k3 = K.subfields[2]
        flipped += k3.lam == -1 and K.generator_masks[3] != k3.twist_mask & K.split_mask
        # the tables record the zero bits: l goes to 0 at its own bit
        for l, bit, _ in K.residue_maps:
            if l < 300:
                assert sieve_symbols(l, K.split_mask)[1] == bit, (pair, l)
    assert flipped > 100
    # and generator_masks raises when a table sends a ramified prime to 0
    K = biquadratic_field(-210, 143)
    k1, (l, bit, _) = K.subfields[0], K.residue_maps[0]
    p = k1.ramified_primes[-1]
    monkeypatch.setitem(k1.__dict__, "ramified_masks",
                        {**k1.ramified_masks, p: sieve_symbols(l, k1.sieve_mask)})
    with pytest.raises(InconsistencyError, match="sends a ramified prime to 0"):
        biquadratic_field(-210, 143).generator_masks


_MASK_INTS = st.one_of(st.integers(-300, 300), st.integers(-(1 << 200), 1 << 200))
# at least one factor: the reference reduces the scale only by multiplying
# a factor into it
_FACTORS = st.lists(st.tuples(st.integers(0, 2), st.tuples(_MASK_INTS, _MASK_INTS)),
                    min_size=1, max_size=3)
_ITEMS = st.lists(st.tuples(_FACTORS, _MASK_INTS), min_size=1, max_size=4)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(MASK_PAIRS), _ITEMS)
def test_character_masks_of_drawn_subfield_integers_match_euler_criterion(pair, items):
    # items (factors, scale) of subfield integers, several to a pass
    K = biquadratic_field(*pair)
    assert K.character_masks(items) == [euler_character_mask(K, *item) for item in items], K.d


def table_bits(orc, vec) -> int:
    """The character bits of an even vector by the oracle's table: the XOR
    of the bits of the primes of r = prod_p p^(2*v_p/e_p)."""
    bits = 0
    for c, e, v in zip(orc.K.generator_masks[4:], orc.exponents, vec):
        if 2 * v // e:
            bits ^= c
    return bits


def descents_against_the_unsieved_reference(fields, prepare=lambda orc: None):
    """Count the ambiguous classes and the kernel of each field, repeating
    every K-level descent with the unsieved reference on the same
    relative-norm generators, and repeating with it one vector of every
    coset that the oracle's character table settles: the (field, n) of
    each descent whose root or budget spent differs, and of each settled
    coset the reference finds a generator for; the field, when the table
    charged other than the reference spends on those cosets, or when the
    oracle raises InconsistencyError; with the numbers of square roots the
    sieved descents took and of candidates the reference formed.
    prepare(orc) runs on each oracle before its first verdict.  The
    searches kept on each field's subfields are cleared before its oracle,
    so that every unit the subfield searches charge is a search call
    counted here: the fields may be built, and their subfields interned,
    before any of them is counted."""
    from polyabiquad import lattice, quadratic
    descend, square_root = lattice.principal_ideal_generator, lattice.integral_square_root
    differ, counts = [], {"roots": 0, "candidates": 0}
    searched = [0]  # the budget units of the descents and the subfield searches

    def counting(K, eta):
        counts["roots"] += 1
        return square_root(K, eta)

    def compare(K, n, norms, contains, xi, spent):
        reference = Budget()
        if (xi, spent) != (unsieved_generator(K, n, norms, contains, reference),
                           reference.spent):
            differ.append((K.d, n))
        counts["candidates"] += reference.spent

    def comparing(K, n, norms, contains, budget):
        norms = list(norms)
        before = budget.spent
        xi = descend(K, n, norms, contains, budget)
        searched[0] += budget.spent - before
        compare(K, n, norms, contains, xi, budget.spent - before)
        return xi

    def searching(ideal, budget, search=quadratic.principal_generator_quad):
        before = budget.spent
        gen = search(ideal, budget)
        searched[0] += budget.spent - before
        return gen

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lattice, "integral_square_root", counting)
        patch.setattr(lattice, "principal_ideal_generator", comparing)
        patch.setattr(quadratic, "principal_generator_quad", searching)
        for K in fields:
            for k in K.subfields:
                k.searched.clear()
            orc = AmbiguousIdealOracle(K)
            prepare(orc)
            searched[0] = 0
            try:
                orc.polya_order_oracle()
                orc.kernel_order_oracle()
            except InconsistencyError:
                differ.append(K.d)
                continue
            # each class holds one coset of the even vectors of P with even
            # v_2, and its representative is even when the class has one
            reference = Budget()
            for vec in orc.class_representatives():
                if any(2 * v % e for e, v in zip(orc.exponents, vec)) \
                        or table_bits(orc, vec) in twist_mask_span(K):
                    continue
                n = prod(p ** (4 // e * v) for p, e, v in zip(orc.primes, orc.exponents, vec))
                if unsieved_generator(K, n, orc._relative_norm_generators(vec),
                                      orc._membership(vec), reference) is not None:
                    differ.append((K.d, n))
            if reference.spent != orc.budget.spent - searched[0]:
                differ.append(K.d)
            counts["candidates"] += reference.spent
    return differ, counts


def test_sieved_descents_match_the_unsieved_reference():
    # the sieve only drops candidates a ring map proves nonsquare: on every
    # field with |d_i| <= 30 and the many-prime fields, each descent, and
    # one vector of each coset the oracle's character table settles before
    # any descent, gets the unsieved reference's root or None and spends
    # the same budget, while the descents take 16 square roots for the
    # 1,277 candidates of both kinds
    differ, counts = descents_against_the_unsieved_reference(
        [biquadratic_field(*pair) for pair in SIEVE_PAIRS])
    assert not differ
    assert counts["candidates"] > 1000 and 5 * counts["roots"] < counts["candidates"]


def test_the_character_table_refutes_by_legendre_symbols_of_r():
    # for every vector with even v_2 of every field with |d_i| <= 30 and the
    # many-prime fields, the vector lies outside the span of the oracle's
    # eliminated table kernel T exactly when the Legendre symbols of
    # r = prod_p p^(2*v_p/e_p) at the primes of K.residue_maps match the
    # mask of no formed twist
    verdicts = Counter()
    for pair in SIEVE_PAIRS:
        orc = AmbiguousIdealOracle(biquadratic_field(*pair))
        K = orc.K
        masks = {mask for _, mask in K.unit_twists}
        span = {0}
        for x in orc._table_kernel:
            span |= {y ^ x for y in span}
        for vec in itertools.product(*[range(e) for e in orc.exponents]):
            if any(2 * v % e for e, v in zip(orc.exponents, vec)):
                continue
            r = prod(p ** (2 * v // e) for p, e, v in zip(orc.primes, orc.exponents, vec))
            bits = sum(bit for l, bit, _ in K.residue_maps if kronecker(r, l) == -1)
            refuted = pack_vector(orc, vec) not in span
            assert refuted == (bits not in masks), (K.d, vec)
            verdicts[refuted] += 1
    assert verdicts[True] > 1000 and verdicts[False] > 1000


def test_a_flipped_twist_mask_fails_the_comparison():
    # the comparison above catches a sieve that rejects a true square: on
    # Q(sqrt(14), sqrt(23)) a descent finds its root at the first twist,
    # u = 1, and flipping any one bit of that twist's mask loses it
    for bit in range(8):
        K = biquadratic_field(14, 23)
        twists = list(K.unit_twists)
        u, mask = twists[0]
        assert u == (1, 0, 0, 0)
        twists[0] = (u, mask ^ 1 << bit)
        K.__dict__["unit_twists"] = tuple(twists)
        differ, _ = descents_against_the_unsieved_reference([K])
        assert differ, bit


def test_a_flipped_prime_character_fails_the_comparison():
    # and it catches a character table that refutes a principal vector: in
    # Q(sqrt(10), sqrt(17)) rad(5) is principal, found by a descent past the
    # table.  Flipping any one bit of the characters of 5 also moves the
    # seeded rad(2)*rad(5) out of the table kernel, and the oracle raises;
    # flipping it for 2 as well keeps the seed inside, and the table
    # settles the class of rad(5), which the reference finds principal
    def flip(bit, flipped):
        def prepare(orc):
            assert orc.primes == [2, 5, 17]
            masks = orc.K.generator_masks
            orc.K.__dict__["generator_masks"] = masks[:4] + tuple(
                c ^ (p in flipped) << bit for c, p in zip(masks[4:], orc.primes))
        return prepare

    K = (10, 17, 170)
    for bit in range(8):
        differ, _ = descents_against_the_unsieved_reference([biquadratic_field(10, 17)],
                                                             flip(bit, {5}))
        assert differ == [K], bit
        differ, _ = descents_against_the_unsieved_reference([biquadratic_field(10, 17)],
                                                             flip(bit, {2, 5}))
        assert (K, 25) in differ, bit


def test_generators_of_another_ideal_raise():
    # g / n is integral for consistent relative-norm generators, as
    # b_1 b_2 b_3 = N(a)*a^2.  In Q(zeta_8) take rho_i of norm 17 in each
    # subfield, or its conjugate, and hand a descent the squares rho_i^2,
    # of norm 17^2: g / n = (rho_1 rho_2 rho_3 / 17)^2 is a square under
    # every map, so the first twist survives the sieve, and the descent
    # raises exactly when rho_1 rho_2 rho_3 is not in 17*O_K
    K = biquadratic_field(-1, 2)
    assert K.d == (-2, -1, 2)
    rhos = [(3, 2), (4, 1), (5, 2)]  # 3 + 2*sqrt(-2), 4 + i, 5 + 2*sqrt(2)
    verdicts = set()
    for signs in itertools.product((1, -1), repeat=3):
        chosen = [(u, e * v) for (u, v), e in zip(rhos, signs)]
        assert [omega_norm(d, *rho) for d, rho in zip(K.d, chosen)] == [17] * 3
        squares = [(u * u + d * v * v, 2 * u * v) for d, (u, v) in zip(K.d, chosen)]
        rho = functools.reduce(K.mul_basis_coords, (K.from_quad(i, r) for i, r in enumerate(chosen)))
        inconsistent = any(c % 17 for c in rho)
        verdicts.add(inconsistent)
        if inconsistent:
            with pytest.raises(InconsistencyError, match="not in 289"):
                principal_ideal_generator(K, 289, squares, lambda xi: True)
        else:
            xi = principal_ideal_generator(K, 289, squares, lambda xi: True)
            assert abs(K.norm(xi)) == 289
    assert verdicts == {True, False}


MEMBERSHIP_PAIRS = _scan_tasks(30, False, False) + list(MANYPRIME_PAIRS) + [(7429, 30030)]


@functools.cache
def oracle_and_radicals(pair):
    """An oracle of the field and the lattice prime_radical(K, p) of each
    of its ramified p."""
    orc = AmbiguousIdealOracle(biquadratic_field(*pair))
    return orc, {p: prime_radical(orc.K, p) for p in orc.primes}


def test_membership_by_power_agrees_with_the_radical_lattice():
    # xi in rad(p) iff p divides every coordinate of xi^e_p, against the
    # Hermite form of prime_radical for every ramified p of every field with
    # |d_i| <= 30, the many-prime fields and (7429, 30030): on the rows of
    # rad(p) and of rad(p)^2, on p*e_j and on the unit vectors e_j
    eye = [[int(r == c) for c in range(4)] for r in range(4)]
    cases = 0
    for pair in MEMBERSHIP_PAIRS:
        orc, rads = oracle_and_radicals(pair)
        for p, rad in rads.items():
            contains = orc._membership([int(q == p) for q in orc.primes])
            xis = [*rad.rows, *rad.multiply(rad).rows, *([p * x for x in u] for u in eye), *eye]
            for xi in xis:
                assert contains(xi) == rad.contains(xi), (pair, p, xi)
            assert not contains(eye[0]) and all(contains(r) for r in rad.rows), (pair, p)
            cases += 1
    assert cases == 1665


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(MEMBERSHIP_PAIRS), st.data())
def test_membership_agrees_with_the_radical_lattices_on_drawn_vectors(pair, data):
    # for a drawn exponent vector, the oracle's test of xi in rad(p) for
    # every p with v_p > 0 against the lattices of prime_radical, on drawn
    # coordinates and on drawn members of the intersection of those radicals
    orc, rads = oracle_and_radicals(pair)
    vec = data.draw(st.tuples(*(st.integers(0, e - 1) for e in orc.exponents)))
    coeffs = data.draw(st.lists(st.integers(-60, 60), min_size=4, max_size=4))
    support = [rads[p] for p, v in zip(orc.primes, vec) if v]
    if data.draw(st.booleans()):
        rows = vector_lattice(orc, [int(v > 0) for v in vec]).rows
        xi = [sum(c * r[j] for c, r in zip(coeffs, rows)) for j in range(4)]
    else:
        xi = coeffs
    assert orc._membership(vec)(xi) == all(rad.contains(xi) for rad in support)


def recording_subfield_searches(monkeypatch) -> list:
    """Record the ideal of every quadratic.principal_generator_quad call the
    oracle makes inside generator_above_2, so the subfield books' own
    descents are not counted."""
    from polyabiquad import lattice, quadratic
    calls, searched = [], []
    search, above_2 = quadratic.principal_generator_quad, quadratic.generator_above_2

    def recording(ideal, budget=None):
        calls.append(ideal)
        return search(ideal, budget)

    def generator(k, budget):
        start = len(calls)
        gamma = above_2(k, budget)
        searched.extend(calls[start:])
        return gamma

    monkeypatch.setattr(quadratic, "principal_generator_quad", recording)
    monkeypatch.setattr(lattice, "generator_above_2", generator)
    return searched


def check_subfield_searches(orc, searched) -> None:
    """The oracle of a counted field searched at most once per subfield, for
    its prime above a totally ramified 2, and never when e_2 = 2."""
    primes_above_2 = [prime_above(k, 2) for k in orc.K.subfields if 2 in k.ramified_primes]
    fields = [ideal.field for ideal in searched]
    assert len(set(fields)) == len(fields), orc.K.d
    assert all(ideal in primes_above_2 for ideal in searched), orc.K.d
    assert orc.exponents[0] == 4 or not searched, orc.K.d


def test_oracle_descends_only_where_no_subfield_decides(monkeypatch):
    # on the many-prime fields every principal verdict comes from an extended
    # principal subfield product, and every other coset is settled by the
    # character table of every split prime below 300, so no K-level descent
    # runs; the relative-norm generators are in closed form, so the oracle
    # searches a subfield only for its prime above a totally ramified 2, once
    from polyabiquad import lattice
    found = []
    descend = lattice.principal_ideal_generator

    def recording(K, n, norms, contains, budget=None):
        found.append(descend(K, n, norms, contains, budget))
        return found[-1]

    monkeypatch.setattr(lattice, "principal_ideal_generator", recording)
    searched = recording_subfield_searches(monkeypatch)
    searches = 0
    for pair in MANYPRIME_PAIRS:
        orc = AmbiguousIdealOracle(biquadratic_field(*pair))
        orc.polya_order_oracle()
        orc.kernel_order_oracle()
        check_subfield_searches(orc, searched)
        searches += len(searched)
        searched.clear()
    assert found == []
    assert searches > 0
    # the recorder sees a descent where one runs: Q(sqrt(2), sqrt(3))
    AmbiguousIdealOracle(biquadratic_field(2, 3)).polya_order_oracle()
    assert len(found) == 1


# |Po(K)|, the kernel, the cokernel and the budget units spent by the
# oracle of the many-prime fields, the three s_K = 12/13 rows of
# test_cli.test_biquad_verify_wide_fields and the s_K = 17 field, as found
# while the character table held only the first eight split primes
ORACLE_FIGURES = {
    (-210, 143): (16, 64, 2, 29),
    (210, 143): (4, 64, 2, 26),
    (-2310, 13): (16, 32, 1, 60),
    (-1155, 26): (16, 32, 1, 60),
    (30, 77): (2, 8, 1, 22),
    (-9699690, 765049): (512, 2048, 1, 2196),
    (9699690, -765049): (1024, 4096, 2, 2064),
    (-9699690, 31367009): (1024, 4096, 1, 4437),
    (-6469693230, 297194980009): (16384, 65536, 1, 77052),
}


def test_oracle_figures_are_frozen_and_take_no_descent(monkeypatch):
    # a table that settles a coset charges the units its descents would
    # have: every figure and budget holds, now that no K-level descent runs
    # on these fields (the s_K = 17 field took 255)
    from polyabiquad import lattice
    descents = []
    monkeypatch.setattr(lattice, "principal_ideal_generator",
                        lambda K, *args: descents.append(K.d))
    for pair, figures in ORACLE_FIGURES.items():
        orc = AmbiguousIdealOracle(biquadratic_field(*pair))
        assert (orc.polya_order_oracle(), orc.kernel_order_oracle(),
                orc.cokernel_order_oracle(), orc.budget.spent) == figures, pair
    assert descents == []


def test_every_descent_gets_three_generators_of_its_norm(monkeypatch):
    # on the verified oracles of bound 20 and the many-prime fields, every
    # K-level descent is handed an ideal of norm n > 1 and a list of three
    # generators of norm +-n, none missing, and a vector with odd v_2
    # reaches a descent only when every gamma_i exists
    from polyabiquad import lattice
    descend, generator = AmbiguousIdealOracle._descend, lattice.principal_ideal_generator
    vectors, calls = [], []

    def recording_descend(orc, vec):
        vectors.append((orc, vec))
        return descend(orc, vec)

    def recording(K, n, gens, contains, budget=None):
        calls.append((vectors[-1], n, gens))
        return generator(K, n, gens, contains, budget)

    monkeypatch.setattr(AmbiguousIdealOracle, "_descend", recording_descend)
    monkeypatch.setattr(lattice, "principal_ideal_generator", recording)
    without_gammas = 0
    for pair in _scan_tasks(20, False, False) + list(MANYPRIME_PAIRS):
        orc = AmbiguousIdealOracle(biquadratic_field(*pair))
        orc.polya_order_oracle()
        orc.kernel_order_oracle()
        orc.cokernel_order_oracle()
        without_gammas += orc.exponents[0] == 4 and orc._gammas is None
    odd = 0
    for (orc, vec), n, gens in calls:
        assert n > 1, (orc.K.d, vec)
        assert type(gens) is list and len(gens) == 3 and None not in gens, (orc.K.d, vec)
        assert all(abs(omega_norm(k.d, *g)) == n for k, g in zip(orc.K.subfields, gens)), \
            (orc.K.d, vec)
        if any(2 * v % e for e, v in zip(orc.exponents, vec)):
            assert orc._gammas is not None, (orc.K.d, vec)
            odd += 1
    assert len(calls) == len(vectors) and odd > 0 and without_gammas > 0


def test_subfield_books_search_only_past_the_genus_sieve(monkeypatch):
    # the subfield books of the many-prime fields ran 174 form searches
    # before genus characters sieved their masks
    from polyabiquad import quadratic
    searched, search = [], quadratic.principal_generator_quad

    def recording(ideal, budget=None):
        searched.append(ideal)
        return search(ideal, budget)

    monkeypatch.setattr(quadratic, "principal_generator_quad", recording)
    for pair in MANYPRIME_PAIRS:
        orc = AmbiguousIdealOracle(biquadratic_field(*pair))
        orc.polya_order_oracle()
        orc.kernel_order_oracle()
    assert 0 < len(searched) <= 11


def test_descent_roots_lie_in_the_product_lattice(monkeypatch):
    # the oracle tests a root for membership radical by radical: every root
    # its descents find lies in the product lattice of the radicals, the
    # guard refuses 1, and the same descent with a guard that refuses every
    # root finds none
    from polyabiquad import lattice
    descend, generator = AmbiguousIdealOracle._descend, lattice.principal_ideal_generator
    vectors, calls = [], []

    def recording_descend(orc, vec):
        vectors.append((orc, vec))
        return descend(orc, vec)

    def recording(K, n, norms, contains, budget=None):
        norms = list(norms)
        calls.append((vectors[-1], K, n, norms, contains,
                      generator(K, n, norms, contains, budget)))
        return calls[-1][-1]

    monkeypatch.setattr(AmbiguousIdealOracle, "_descend", recording_descend)
    monkeypatch.setattr(lattice, "principal_ideal_generator", recording)
    searched = recording_subfield_searches(monkeypatch)
    searches = 0
    for a, b in _scan_tasks(20, False, False):
        orc = AmbiguousIdealOracle(biquadratic_field(a, b))
        orc.polya_order_oracle()
        orc.kernel_order_oracle()
        check_subfield_searches(orc, searched)
        searches += len(searched)
        searched.clear()
    assert searches > 0
    roots = 0
    for (orc, vec), K, n, norms, contains, xi in calls:
        assert not contains((1, 0, 0, 0)), (K.d, vec)
        if xi is None:
            continue
        assert vector_lattice(orc, vec).contains(xi), (K.d, vec)
        assert generator(K, n, norms, lambda _: False) is None, (K.d, vec)
        roots += 1
    assert len(calls) == len(vectors) and roots > 0


def test_oracle_multiplies_no_lattice(monkeypatch):
    # the descents test membership by xi^e_p in p*O_K and the seed reads
    # P_i*O_K = rad(p)^(e_p/2) off ramification theory: the oracle takes no
    # lattice product, and on a field it makes no descent in K for, once K
    # and its units are built, no product in K either
    from polyabiquad import lattice
    count = Counter()

    def counting(name, f):
        def counted(*args):
            count[name] += 1
            return f(*args)
        return counted

    monkeypatch.setattr(IdealLattice, "multiply", counting("lattice", IdealLattice.multiply))
    monkeypatch.setattr(BiquadField, "mul_basis_coords",
                        counting("product", BiquadField.mul_basis_coords))
    monkeypatch.setattr(lattice, "principal_ideal_generator",
                        counting("descent", lattice.principal_ideal_generator))
    undescended = 0
    for pair in _scan_tasks(20, False, False) + list(MANYPRIME_PAIRS):
        K = biquadratic_field(*pair)
        K.units
        count.clear()
        orc = AmbiguousIdealOracle(K)
        orc.polya_order_oracle()
        orc.kernel_order_oracle()
        assert count["lattice"] == 0, pair
        if not count["descent"]:
            assert count["product"] == 0, pair
            undescended += 1
    assert undescended > 0


def test_kernel_order_matches_the_triple_count():
    # the Hermite-form count of the kernel against the walk over every triple
    # of subfield class representatives, which also checks kernel * image
    pairs = _scan_tasks(30, False, False) + list(MANYPRIME_PAIRS) + [(7429, 30030)]
    for a, b in pairs:
        orc = AmbiguousIdealOracle(biquadratic_field(a, b))
        assert orc.kernel_order_oracle() == kernel_order_by_triples(orc), (a, b)
    assert len(pairs) == 540


def test_cokernel_matches_the_hermite_form():
    # the cokernel read off the parity of v_2 in P against the pivots of the
    # stacked Hermite form, on bound 30, the many-prime fields, (7429, 30030)
    # and the three s_K >= 12 fields of test_cli
    pairs = (_scan_tasks(30, False, False) + list(MANYPRIME_PAIRS) + [(7429, 30030)]
             + [(-9699690, 765049), (9699690, -765049), (-9699690, 31367009)])
    twos = 0
    for a, b in pairs:
        orc = AmbiguousIdealOracle(biquadratic_field(a, b))
        coker = orc.cokernel_order_oracle()
        assert coker == cokernel_by_hermite_form(orc), (a, b)
        twos += coker == 2
    assert len(pairs) == 543 and twos > 0


def test_the_echelon_book_matches_the_set_based_reference():
    # on every field with |d_i| <= 30, the many-prime fields and the s_K = 13
    # field: the oracle's book gives the class representatives, principal
    # set, kernel and cokernel of PrincipalCosets, which visits every vector,
    # and each subfield book its class representatives and principal masks
    for pair in SIEVE_PAIRS + [(-9699690, 31367009)]:
        K = biquadratic_field(*pair)
        orc = AmbiguousIdealOracle(K)
        ref = reference_classes(AmbiguousIdealOracle(K))
        assert orc.class_representatives() == ref["reps"], K.d
        assert {x for x in range(prod(orc.exponents)) if not orc._book.reduce(x)} \
            == ref["principal"], K.d
        assert orc._book.order == len(ref["principal"]), K.d
        assert (orc.kernel_order_oracle(), orc.cokernel_order_oracle()) \
            == (ref["kernel"], ref["cokernel"]), K.d
        for k, sub, (reps, principal) in zip(K.subfields, orc._subfield_books, ref["subfields"]):
            assert subfield_class_representatives(sub) == reps, (K.d, k.d)
            assert {m for m in range(1 << k.s) if not sub.reduce(m)} == principal, (K.d, k.d)


def test_the_class_count_is_the_number_of_representatives():
    # |G : P| off the completed book against the representatives it lists,
    # on every field with |d_i| <= 60 and the many-prime fields
    pairs = _scan_tasks(60, False, False) + list(MANYPRIME_PAIRS)
    tops = set()
    for pair in pairs:
        orc = AmbiguousIdealOracle(biquadratic_field(*pair))
        assert orc.polya_order_oracle() == len(orc.class_representatives()), pair
        tops.add(orc._book.top >> len(orc.primes) - 1)
    assert tops == {0, 1, 2}  # every top digit of a pivot occurs


def test_the_oracle_visits_far_fewer_vectors_than_g(capsys, monkeypatch):
    # Q(sqrt(-9699690), sqrt(31367009)) has |G| = 8,192 and the s_K = 17
    # field |G| = 131,072; with every split prime below 300 in the table,
    # each book is left a 3-dimensional table kernel, whose 8 vectors form
    # one coset of P, and reduces a vector 8 times in all, where the
    # set-based book visited every vector of G; the verified rows keep
    # their digests
    import hashlib
    from polyabiquad.cli import main
    reduced = Counter()
    reduce = CosetBook.reduce

    def counting(book, x):
        reduced[id(book)] += 1
        return reduce(book, x)

    monkeypatch.setattr(CosetBook, "reduce", counting)
    for pair, size, classes, digest in (
            ((-9699690, 31367009), 8192, 1024,
             "ce8c6ef961962c2e31428b38749f39917bbda2c33acbbec6c508acf990ec5c32"),
            ((-6469693230, 297194980009), 131072, 16384,
             "c16aba58580cd99bad0a0ef18b581645ae01521f08f04004405486d169585310")):
        orc = AmbiguousIdealOracle(biquadratic_field(*pair))
        assert prod(orc.exponents) == size
        assert orc.polya_order_oracle() == classes
        assert len(orc._table_kernel) == 3 and orc._book.order == 8, pair
        assert reduced[id(orc._book)] == 8, pair
        assert main(["biquad", *map(str, pair), "--verify", "--json"]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest, pair


# the three s_K = 12/13 fields of test_cli.test_biquad_verify_wide_fields and
# the s_K = 17 field
WIDE_PAIRS = ((-9699690, 765049), (9699690, -765049), (-9699690, 31367009),
              (-6469693230, 297194980009))


def test_cold_oracle_figures_of_bound_60_are_frozen():
    # |Po|, the kernel, the cokernel and the budget spent of the oracle on
    # every field of bound 60, the many-prime and the wide fields, each
    # built with the subfield caches empty, so that each field is charged
    # every subfield search it reads: 2,293 fields, 105,983 units in all
    import hashlib
    rows, units = hashlib.sha256(), 0
    for pair in _scan_tasks(60, False, False) + list(MANYPRIME_PAIRS + WIDE_PAIRS):
        clear_subfield_caches()
        K = biquadratic_field(*pair)
        orc = AmbiguousIdealOracle(K)
        row = (K.d, orc.polya_order_oracle(), orc.kernel_order_oracle(),
               orc.cokernel_order_oracle(), orc.budget.spent)
        rows.update(repr(row).encode() + b"\n")
        units += orc.budget.spent
    assert units == 105983
    assert rows.hexdigest() == \
        "d786943d12533f8f5297c7f5de6e84f545fe8f7ae03dc54306d59c9b39d0da73"


def test_kernel_and_cokernel_take_no_hermite_form(monkeypatch):
    # the kernel and cokernel are group orders, and the class count builds
    # no radical: the whole count calls hnf_rows zero times
    from polyabiquad import lattice
    calls = [0]
    hnf = lattice.hnf_rows

    def counting(rows, dim):
        calls[0] += 1
        return hnf(rows, dim)

    monkeypatch.setattr(lattice, "hnf_rows", counting)
    for pair in MANYPRIME_PAIRS:
        orc = AmbiguousIdealOracle(biquadratic_field(*pair))
        orc.polya_order_oracle()
        orc.cokernel_order_oracle()
        orc.kernel_order_oracle()
        assert calls[0] == 0, pair


def test_oracle_kernel_is_power_of_two_dividing_domain():
    from polyabiquad.quadratic import polya_order_quad
    for pair in ((-1, -5), (2, 5), (-2, -7), (3, 5)):
        K = biquadratic_field(*pair)
        ker = AmbiguousIdealOracle(K).kernel_order_oracle()
        domain = 1
        for k in K.subfields:
            domain *= polya_order_quad(k)
        assert ker >= 1 and domain % ker == 0
        assert ker & (ker - 1) == 0


def test_budget_exhaustion_is_an_error_not_a_verdict():
    K = biquadratic_field(11, 14)
    orc = AmbiguousIdealOracle(K, budget_units=10)
    with pytest.raises(BudgetExceededError):
        orc.polya_order_oracle()


def test_hnf_shape_and_norm():
    K = biquadratic_field(2, 3)
    rad = prime_radical(K, 2)
    rows = rad.rows
    for i in range(4):
        assert rows[i][i] > 0
        assert all(rows[i][j] == 0 for j in range(i))
    det = 1
    for i in range(4):
        det *= rows[i][i]
    assert det == rad.norm


def test_extended_subfield_products_are_galois_stable():
    # extensions of products of subfield ambiguous ideals are fixed by
    # every Galois element
    import itertools
    for pair in ((-1, -5), (2, 5), (-2, -3)):
        K = biquadratic_field(*pair)
        orc = AmbiguousIdealOracle(K)
        masks = [range(2 ** k.s) for k in K.subfields]
        rng = random.Random(3)
        for _ in range(6):
            trip = [rng.choice(list(m)) for m in masks]
            vec = [0] * len(orc.primes)
            for i, m in enumerate(trip):
                for j, v in enumerate(orc.unpack(subfield_image(orc, i, m))):
                    vec[j] += v
            lat = vector_lattice(orc, reduce_vector(orc, vec))
            assert is_galois_stable(lat)


def test_radical_above_2_by_ramification_index():
    # e_2 = 4: rad(2) is the prime above 2 and its fourth power is (2)
    K = zeta8_field()
    pi2 = prime_radical(K, 2)
    assert pi2.norm == 2
    assert pi2.multiply(pi2).multiply(pi2).multiply(pi2) == rational_ideal(K, 2)
    # e_2 = 2: already the square of rad(2) is (2)
    K12 = biquadratic_field(-1, -3)
    assert K12.profile.e2 == 2
    rad = prime_radical(K12, 2)
    assert rad.multiply(rad) == rational_ideal(K12, 2)


def test_ideals_closed_under_multiplication():
    # each radical is an ideal, of norm p^(4/e_p), whose e_p-th power is
    # p*O_K; for e_2 = 4 prime_radical certifies only rad^2 = P_i*O_K, so the
    # fourth power is taken here by explicit products
    cases = 0
    for K, p, rad in radicals_up_to_30():
        e = K.profile.exponents[K.profile.primes.index(p)]
        assert is_closed_under_multiplication(rad), (K.d, p)
        assert rad.norm == p ** (4 // e), (K.d, p)
        power = rational_ideal(K, 1)
        for _ in range(e):
            power = power.multiply(rad)
        assert power == rational_ideal(K, p), (K.d, p)
        cases += 1
    assert cases == 1627


def totally_ramified_2_up_to_30():
    """Every field with |d_i| <= 30 in which 2 is totally ramified."""
    for a, b in _scan_tasks(30, False, False):
        K = biquadratic_field(a, b)
        if K.profile.e2 == 4:
            yield K


def test_subfield_primes_above_a_totally_ramified_2_square_to_2():
    # prime_radical's one-product certificate for e_2 = 4 rests on P_i^2 = 2*O_{k_i}
    fields = 0
    for K in totally_ramified_2_up_to_30():
        for k in K.subfields:
            p2 = prime_above(k, 2)
            assert quad_ideal_multiply(p2, p2) == quad_ideal_from_elements(k, [(2, 0)])
        fields += 1
    assert fields == 163


def test_radical_of_a_totally_ramified_2_rejects_a_wrong_kernel(monkeypatch):
    # flipping the parity of N(x) mod 2 on the second basis element changes
    # the kernel rows but keeps a lattice of norm 2, which the norm check
    # passes; the one product rad * rad must raise, for every e_2 = 4 field
    # with |d_i| <= 30
    fields = 0
    for K in totally_ramified_2_up_to_30():
        norm = K.norm
        monkeypatch.setattr(K, "norm", lambda x, norm=norm: norm(x) + (x == [0, 1, 0, 0]))
        with pytest.raises(InconsistencyError):
            prime_radical(K, 2)
        fields += 1
    assert fields == 163


def test_relative_norm_of_principal_ideal_matches_element_norm():
    # N_{K/k_i}((gamma)) must equal the subfield ideal (gamma * sigma_i(gamma))
    rng = random.Random(17)
    for pair in ((2, 3), (-1, -5), (-2, 7)):
        K = biquadratic_field(*pair)
        for _ in range(4):
            el = BiquadElement(K, (0, 0, 0, 0))
            while el.is_zero() or el.norm() == 0 or abs(el.norm()) > 500:
                el = BiquadElement(K, [Fraction(rng.randint(-2, 2)) for _ in range(4)])
            lat = ideal_from_elements(K, [el])
            for i in range(3):
                rel = relative_norm_ideal(K, lat, i)
                q = (el * el.sigma(i + 1)).to_quad(i).omega_coords()
                expected = quad_ideal_from_elements(K.subfields[i], [q])
                assert rel == expected, (pair, i)


def test_relative_norm_matches_the_fraction_route():
    # every radical product of every field with |d_i| <= 12, each subfield
    cases = 0
    for a, b in _scan_tasks(12, False, False):
        K = biquadratic_field(a, b)
        orc = AmbiguousIdealOracle(K)
        for vec in itertools.product(*[range(e) for e in orc.exponents]):
            lat = vector_lattice(orc, vec)
            for i in range(3):
                assert relative_norm_ideal(K, lat, i) == relative_norm_fraction(K, lat, i), \
                    (K.d, vec, i)
                cases += 1
    assert cases == 1908


def test_closed_form_relative_norm_generators_match_the_lattice_intersection():
    # every radical product of every field with |d_i| <= 20, each subfield:
    # with e_2 = 4 the odd powers of rad(2) leave the prime P_2 above 2
    # over, and the search for gamma_i finds no generator of P_2 exactly
    # when the lattice relative norm is nonprincipal; the oracle's
    # generators, which it gives when every gamma_i exists, lie in the
    # lattice relative norms and have norm N(a), so they generate them
    cases, parities = 0, set()
    for a, b in _scan_tasks(20, False, False):
        K = biquadratic_field(a, b)
        orc = AmbiguousIdealOracle(K)
        for vec in itertools.product(*[range(e) for e in orc.exponents]):
            lat = vector_lattice(orc, vec)
            odd = any(2 * v % e for e, v in zip(orc.exponents, vec))
            gens = orc._relative_norm_generators(vec) if not odd or orc._gammas else [None] * 3
            for i, gen in enumerate(gens):
                ideal = relative_norm_ideal(K, lat, i)
                principal = principal_generator_quad(ideal) is not None
                if odd:
                    gamma = principal_generator_quad(prime_above(K.subfields[i], 2))
                    assert (gamma is not None) == principal, (K.d, vec, i)
                if gen is not None:
                    assert ideal.contains(gen), (K.d, vec, i, gen)
                    assert abs(omega_norm(K.subfields[i].d, *gen)) == lat.norm, \
                        (K.d, vec, i, gen)
                cases += 1
            if 4 in orc.exponents:
                parities.add((K.d, vec[orc.exponents.index(4)] % 2))
    assert cases == 6756
    assert len(parities) == 2 * 64


def test_relative_norm_generators_of_the_wrong_norm_raise():
    # the norm check guards every generator a descent is handed; (2, 0) in
    # each subfield of Q(sqrt(2), sqrt(3)) gives the root sqrt(2) of (2)
    K = biquadratic_field(2, 3)
    assert principal_ideal_generator(K, 4, [(2, 0)] * 3, lambda _: True) is not None
    with pytest.raises(InconsistencyError):
        principal_ideal_generator(K, 4, [(2, 0), (2, 0), (1, 1)], lambda _: True)


def test_malformed_lattices_raise():
    K = zeta8_field()
    with pytest.raises(InconsistencyError):
        IdealLattice(K, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]])
    with pytest.raises(InvalidInputError):
        rational_ideal(K, 0)


def test_non_hnf_rows_raise_under_python_O():
    # the shape check guards every ideal norm, the continued-fraction unit is
    # shared by both routes and the norm form guards every subfield ideal
    # the descent takes a generator of, so -O must strip none of the three checks
    import polyabiquad
    code = ("from polyabiquad import biquadratic_field, InconsistencyError\n"
            "from polyabiquad.lattice import IdealLattice\n"
            "from polyabiquad.quadratic import (QuadIdeal, QuadraticField,\n"
            "                                   _cf_fundamental_unit,\n"
            "                                   principal_generator_quad)\n"
            "K = biquadratic_field(-1, 2)\n"
            "try:\n"
            "    IdealLattice(K, [[2, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]])\n"
            "except InconsistencyError:\n"
            "    print('raised')\n"
            "k = QuadraticField(5)\n"
            "k.delta = 16  # a square discriminant has no continued-fraction unit\n"
            "try:\n"
            "    _cf_fundamental_unit(k)\n"
            "except InconsistencyError:\n"
            "    print('raised')\n"
            "try:\n"
            "    principal_generator_quad(QuadIdeal(QuadraticField(-5), 4, 1, 1))\n"
            "except InconsistencyError:\n"
            "    print('raised')\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(polyabiquad.__file__)))
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    for flags in ([], ["-O"]):
        out = subprocess.run([sys.executable, *flags, "-c", code], env=env,
                             capture_output=True, text=True, timeout=60)
        assert out.returncode == 0 and out.stdout == "raised\n" * 3, (flags, out.stderr)

