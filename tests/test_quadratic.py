import functools
import itertools
from math import isqrt
from operator import xor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exact_reference import (QuadElement, elementwise_decide, genus_vectors,
                             minpoly_double_root_scan, quad_ideal_closed_under_multiplication,
                             quad_ideal_conjugate, quad_ideal_euclid, quad_ideal_from_elements,
                             quad_ideal_multiply, reference_subfield_classes,
                             subfield_class_representatives, subset_ideal_chain,
                             two_pass_fundamental_unit)
from polyabiquad import quadratic
from polyabiquad.biquadratic import biquadratic_field
from polyabiquad.cosets import CosetBook, f2_span
from polyabiquad.errors import Budget, DomainError, InconsistencyError, InvalidInputError
from polyabiquad.intmath import factorize, squarefree_part
from polyabiquad.quadratic import (QuadIdeal, QuadraticField, _form_characters, _ideal_form,
                                   _minpoly_double_root, _subset_ideal, ambiguous_classes,
                                   ambiguous_oracle_quad, omega_norm, polya_order_quad,
                                   prime_above, principal_generator_quad, quadratic_field,
                                   radical_coords)


def brute_fundamental_unit(d: int, cap: int = 10**7) -> QuadElement:
    """Independent Pell oracle: the smallest (t + u*sqrt(delta'))/2 unit > 1,
    found by ascending search on u in t^2 - delta*u^2 = +-4."""
    delta = d if d % 4 == 1 else 4 * d
    for u in range(1, cap):
        # norm -4 first: for equal u it gives the smaller t, hence smaller unit
        for rhs in (delta * u * u - 4, delta * u * u + 4):
            if rhs < 0:
                continue
            t = isqrt(rhs)
            if t * t == rhs and (t - u * delta) % 2 == 0:
                # unit (t + u*sqrt(delta))/2 over sqrt(d)
                scale = 2 if delta == 4 * d else 1
                return QuadElement.make(d, t, u * scale, 2)
    raise AssertionError("no unit found under cap")


def unit_element(d: int) -> QuadElement:
    """The fundamental unit of Q(sqrt(d)) as a reference element."""
    return QuadElement.from_omega(d, *quadratic_field(d).fundamental_unit)


def test_construct_examples():
    k = quadratic_field(-1)
    assert (k.delta, k.ramified_primes, k.s, k.nu) == (-4, [2], 1, 0)
    k3 = quadratic_field(3)
    assert (k3.delta, k3.ramified_primes, k3.s) == (12, [2, 3], 2)
    assert quadratic_field(12).d == 3  # squarefree normalization


def test_construct_rejects_squares():
    for bad in (0, 1, 4, 9, -0):
        with pytest.raises(InvalidInputError):
            quadratic_field(bad)


def test_fundamental_unit_examples():
    assert quadratic_field(2).fundamental_unit == (1, 1)  # 1 + sqrt(2)
    assert quadratic_field(2).lam == -1
    assert quadratic_field(3).fundamental_unit == (2, 1)  # 2 + sqrt(3)
    assert quadratic_field(3).lam == 1
    assert quadratic_field(5).fundamental_unit == (0, 1)  # (1 + sqrt(5))/2
    assert quadratic_field(5).lam == -1


def test_fundamental_unit_matches_brute_oracle():
    for d in range(2, 60):
        if squarefree_part(d) != d:
            continue
        assert unit_element(d) == brute_fundamental_unit(d), d
        assert abs(unit_element(d).norm()) == 1


def test_fundamental_unit_large_case():
    # big continued-fraction period; value cross-checked by the Pell oracle
    assert unit_element(94) == QuadElement(94, 2143295, 221064, 1)
    assert unit_element(94).norm() == 1


def test_one_pass_unit_matches_the_two_pass_reference():
    # the walk from the state after the first digit ends on the same unit
    # as the earlier expansion that records every state and digit from omega
    for d in range(2, 10_001):
        if squarefree_part(d) == d:
            k = QuadraticField(d)
            assert k.fundamental_unit == two_pass_fundamental_unit(k), d


def test_fundamental_unit_imaginary_rejected():
    with pytest.raises(DomainError):
        _ = quadratic_field(-2).fundamental_unit


def test_norm_one_unit_has_square_over_rational_form():
    # lambda = +1: eps = rho^2 / N(rho) with rho = 1 + eps
    for d in (3, 6, 7, 11, 19, 21, 33):
        k = quadratic_field(d)
        if k.lam != 1:
            continue
        eps = unit_element(d)
        rho = QuadElement(d, 1, 0, 1) + eps
        assert eps.scale(rho.norm()) == rho * rho


def test_nu_iff_lambda_plus_one():
    for d in range(-30, 31):
        if d in (0, 1) or squarefree_part(d) != d:
            continue
        k = quadratic_field(d)
        assert (k.nu == 1) == (k.is_real and k.lam == 1)


def test_principality_examples():
    ki = quadratic_field(-1)
    gen = principal_generator_quad(prime_above(ki, 2))
    assert gen is not None and abs(omega_norm(-1, *gen)) == 2

    k5 = quadratic_field(-5)
    assert principal_generator_quad(prime_above(k5, 2)) is None
    # independent check: x^2 + 5 y^2 = 2 has no solution
    assert not any(x * x + 5 * y * y == 2 for x in range(-2, 3) for y in range(-1, 2))

    k2 = quadratic_field(2)
    gen = principal_generator_quad(prime_above(k2, 2))
    assert gen is not None and abs(omega_norm(2, *gen)) == 2

    k10 = quadratic_field(10)
    assert principal_generator_quad(prime_above(k10, 2)) is None
    # independent check: x^2 - 10 y^2 = +-2 is impossible mod 5
    assert all(pow(x, 2, 5) not in (2, 3) for x in range(5))


def test_principality_conjugation_invariance():
    for d in (-14, -10, 15, 26, 34):
        k = quadratic_field(d)
        for p in k.ramified_primes:
            a = prime_above(k, p)
            g1 = principal_generator_quad(a)
            g2 = principal_generator_quad(quad_ideal_conjugate(a))
            assert (g1 is None) == (g2 is None)


def test_principal_generator_of_constructed_principal_ideals():
    for d in (-5, -6, 10, 15, 79):
        k = quadratic_field(d)
        for el in ((3, 1), (7, -2), (4, 1)):
            ideal = quad_ideal_from_elements(k, [el])
            gen = principal_generator_quad(ideal)
            assert gen is not None
            assert quad_ideal_from_elements(k, [gen]) == ideal


def test_non_ideal_lattice_rejected():
    k = quadratic_field(-5)
    bad = QuadIdeal(k, 4, 1, 1)  # (4, 1+omega) is not closed under omega
    assert not quad_ideal_closed_under_multiplication(bad)
    with pytest.raises(InconsistencyError):  # its norm form is not integral
        principal_generator_quad(bad)


def test_prime_above_requires_ramified():
    with pytest.raises(DomainError):
        prime_above(quadratic_field(-1), 3)


def test_ideal_arithmetic():
    k = quadratic_field(-5)
    p2 = prime_above(k, 2)
    assert quad_ideal_multiply(p2, p2) == quad_ideal_from_elements(k, [(2, 0)])
    assert quad_ideal_multiply(p2, quad_ideal_conjugate(p2)).norm == 4
    one = quad_ideal_from_elements(k, [(1, 0)])
    assert quad_ideal_multiply(p2, one) == p2
    # error messages quote an ideal by its repr; two builds are equal and
    # hash alike
    assert repr(p2) == "QuadIdeal(field=QuadraticField(-5), a=2, b=1, c=1)"
    assert p2 == prime_above(k, 2) and hash(p2) == hash(prime_above(k, 2))


def test_polya_order_examples():
    assert polya_order_quad(quadratic_field(-1)) == 1
    assert polya_order_quad(quadratic_field(-5)) == 2
    assert polya_order_quad(quadratic_field(3)) == 1


def test_oracle_examples():
    assert ambiguous_oracle_quad(quadratic_field(-1)) == 1
    assert ambiguous_oracle_quad(quadratic_field(-5)) == 2
    assert ambiguous_oracle_quad(quadratic_field(10)) == 2


def test_oracle_matches_formula_small_sweep():
    for d in range(-60, 61):
        if d in (0, 1) or squarefree_part(d) != d:
            continue
        k = quadratic_field(d)
        assert ambiguous_oracle_quad(k) == polya_order_quad(k), d


def cold_book(d: int) -> CosetBook:
    """The completed book of Q(sqrt(d)), built afresh on a field outside
    quadratic_field's table, so that no search of an earlier build is read."""
    return ambiguous_classes(QuadraticField(d), Budget())


def open_book(k: QuadraticField, seeded: bool = True) -> CosetBook:
    """A book of the masks of k that nothing has decided, with the (sqrt(d))
    seed of ambiguous_classes unless seeded is False: each test searches
    the mask's product through quadratic.principal_generator_quad, looked
    up at call time as the library's book does."""
    book = CosetBook(k.s - 1, 2, lambda mask: quadratic.principal_generator_quad(
        _subset_ideal(k, mask)) is not None)
    if seeded:
        book.add_principal(sum(1 << i for i, p in enumerate(k.ramified_primes) if k.d % p == 0))
    return book


def every_mask(k: QuadraticField) -> list[int]:
    """A stand-in for quadratic._genus_kernel that leaves every mask to decide."""
    return [1 << i for i in range(k.s)]


def test_oracle_representatives_deterministic():
    reps1 = subfield_class_representatives(cold_book(-21))  # s = 3
    reps2 = subfield_class_representatives(cold_book(-21))
    assert reps1 == reps2
    assert reps1[0] == 0  # the principal class is represented by the empty product


def test_class_representatives_list_masks_in_increasing_order():
    # with every mask its own class, the representatives are every mask, in
    # increasing order
    for s in range(1, 13):
        assert subfield_class_representatives(CosetBook(s - 1, 2, None)) == list(range(2 ** s)), s


def test_minpoly_double_root_closed_form_matches_the_scan():
    # every ramified p of every Q(sqrt(d)) with squarefree |d| <= 3000
    pairs = [(d, p) for d in range(-3000, 3001) if d not in (0, 1) and squarefree_part(d) == d
             for p in factorize(d if d % 4 == 1 else 4 * d)]
    assert len(pairs) == 8956
    for d, p in pairs:
        assert _minpoly_double_root(d, p) == minpoly_double_root_scan(d, p), (d, p)


def test_ramified_primes_and_discriminant_from_one_factorisation():
    # the primes of odd exponent in d, and 2 when d is 2 or 3 mod 4, against
    # the primes dividing the discriminant; d need not be squarefree
    for n in range(-300, 301):
        if n == 0 or n > 0 and isqrt(n) ** 2 == n:
            continue
        k = quadratic_field(n)
        assert k.d == squarefree_part(n), n
        assert k.ramified_primes == sorted(factorize(k.delta)), n
    with pytest.raises(InvalidInputError):
        quadratic_field(0)


def test_coset_verdicts_agree_with_a_descent_on_every_subset():
    for d in range(-60, 61):
        if d in (0, 1) or squarefree_part(d) != d:
            continue
        k = quadratic_field(d)
        masks = range(2 ** k.s)
        direct = [principal_generator_quad(_subset_ideal(k, m)) is not None for m in masks]
        lex, rev = cold_book(d), open_book(k)
        for m in reversed(masks):
            assert rev.is_principal(m) == direct[m], (d, m)
        for m in masks:
            assert lex.is_principal(m) == direct[m], (d, m)


def _count_searches(monkeypatch) -> list:
    calls, search = [], quadratic.principal_generator_quad

    def recording(ideal, budget=None):
        calls.append(ideal)
        return search(ideal, budget)

    monkeypatch.setattr(quadratic, "principal_generator_quad", recording)
    return calls


def test_sqrt_d_is_principal_before_any_descent(monkeypatch):
    # the book starts with the mask of (sqrt(d)), the product of the primes
    # dividing d, certified by sqrt(d) itself: with every search answering
    # "nonprincipal", P is exactly the span of that mask
    monkeypatch.setattr(quadratic, "principal_generator_quad", lambda ideal, budget=None: None)
    fields = 0
    for d in range(-1000, 1001):
        if d in (0, 1) or squarefree_part(d) != d:
            continue
        mask = sum(1 << i for i, p in enumerate(quadratic_field(d).ramified_primes) if d % p == 0)
        assert cold_book(d).basis() == ([mask] if mask else []), d
        fields += 1
    assert fields == 1215


def test_a_sqrt_d_that_does_not_generate_the_seeded_ideal_raises(monkeypatch):
    # the seed is certified, not assumed: (sqrt(-5)) is the prime above 5,
    # and sqrt(-5) does not lie in the prime above 2
    monkeypatch.setattr(quadratic, "_subset_ideal", lambda k, mask: prime_above(k, 2))
    with pytest.raises(InconsistencyError):
        cold_book(-5)


def test_the_sqrt_d_seed_halves_the_descents_of_a_large_subfield(monkeypatch):
    # s = 13 and |P| = 2.  Without the genus kernel, every mask is left to
    # decide: with (sqrt(d)) in P from the start, every nonprincipal verdict
    # settles a coset of two masks, so 4,095 descents decide the 8,191
    # nontrivial masks; without it, the seed's mask, the greatest, is the
    # last descent of 8,191.  The genus kernel has order 4
    # and holds one nonprincipal coset of P: the seeded book descends once,
    # on it, and a book without the seed three times
    calls = _count_searches(monkeypatch)
    d = -304250263527210
    k = quadratic_field(d)
    assert k.s == 13
    counts = []
    for kernel in (every_mask, quadratic._genus_kernel):
        with monkeypatch.context() as patch:
            patch.setattr(quadratic, "_genus_kernel", kernel)
            assert len(subfield_class_representatives(cold_book(d))) == polya_order_quad(k) == 4096
        counts.append(len(calls))
        calls.clear()
        unseeded = open_book(k, seeded=False)
        unseeded.decide(kernel(k))
        assert len(subfield_class_representatives(unseeded)) == 4096
        counts.append(len(calls))
        calls.clear()
    assert counts == [4095, 8191, 1, 3]


def test_the_genus_sieve_leaves_one_search_in_a_large_subfield(monkeypatch):
    # of the 4,095 descents above, genus characters prove all but one
    # nonprincipal, so the book runs one form search where it ran 4,095
    searched = _count_searches(monkeypatch)
    assert ambiguous_oracle_quad(quadratic_field(-304250263527210)) == 4096
    assert len(searched) <= 1


def test_genus_sieve_agrees_with_the_search_on_every_mask(monkeypatch):
    # on every mask of every squarefree |d| <= 1000: the XOR of the vectors
    # of the primes' own forms is the character vector read off the mask's
    # form, a principal mask has the characters of +1 or -1 (by Euler's
    # criterion), the span of the eliminated kernel holds exactly the masks
    # with those characters, and the book's verdicts are those of a book
    # with no sieve
    masks = 0
    for d in range(-1000, 1001):
        if d in (0, 1) or squarefree_part(d) != d:
            continue
        k = quadratic_field(d)
        book = ambiguous_classes(k, Budget())
        with monkeypatch.context() as patch:
            patch.setattr(quadratic, "_genus_kernel", every_mask)
            plain = cold_book(d)
        vectors, allowed = genus_vectors(k)
        odd = [q for q in k.ramified_primes if q != 2]
        span = set(f2_span(quadratic._genus_kernel(k)))
        for mask in range(2 ** k.s):
            ideal = _subset_ideal(k, mask)
            chars = functools.reduce(xor, (v for i, v in enumerate(vectors) if mask >> i & 1), 0)
            assert chars == _form_characters(_ideal_form(k, ideal.a, ideal.b), odd), (d, mask)
            principal = principal_generator_quad(ideal) is not None
            assert chars in allowed or not principal, (d, mask)
            assert (mask in span) == (chars in allowed), (d, mask)
            masks += 1
        assert subfield_class_representatives(book) == subfield_class_representatives(plain), d
        assert [book.reduce(x) for x in range(2 ** k.s)] \
            == [plain.reduce(x) for x in range(2 ** k.s)], d
    assert masks == 7096


def test_subfield_books_match_the_set_based_reference():
    # every squarefree |d| <= 1000: the echelon book gives the class
    # representatives and the principal masks of PrincipalCosets, and
    # ambiguous_oracle_quad the number of those representatives
    fields = 0
    for d in range(-1000, 1001):
        if d in (0, 1) or squarefree_part(d) != d:
            continue
        k = quadratic_field(d)
        book = ambiguous_classes(k, Budget())
        reps, principal = reference_subfield_classes(k)
        assert subfield_class_representatives(book) == reps, d
        assert {m for m in range(2 ** k.s) if not book.reduce(m)} == principal, d
        assert book.order == len(principal), d
        # the oracle counts the classes as 2**s / |P|, listing none
        assert ambiguous_oracle_quad(k) == len(reps), d
        fields += 1
    assert fields == 1215


def test_coset_book_rejects_verdicts_that_break_the_group_law():
    # in Z/4: 2 nonprincipal and then 1 principal cannot both hold
    tested = []

    def test(v):
        tested.append(v)
        return {1: True, 2: False}[v]

    book = CosetBook(0, 4, test)
    assert not book.is_principal(2) and not book.is_principal(2)
    assert tested == [2]  # the second verdict is a lookup
    with pytest.raises(InconsistencyError):
        book.is_principal(1)


def test_coset_book_grows_by_a_known_principal_element_without_a_test():
    # in Z/4 + Z/2, packed 2t + w: (1, 1) known principal gives
    # P = <(1, 1)> = {0, 3, 4, 7}, of order 4; (0, 1) tested nonprincipal
    # then puts its coset {1, 2, 5, 6} in N, (1, 0) = 2 is a lookup, and
    # seeding (3, 0) = 6 must raise
    tested = []

    def test(v):
        tested.append(v)
        return False

    book = CosetBook(1, 4, test)
    book.add_principal(3)
    assert book.order == 4 and [x for x in range(8) if not book.reduce(x)] == [0, 3, 4, 7]
    assert book.is_principal(7) and not book.is_principal(1) and not book.is_principal(2)
    assert tested == [1]
    with pytest.raises(InconsistencyError):
        book.add_principal(6)


def test_coset_book_reduces_to_the_least_element_of_each_coset():
    # on Z/e + (Z/2)^m for e in (2, 4) and m <= 3, every subgroup generated
    # by one to three drawn elements: the reduced vector is the least
    # element of x + P against the subgroup closed under the group law, the
    # order is |P| and the representatives are the least element of each
    # coset in increasing order
    import random
    rng = random.Random(29)
    cases = 0
    for e, m in itertools.product((2, 4), range(4)):
        size, low = e << m, (1 << m) - 1

        def add(a, b):
            return (a ^ b) & low | ((a >> m) + (b >> m)) % e << m

        for _ in range(40):
            gens = [rng.randrange(size) for _ in range(rng.randint(1, 3))]
            group = {0}
            while True:
                grown = group | {add(x, g) for x in group for g in gens}
                if grown == group:
                    break
                group = grown
            book = CosetBook(m, e, None)
            for g in gens:
                book.add_principal(g)
            assert book.order == len(group), (e, m, gens)
            for x in range(size):
                assert book.reduce(x) == min(add(x, p) for p in group), (e, m, gens, x)
            assert list(book.representatives()) == sorted(
                {min(add(x, p) for p in group) for x in range(size)}), (e, m, gens)
            cases += 1
    assert cases == 320


@settings(max_examples=400, deadline=None)
@given(st.data(), st.sampled_from((2, 4)), st.integers(0, 8))
def test_deciding_one_vector_per_coset_matches_the_elementwise_walk(data, e, m):
    # a book on Z/e + (Z/2)^m with a hidden principal subgroup H inside the
    # span S of a drawn basis of vectors with top digit 0 or e/2, P seeded
    # inside H and some vectors of S decided beforehand: deciding S one
    # vector per coset makes the same tests, in the same order, as deciding
    # every element of S in increasing order, and ends with the same P and
    # the same nonprincipal cosets; with a principal vector of order 2
    # seeded outside S, both raise
    def draw_vector():
        w = data.draw(st.integers(0, (1 << m) - 1))
        return w | data.draw(st.integers(0, 1)) * e // 2 << m

    def draw_combination(vectors):
        return data.draw(st.sampled_from(f2_span(vectors)))

    basis = data.draw(st.lists(st.builds(draw_vector), max_size=m + 1))
    hidden = [draw_combination(basis) for _ in range(data.draw(st.integers(0, len(basis))))]
    principal = set(f2_span(hidden))
    seeds = [draw_combination(hidden) for _ in range(data.draw(st.integers(0, 2)))]
    span = set(f2_span(basis))
    outside = [w | t << m for t in (0, e // 2) for w in range(1 << m) if w | t << m not in span]
    stray = data.draw(st.sampled_from(outside)) if outside and data.draw(st.booleans()) else None
    early = [draw_combination(basis) for _ in range(data.draw(st.integers(0, 2)))]

    def make():
        tested = []

        def test(x):
            tested.append(x)
            return x in principal

        book = CosetBook(m, e, test)
        for x in seeds + ([stray] if stray is not None else []):
            book.add_principal(x)
        for x in early:
            book.is_principal(x)
        return book, tested

    (old, old_tested), (new, new_tested) = make(), make()
    if stray is not None:
        with pytest.raises(InconsistencyError):
            elementwise_decide(old, sorted(f2_span(basis)))
        with pytest.raises(InconsistencyError):
            new.decide(basis)
        return
    elementwise_decide(old, sorted(f2_span(basis)))
    new.decide(basis)
    assert new_tested == old_tested
    assert (new.top, new.rows, new.nonprincipal) == (old.top, old.rows, old.nonprincipal)
    assert new.order == len(principal)  # every coset of S is decided


def test_oracle_runs_on_a_large_discriminant():
    # |Delta| = 11,651,640: no discriminant cap stands before the class count
    k = quadratic_field(-2912910)
    assert ambiguous_oracle_quad(k) == polya_order_quad(k) == 64


def test_element_arithmetic_and_integrality():
    with pytest.raises(InvalidInputError):
        QuadElement.make(2, 1, 1, 2)  # (1+sqrt2)/2 is not integral
    e = QuadElement.make(5, 1, 1, 2)
    assert (e * e).den == 2 and (e * e) == QuadElement.make(5, 3, 1, 2)
    assert e.norm() == -1 and e.trace() == 1
    assert (e ** 6).norm() == 1


def test_fundamental_unit_half_integer_long_periods():
    # classical norm -1 units with den = 2 and longer periods
    assert unit_element(61) == QuadElement.make(61, 39, 5, 2)
    assert unit_element(109) == QuadElement.make(109, 261, 25, 2)
    assert unit_element(193) == QuadElement.make(193, 1764132, 126985, 1)
    assert quadratic_field(193).lam == -1


_SMALL_D = [d for d in range(-30, 31) if d not in (0, 1) and squarefree_part(d) == d]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(_SMALL_D),
       st.lists(st.tuples(st.integers(-40, 40), st.integers(-40, 40)), min_size=1, max_size=4))
def test_ideal_from_elements_matches_the_euclid_reference(d, coords):
    k = quadratic_field(d)
    if all(g == (0, 0) for g in coords):
        with pytest.raises(InvalidInputError):
            quad_ideal_from_elements(k, coords)
    else:
        assert quad_ideal_from_elements(k, coords) == quad_ideal_euclid(k, coords)


_OTHER_D = [-1, 2, 3, -5, 7]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(_SMALL_D), st.sampled_from(_OTHER_D),
       st.integers(-10**6, 10**6), st.integers(-10**6, 10**6))
def test_omega_norm_and_radical_coords_match_the_reference(d, d_other, u, v):
    # the two primitives on (u, v) against QuadElement arithmetic, and the
    # norm from K of a subfield integer is the square of its subfield norm
    q = QuadElement.from_omega(d, u, v)
    assert omega_norm(d, u, v) == q.norm()
    assert radical_coords(d, u, v) == (q.x, q.y, q.den)
    K = biquadratic_field(d, d_other if d_other != d else 11)
    i = K.d.index(d)
    assert K.norm(K.from_quad(i, (u, v))) == omega_norm(d, u, v) ** 2


def test_closed_form_products_match_the_multiplication_chain():
    # ramified_product writes [m, b + omega] down by CRT; the chain multiplies
    # one prime ideal at a time through Hermite forms
    pairs = 0
    for d in range(-1000, 1001):
        if d in (0, 1) or squarefree_part(d) != d:
            continue
        k = quadratic_field(d)
        for mask in range(2 ** k.s):
            assert _subset_ideal(k, mask) == subset_ideal_chain(k, mask), (d, mask)
            pairs += 1
    assert pairs == 7096
