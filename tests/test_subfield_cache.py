"""The per-process subfield cache: each quadratic field, its completed book
of ambiguous classes and its generator above 2 are computed once, the last
two kept on the interned field, and every field that reads them is charged
the units they cost, so no answer and no budget depends on what ran before
in the process."""

import pytest

from exact_reference import clear_subfield_caches
from polyabiquad import quadratic
from polyabiquad.biquadratic import biquadratic_field
from polyabiquad.cli import _scan_tasks, main
from polyabiquad.errors import Budget, BudgetExceededError
from polyabiquad.lattice import AmbiguousIdealOracle

# the five fields of the benchmark's many-prime workload (s_K >= 5)
MANYPRIME_PAIRS = ((-210, 143), (210, 143), (-2310, 13), (-1155, 26), (30, 77))
PAIRS = _scan_tasks(30, False, False) + list(MANYPRIME_PAIRS)


def oracle_pass(cold: bool) -> list:
    """Per field: the class representatives, kernel, cokernel and budget
    spent of a fresh oracle, with the caches cleared before each field when
    cold, so that each field then computes its subfield data itself."""
    rows = []
    for pair in PAIRS:
        if cold:
            clear_subfield_caches()
        orc = AmbiguousIdealOracle(biquadratic_field(*pair))
        rows.append((orc.K.d, orc.class_representatives(), orc.kernel_order_oracle(),
                     orc.cokernel_order_oracle(), orc.budget.spent))
    return rows


def test_every_field_gets_the_same_answers_and_budget_cold_and_warm(monkeypatch):
    # every field of bound 30 and the many-prime fields, each with cold
    # caches, then twice in one process: the second pass searches no
    # subfield, and all three give the same classes, kernel, cokernel and
    # budget spent, 3,594 units per pass
    searched, search = [], quadratic.principal_generator_quad
    monkeypatch.setattr(quadratic, "principal_generator_quad",
                        lambda ideal, budget=None:
                        searched.append(ideal) or search(ideal, budget))
    cold = oracle_pass(cold=True)
    assert searched
    clear_subfield_caches()
    passes = []
    for _ in range(2):
        searched.clear()
        passes.append(oracle_pass(cold=False))
    assert searched == []
    assert passes == [cold, cold]
    assert sum(row[-1] for row in cold) == 3594


def test_a_warm_cache_does_not_lift_a_budget(capsys):
    # Q(sqrt11, sqrt14) exceeds 20 units with cold caches, and still does
    # once a run under the default budget has filled them
    assert main(["biquad", "11", "14", "--verify", "--budget", "20"]) == 3
    assert main(["biquad", "11", "14", "--verify"]) == 0
    assert main(["biquad", "11", "14", "--verify", "--budget", "20"]) == 3
    assert "budget" in capsys.readouterr().err


def test_a_budgeted_scan_does_not_depend_on_its_workers(capsys):
    # each worker has its own caches and its own share of the fields, yet
    # the rows, budget_exceeded ones included, are byte-identical
    runs = []
    for jobs in ("1", "2", "2"):
        if len(runs) == 2:
            clear_subfield_caches()  # workers forked from an empty table
        code = main(["scan", "--bound", "20", "--verify", "--json", "--budget", "10",
                     "--jobs", jobs])
        runs.append((code, capsys.readouterr().out))
    assert runs[0][0] == 3 and '"budget_exceeded"' in runs[0][1]
    assert runs[1] == runs[0] and runs[2] == runs[0]


def searched_above_2() -> set:
    """The d of each interned field that keeps its generator above 2."""
    return {d for d, k in quadratic._FIELDS.items() if "gamma" in k.searched}


def test_a_search_cut_short_caches_nothing():
    # Q(sqrt11, sqrt14) spends 31 units: 14 on its three books, then 3, 4
    # and 10 on the generators above 2 of Q(sqrt11), Q(sqrt14) and
    # Q(sqrt154).  Under 20 units the search in Q(sqrt14) is cut short at
    # the field's own 21st unit and stored nowhere, and a field with budget
    # to spare then makes it and is charged in full
    with pytest.raises(BudgetExceededError, match=r"\(21 > 20 units\)"):
        AmbiguousIdealOracle(biquadratic_field(11, 14), 20).polya_order_oracle()
    assert searched_above_2() == {11}
    orc = AmbiguousIdealOracle(biquadratic_field(11, 14))
    orc.polya_order_oracle()
    assert orc.budget.spent == 31 and searched_above_2() == {11, 14, 154}


def test_a_cold_search_charges_no_budget_of_its_own(monkeypatch):
    # a subfield search that misses the cache charges the asking budget
    # directly, so the units of every Budget made during a cold run of
    # Q(sqrt11, sqrt14) add up to the 31 of the field, not to twice that
    budgets, init = [], Budget.__init__

    def recording(budget, *args, **kwargs):
        init(budget, *args, **kwargs)
        budgets.append(budget)

    monkeypatch.setattr(Budget, "__init__", recording)
    orc = AmbiguousIdealOracle(biquadratic_field(11, 14))
    orc.polya_order_oracle()
    assert sum(b.spent for b in budgets) == orc.budget.spent == 31


def test_the_formula_route_reads_no_cached_book(capsys):
    # the routes share the interned fields, and so each subfield's
    # fundamental unit, but a scan without --verify builds no book and
    # searches for no generator above 2
    assert main(["scan", "--bound", "30", "--json"]) == 0
    assert quadratic._FIELDS and not any(k.searched for k in quadratic._FIELDS.values())


def test_each_cached_attribute_is_computed_once_and_stored_under_its_name(monkeypatch):
    # every lazily computed attribute of a field, a subfield and an oracle
    # is computed on its first read, once, and stored in the instance
    # __dict__ under its own name, where later reads find it; the first read
    # of any basis table still writes and installs all four through
    # BiquadField.__getattr__, once
    from collections import Counter
    from polyabiquad.biquadratic import _BASIS_TABLES, BiquadField
    from polyabiquad.lazy import cached_attribute
    from polyabiquad.quadratic import QuadraticField
    computed = Counter()
    names = {}
    for cls in (BiquadField, QuadraticField, AmbiguousIdealOracle):
        names[cls] = [name for name, attr in vars(cls).items()
                      if isinstance(attr, cached_attribute)]
        for name in names[cls]:
            attr = vars(cls)[name]
            assert attr.name == name and getattr(cls, name) is attr

            def counting(obj, func=attr.func, name=name):
                computed[id(obj), name] += 1
                return func(obj)

            monkeypatch.setattr(attr, "func", counting)
    assert sum(map(len, names.values())) == 17
    written, integral_basis = [], BiquadField._integral_basis
    monkeypatch.setattr(BiquadField, "_integral_basis",
                        lambda K: written.append(K.d) or integral_basis(K))
    clear_subfield_caches()
    K = biquadratic_field(210, 143)  # every subfield real, so every attribute has a value
    assert not any(name in vars(K) for name in _BASIS_TABLES)
    assert K.omega_rows is vars(K)["omega_rows"]
    assert all(name in vars(K) for name in _BASIS_TABLES) and written == [K.d]
    orc = AmbiguousIdealOracle(K)
    orc.kernel_order_oracle()
    objects = [(K, BiquadField), (orc, AmbiguousIdealOracle)]
    objects += [(k, QuadraticField) for k in K.subfields]
    for obj, cls in objects:
        for name in names[cls]:
            value = getattr(obj, name)
            assert vars(obj)[name] is value is getattr(obj, name), (obj, name)
            assert computed[id(obj), name] == 1, (obj, name)
    assert written == [K.d]
