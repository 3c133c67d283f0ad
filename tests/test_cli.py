import ast
import json
import os

import pytest

from exact_reference import parse_records, reference_parse
from polyabiquad import cli
from polyabiquad.cli import main, parse_args
from polyabiquad.errors import InvalidInputError
from polyabiquad.intmath import squarefree_part
from polyabiquad.report import OutputRecord, QuadRecord, render_records


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_quad_verify_ok(capsys):
    code, out, _ = run(capsys, "quad", "-5", "--verify")
    assert code == 0
    rec = parse_records(out, "text", QuadRecord)[0]
    assert (rec.s, rec.nu, rec.po, rec.verify_status) == (2, 0, 2, "ok")


def test_quad_real_field_unit(capsys):
    code, out, _ = run(capsys, "quad", "3", "--json")
    assert code == 0
    data = json.loads(out)
    assert (data["s"], data["nu"], data["po"]) == (2, 1, 1)
    assert (data["eps_x"], data["eps_y"], data["eps_den"]) == (2, 1, 1)


def test_quad_prints_units_past_the_int_string_limit(capsys):
    # the unit of Q(sqrt(999999937)) has 13,329 digits, past CPython's
    # default limit of 4,300 on int -> str: every format prints it exactly
    # and leaves the limit as it was
    import sys
    from polyabiquad.quadratic import quadratic_field, radical_coords
    k = quadratic_field(999999937)
    unit = radical_coords(k.d, *k.fundamental_unit)
    limit = sys.get_int_max_str_digits()
    for fmt in ("text", "json", "csv"):
        code, out, _ = run(capsys, "quad", "999999937", f"--{fmt}")
        assert code == 0 and sys.get_int_max_str_digits() == limit, fmt
        sys.set_int_max_str_digits(0)
        try:
            rec = parse_records(out, fmt, QuadRecord)[0]
            assert len(str(rec.eps_x)) == 13329, fmt
        finally:
            sys.set_int_max_str_digits(limit)
        assert (rec.eps_x, rec.eps_y, rec.eps_den) == unit, fmt


def test_units_past_the_former_period_cap(capsys):
    # the continued fraction of 4 * 10000000019 has a period of 124,134
    # digits, past the 100,000 the expansion once stopped at with exit 4;
    # the unit has about 64,000 digits and is found once for both rows
    import sys
    code, out, _ = run(capsys, "quad", "10000000019", "--json")
    assert code == 0
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        row = json.loads(out)
    finally:
        sys.set_int_max_str_digits(limit)
    x, y, den = row["eps_x"], row["eps_y"], row["eps_den"]
    norm = x * x - row["d"] * y * y
    assert abs(norm) == den * den and row["lam"] == norm // (den * den)
    code, out, _ = run(capsys, "biquad", "-10000000019", "-1", "--json")
    assert code == 0
    data = json.loads(out)
    lams = {data[f"d{i}"]: data[f"lambda{i}"] for i in (1, 2, 3)}
    assert lams[10000000019] == row["lam"]


def test_quad_square_input_is_exit_1(capsys):
    code, _, err = run(capsys, "quad", "4")
    assert code == 1 and "error" in err


def test_biquad_verify_named_field(capsys):
    code, out, _ = run(capsys, "biquad", "-1", "2", "--verify", "--json")
    assert code == 0
    data = json.loads(out)
    assert (data["po_k"], data["q_k"], data["verify_status"]) == (1, 2, "ok")


@pytest.mark.parametrize("d1, d2, s_k, po_k, ker", [
    ("-9699690", "765049", 12, 512, 2048),
    ("9699690", "-765049", 12, 1024, 4096),
    ("-9699690", "31367009", 13, 1024, 4096),
])
def test_biquad_verify_wide_fields(capsys, d1, d2, s_k, po_k, ker):
    # s_K >= 12: about 4^(s_K) class triples, so the oracle's kernel must
    # come from subgroup orders, not from walking the triples
    code, out, _ = run(capsys, "biquad", d1, d2, "--verify", "--json")
    assert code == 0
    data = json.loads(out)
    assert (data["s_k"], data["po_k"], data["ker"], data["verify_status"]) == (
        s_k, po_k, ker, "ok")


def test_biquad_verify_real_signatures_missing_from_bound_60(capsys):
    # the six coarse signatures of a real K (sorted lambda_i, q_K, |mu_K|,
    # nu_K, i_2, e_2, j_2) that no field with |d_i| <= 60 has, each on the
    # pair with the least max |d_i| among the 50,000 fields of
    # tests/sweep.py --seed 4: every row is verified ok
    signatures = []
    for d1, d2 in ((13, 493), (13, 145), (17, 165), (1393, 1221), (78, 119), (385, 213)):
        code, out, _ = run(capsys, "biquad", str(d1), str(d2), "--verify", "--json")
        data = json.loads(out)
        assert (code, data["verify_status"]) == (0, "ok"), (d1, d2)
        signatures.append((tuple(sorted(data[f"lambda{i}"] for i in (1, 2, 3))),
                           *(data[key] for key in ("q_k", "mu_order", "nu_k", "i2", "e2", "j2"))))
    assert signatures == [((-1, -1, -1), 1, 2, 0, 0, 1, 0),
                          ((-1, -1, 1), 1, 2, 1, 0, 1, 0),
                          ((-1, 1, 1), 1, 2, 2, 0, 1, 0),
                          ((1, 1, 1), 1, 2, 3, 0, 1, 0),
                          ((1, 1, 1), 1, 2, 3, 1, 4, 1),
                          ((1, 1, 1), 2, 2, 3, 0, 1, 0)]


def test_biquad_chain_flag(capsys):
    code, out, _ = run(capsys, "biquad", "2", "3", "--chain")
    assert code == 0
    assert "chain:" in out and "2^s_K" in out
    rec = parse_records(out.split("chain:")[0], "text", OutputRecord)[0]
    assert rec.h3_h2 * rec.h2_h1 * rec.h1_h0 == 2 ** rec.s_k == 4


def test_biquad_degenerate_exit_1(capsys):
    code, _, err = run(capsys, "biquad", "2", "2")
    assert code == 1 and "error" in err


def test_biquad_budget_exit_3(capsys):
    code, _, err = run(capsys, "biquad", "11", "14", "--verify", "--budget", "20")
    assert code == 3 and "budget" in err


def test_biquad_argument_order_irrelevant(capsys):
    _, out1, _ = run(capsys, "biquad", "-1", "2", "--json")
    _, out2, _ = run(capsys, "biquad", "2", "-1", "--json")
    _, out3, _ = run(capsys, "biquad", "-2", "2", "--json")
    assert out1 == out2 == out3


def test_scan_bound_3_row_count(capsys):
    # distinct sorted triples from {-1, +-2, +-3}: exactly 6 fields
    code, out, _ = run(capsys, "scan", "--bound", "3")
    assert code == 0
    assert len(parse_records(out, "text", OutputRecord)) == 6


def test_scan_imag_only_dedup(capsys):
    code, out, _ = run(capsys, "scan", "--bound", "5", "--imag-only", "--json")
    assert code == 0
    recs = parse_records(out, "json", OutputRecord)
    triples = [(r.d1, r.d2, r.d3) for r in recs]
    assert len(set(triples)) == len(triples)
    assert all(min(t) < 0 for t in triples)
    assert all(sorted(t) == list(t) for t in triples)


def test_scan_real_only(capsys):
    code, out, _ = run(capsys, "scan", "--bound", "5", "--real-only", "--csv")
    assert code == 0
    recs = parse_records(out, "csv", OutputRecord)
    assert recs and all(r.d1 > 0 for r in recs)


def test_scan_verify_small(capsys):
    code, out, _ = run(capsys, "scan", "--bound", "5", "--verify")
    assert code == 0
    recs = parse_records(out, "text", OutputRecord)
    assert all(r.verify_status == "ok" for r in recs)


def test_scan_out_file(tmp_path, capsys):
    target = tmp_path / "rows.csv"
    code, out, _ = run(capsys, "scan", "--bound", "3", "--csv", "--out", str(target))
    assert code == 0 and out == ""
    recs = parse_records(target.read_text(), "csv", OutputRecord)
    assert len(recs) == 6


def test_scan_unwritable_out_is_exit_1(capsys, monkeypatch):
    # FILE is opened before the first field, so an unwritable one computes none
    calls = []
    worker = cli._scan_worker

    def recording(task):
        calls.append(task)
        return worker(task)

    monkeypatch.setattr(cli, "_scan_worker", recording)
    code, out, err = run(capsys, "scan", "--bound", "5", "--csv", "--out",
                         "/nonexistent-dir/rows.txt")
    assert code == 1 and out == "" and calls == []
    assert err.startswith("error: ") and "/nonexistent-dir/rows.txt" in err


def test_scan_bad_bound(capsys):
    code, _, _ = run(capsys, "scan", "--bound", "1")
    assert code == 1


def test_scan_conflicting_filters(capsys):
    code, _, _ = run(capsys, "scan", "--bound", "4", "--real-only", "--imag-only")
    assert code == 1


def test_format_flags_conflict(capsys):
    code, _, _ = run(capsys, "scan", "--bound", "3", "--json", "--csv")
    assert code == 1


def test_flags_are_checked_before_any_field_is_built(capsys, monkeypatch):
    import polyabiquad.cli as cli_mod

    def unreachable(*args):
        raise AssertionError("a field was built before the flags were read")

    monkeypatch.setattr(cli_mod, "biquadratic_field", unreachable)
    monkeypatch.setattr(cli_mod, "quadratic_field", unreachable)
    formats = "error: choose at most one output format\n"
    budget = "error: --budget must be positive\n"
    for argv, message in (
            (("biquad", "-6469693230", "5037203051", "--verify", "--json", "--csv"), formats),
            (("biquad", "2", "3", "--csv", "--text"), formats),
            (("quad", "-5", "--verify", "--json", "--text"), formats),
            (("biquad", "-6469693230", "5037203051", "--verify", "--budget", "0"), budget),
            (("quad", "-5", "--verify", "--budget", "-1"), budget)):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (1, "", message), argv


def test_budget_env_var(capsys, monkeypatch):
    monkeypatch.setenv("POLYA_ORACLE_BUDGET", "15")
    code, _, err = run(capsys, "biquad", "11", "14", "--verify")
    assert code == 3 and "budget" in err
    monkeypatch.setenv("POLYA_ORACLE_BUDGET", "100000000")
    code, _, _ = run(capsys, "biquad", "11", "14", "--verify")
    assert code == 0


def test_library_calls_ignore_the_budget_env_var(monkeypatch):
    # only the command line reads POLYA_ORACLE_BUDGET: with it at 3 units,
    # or not an integer, a library call with no budget has no limit
    from polyabiquad import AmbiguousIdealOracle, Budget, biquadratic_field, polya_report
    from polyabiquad import quadratic_field, verify_biquad, verify_quad
    for raw in ("3", "abc"):
        monkeypatch.setenv("POLYA_ORACLE_BUDGET", raw)
        K = biquadratic_field(11, 14)
        assert verify_biquad(K, polya_report(K))[0] == "ok"
        orc = AmbiguousIdealOracle(biquadratic_field(11, 14))
        assert orc.polya_order_oracle() == polya_report(K).po_k and orc.budget.spent > 3
        assert verify_quad(quadratic_field(-304250263527210))[0] == "ok"
        assert Budget().limit > 1 << 62


def test_scan_reads_the_budget_only_under_verify(capsys, monkeypatch):
    # like biquad and quad, scan reads --budget and POLYA_ORACLE_BUDGET only
    # when it runs the oracle
    _, plain, _ = run(capsys, "scan", "--bound", "3", "--json")
    assert plain
    code, out, _ = run(capsys, "scan", "--bound", "3", "--json", "--budget", "0")
    assert (code, out) == (0, plain)
    code, _, err = run(capsys, "scan", "--bound", "3", "--json", "--budget", "0", "--verify")
    assert code == 1 and "--budget" in err
    monkeypatch.setenv("POLYA_ORACLE_BUDGET", "abc")
    code, out, _ = run(capsys, "scan", "--bound", "3", "--json")
    assert (code, out) == (0, plain)
    code, _, err = run(capsys, "scan", "--bound", "3", "--json", "--verify")
    assert code == 1 and "POLYA_ORACLE_BUDGET" in err


def test_round_trip_all_formats(capsys):
    _, out, _ = run(capsys, "scan", "--bound", "4", "--verify")
    records = parse_records(out, "text", OutputRecord)
    for fmt in ("text", "json", "csv"):
        assert parse_records(render_records(records, fmt), fmt, OutputRecord) == records


def test_csv_json_field_sets_identical(capsys):
    _, out_json, _ = run(capsys, "scan", "--bound", "3", "--json")
    _, out_csv, _ = run(capsys, "scan", "--bound", "3", "--csv")
    json_keys = list(json.loads(out_json.splitlines()[0]).keys())
    csv_keys = out_csv.splitlines()[0].split(",")
    assert json_keys == csv_keys


def test_csv_needs_no_quoting(capsys):
    _, out, _ = run(capsys, "scan", "--bound", "4", "--csv")
    assert '"' not in out and all(
        cell == cell.strip() for line in out.splitlines() for cell in line.split(","))


def test_scan_jobs_deterministic(capsys):
    _, out1, _ = run(capsys, "scan", "--bound", "4", "--json")
    _, out2, _ = run(capsys, "scan", "--bound", "4", "--json", "--jobs", "2")
    assert out1 == out2


def test_biquad_mismatch_exit_2(capsys, monkeypatch):
    import polyabiquad.cli as cli_mod
    monkeypatch.setattr(cli_mod, "verify_biquad",
                        lambda K, rep, oracle=None: ("mismatch", {}))
    code, out, _ = run(capsys, "biquad", "2", "3", "--verify")
    assert code == 2
    rec = parse_records(out, "text", OutputRecord)[0]
    assert rec.verify_status == "mismatch"


def test_scan_mismatch_exit_2(capsys, monkeypatch):
    import polyabiquad.cli as cli_mod
    monkeypatch.setattr(cli_mod, "verify_biquad",
                        lambda K, rep, oracle=None: ("mismatch", {}))
    code, _, _ = run(capsys, "scan", "--bound", "3", "--verify")
    assert code == 2


def test_scan_budget_exceeded_rows_exit_3(capsys):
    # the largest spend on a field of bound 3 is 11 units, on Q(sqrt(2), sqrt(3))
    code, out, err = run(capsys, "scan", "--bound", "3", "--verify",
                         "--budget", "10")
    assert code == 3 and err == ""
    recs = parse_records(out, "text", OutputRecord)
    assert len(recs) == 6
    assert {(r.d1, r.d2, r.d3): r.verify_status for r in recs if r.verify_status != "ok"} == {
        (2, 3, 6): "budget_exceeded"}


def test_mismatch_numbers_go_to_stderr(capsys, monkeypatch):
    import polyabiquad.cli as cli_mod
    details = {"po_oracle": 2, "ker_oracle": 1, "po_formula": 1, "ker_formula": 2}
    _, out_ok, err_ok = run(capsys, "scan", "--bound", "3", "--verify", "--json")
    monkeypatch.setattr(cli_mod, "verify_biquad",
                        lambda K, rep, oracle=None: ("mismatch", details))
    code, out, err = run(capsys, "scan", "--bound", "3", "--verify", "--json")
    assert code == 2 and err_ok == ""
    assert out == out_ok.replace('"ok"', '"mismatch"')
    lines = err.splitlines()
    assert len(lines) == len(out.splitlines()) == 6
    assert all("po_oracle=2 ker_oracle=1 po_formula=1 ker_formula=2" in ln
               for ln in lines)
    code, _, err = run(capsys, "biquad", "2", "3", "--verify", "--json")
    assert code == 2
    assert err == "mismatch for (2, 3, 6): po_oracle=2 ker_oracle=1 po_formula=1 ker_formula=2\n"


def test_cokernel_mismatch_exit_2(capsys, monkeypatch):
    from polyabiquad.lattice import AmbiguousIdealOracle
    monkeypatch.setattr(AmbiguousIdealOracle, "cokernel_order_oracle", lambda self: 2)
    code, out, err = run(capsys, "biquad", "2", "3", "--verify", "--json")
    assert code == 2 and json.loads(out)["verify_status"] == "mismatch"
    assert "coker_oracle=2" in err and "coker_formula=1" in err


def test_internal_inconsistency_is_exit_4(capsys, monkeypatch):
    # an InconsistencyError is a failed internal check, not invalid input:
    # biquad and scan print no row, one error line and exit 4
    import polyabiquad.cli as cli_mod
    from polyabiquad.errors import InconsistencyError

    def inconsistent(K):
        raise InconsistencyError(f"planted for {K.d}")

    monkeypatch.setattr(cli_mod, "polya_report", inconsistent)
    for argv in (("biquad", "2", "3", "--json"), ("scan", "--bound", "3", "--json")):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (4, ""), argv
        assert err.startswith("error: ") and err.count("\n") == 1 and "planted" in err, argv


def test_a_verified_row_is_checked_once(capsys, monkeypatch):
    # setting the verify status checks the status, not the identities
    # polya_report already checked: one constructor call per verified row
    calls = []
    check = OutputRecord.__new__

    def counting(cls, *args, **kwargs):
        rec = check(cls, *args, **kwargs)
        calls.append(rec.d3)
        return rec

    monkeypatch.setattr(OutputRecord, "__new__", counting)
    code, out, _ = run(capsys, "scan", "--bound", "5", "--verify", "--json")
    assert code == 0 and len(calls) == len(out.splitlines()) > 0
    rec = parse_records(out, "json", OutputRecord)[0]
    assert rec.with_status("budget_exceeded") == \
        OutputRecord(**{**rec._asdict(), "verify_status": "budget_exceeded"})
    with pytest.raises(InvalidInputError, match="unknown verify status"):
        rec.with_status("fine")


def test_scan_jobs_below_one_is_exit_1(capsys):
    code, out, err = run(capsys, "scan", "--bound", "3", "--jobs", "0")
    assert code == 1 and out == "" and "--jobs" in err


def test_biquad_verifies_a_field_with_nine_ramified_primes(capsys):
    code, out, _ = run(capsys, "biquad", "7429", "30030", "--verify", "--json")
    data = json.loads(out)
    assert code == 0 and data["s_k"] == 9
    assert (data["verify_status"], data["po_k"], data["ker"]) == ("ok", 16, 256)


def test_quad_mismatch_exit_2(capsys, monkeypatch):
    # like biquad, quad prints the oracle's number beside the formula's
    import polyabiquad.cli as cli_mod
    monkeypatch.setattr(cli_mod, "verify_quad",
                        lambda k, budget=None: ("mismatch", {"po_formula": 2, "po_oracle": 1}))
    code, out, err = run(capsys, "quad", "-5", "--verify")
    assert code == 2 and out
    assert err == "mismatch for -5: po_formula=2 po_oracle=1\n"


def test_quad_budget_exit_3(capsys):
    # the oracle of Q(sqrt(34)) spends 2 units; out of budget, quad prints
    # no row, one error line, and exits 3 as biquad does
    code, out, err = run(capsys, "quad", "34", "--verify", "--budget", "1", "--json")
    assert (code, out) == (3, "")
    assert err == "error: work budget exhausted (2 > 1 units)\n"


@pytest.mark.parametrize("d", [51, 123, 187, 287])
def test_biquad_verify_q_sqrt2_j2_family(capsys, d):
    # the prime above 2 is nonprincipal, but its class is extended from a
    # subfield, so j2 = 0 and |Po(K)| = 2
    code, out, _ = run(capsys, "biquad", "2", str(d), "--verify", "--json")
    assert code == 0
    assert json.loads(out)["po_k"] == 2


def test_formula_scan_builds_no_ideal(capsys, monkeypatch):
    # the formula route solves j2 from the unit group: with the radicals and
    # the principality descent made to raise, scan --bound 30 keeps its digest
    import hashlib
    import polyabiquad.lattice as lattice

    def refuse(*args, **kwargs):
        raise AssertionError("the formula route built an ideal")

    monkeypatch.setattr(lattice, "principal_ideal_generator", refuse)
    monkeypatch.setattr(lattice, "prime_radical", refuse)
    code, out, _ = run(capsys, "scan", "--bound", "30", "--json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "55b7e9e0638e2c99a6811cbbd2d9aa718abf9381498bf2521615b9872f719870"


def test_formula_route_takes_no_square_root_in_k(capsys, monkeypatch):
    # the unit index, mu_K and the roots of the square classes come from
    # tests on rational integers and closed forms: with the denesting square
    # root made to raise, scan --bound 30 keeps its digest, and biquad keeps
    # its row on Q(i, sqrt2) (mu_K = 8), Q(i, sqrt3) (mu_K = 12), Q(sqrt2,
    # sqrt5) (every lambda_i = -1) and the many-prime fields
    import hashlib
    import polyabiquad.units as units

    pairs = (("-1", "2"), ("-1", "3"), ("2", "5"), ("-210", "143"), ("210", "143"),
             ("-2310", "13"), ("-1155", "26"), ("30", "77"))
    rows = [run(capsys, "biquad", d1, d2, "--json") for d1, d2 in pairs]

    def refuse(*args, **kwargs):
        raise AssertionError("the formula route took a square root in K")

    monkeypatch.setattr(units, "integral_square_root", refuse)
    code, out, _ = run(capsys, "scan", "--bound", "30", "--json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "55b7e9e0638e2c99a6811cbbd2d9aa718abf9381498bf2521615b9872f719870"
    assert [run(capsys, "biquad", d1, d2, "--json") for d1, d2 in pairs] == rows
    assert all(row[0] == 0 for row in rows)
    assert [json.loads(row[1])["mu_order"] for row in rows[:3]] == [8, 12, 2]


def test_formula_route_builds_no_table_it_does_not_read(capsys, monkeypatch):
    # the integral basis is written on its first read, and the formula route
    # forms elements of K only for a square class its rational tests find,
    # each one raising q_K; |H^1| is read off closed forms in real and
    # imaginary K alike: with the basis made to raise, biquad keeps its row on
    # exactly the bound-30 fields with q_K = 1, and every other field exits 4
    # on the first read
    from polyabiquad.biquadratic import BiquadField
    from polyabiquad.errors import InconsistencyError

    pairs = [tuple(map(str, p)) for p in cli._scan_tasks(30, False, False)]
    rows = [run(capsys, "biquad", d1, d2, "--json") for d1, d2 in pairs]

    def refuse(self):
        raise InconsistencyError("the formula route read the integral basis")

    monkeypatch.setattr(BiquadField, "_integral_basis", refuse)
    kept = 0
    for (d1, d2), row in zip(pairs, rows):
        rec = json.loads(row[1])
        reads = rec["q_k"] > 1
        code, out, err = run(capsys, "biquad", d1, d2, "--json")
        if reads:
            assert (code, out) == (4, ""), (d1, d2)
            assert "read the integral basis" in err
        else:
            assert (code, out, err) == row, (d1, d2)
            kept += 1
    assert len(pairs) == 534 and kept == 350


def test_json_template_prints_what_json_dumps_printed(capsys):
    # the %-template of each record class against the json.dumps renderer it
    # replaced, under each of the four statuses: on the 534 rows of bound 30,
    # and on the quad rows of the 1,215 squarefree 2 <= |d| <= 1000 and of
    # Q(sqrt(999999937)), whose unit has 13,329 digits
    import sys
    from exact_reference import render_json_by_dumps
    from polyabiquad.quadratic import polya_order_quad, quadratic_field
    from polyabiquad.report import VERIFY_STATUSES, quad_record

    code, out, _ = run(capsys, "scan", "--bound", "30", "--json")
    assert code == 0
    records = parse_records(out, "json", OutputRecord)
    assert len(records) == 534
    fields = [quadratic_field(d) for d in [*range(-1000, 1001), 999999937]
              if d not in (0, 1) and squarefree_part(d) == d]
    quads = [quad_record(k, polya_order_quad(k)) for k in fields]
    assert len(quads) == 1216
    limit = sys.get_int_max_str_digits()
    for status in VERIFY_STATUSES:
        for rows in ([r.with_status(status) for r in records],
                     [QuadRecord(**{**r._asdict(), "verify_status": status})
                      for r in quads]):
            text = render_records(rows, "json")
            assert sys.get_int_max_str_digits() == limit
            sys.set_int_max_str_digits(0)
            try:
                # as lists of lines, which pytest compares without a full text diff
                assert text.split("\n") == render_json_by_dumps(rows).split("\n"), status
            finally:
                sys.set_int_max_str_digits(limit)
    assert 10 ** 13328 <= quads[-1].eps_x < 10 ** 13329


def test_the_json_template_takes_only_int_columns():
    # %d would truncate a float and print a bool as 0 or 1, so each record
    # refuses any column but verify_status that is not exactly an int, and
    # a status outside VERIFY_STATUSES
    from polyabiquad.biquadratic import biquadratic_field
    from polyabiquad.errors import InconsistencyError
    from polyabiquad.polya import polya_report
    from polyabiquad.quadratic import quadratic_field
    from polyabiquad.report import _json_template, quad_record

    assert _json_template(QuadRecord).startswith('{"d": %d, "delta": %d, ')
    for rec in (polya_report(biquadratic_field(2, 3)), quad_record(quadratic_field(13), 1)):
        cls, row = type(rec), rec._asdict()
        assert cls(**row) == rec
        for col in cls._fields[:-1]:
            for bad in (str(row[col]), float(row[col]), bool(row[col])):
                with pytest.raises(InconsistencyError, match="cannot print"):
                    cls(**{**row, col: bad})
        for status in ("fine", "", None):
            with pytest.raises(InvalidInputError, match="unknown verify status"):
                cls(**{**row, "verify_status": status})


def test_real_unit_cohomology_takes_no_arithmetic_in_k(monkeypatch):
    # a real field's characters are read off the radical indices its unit
    # search kept: once the units are built, with products and conjugations
    # in K and the rational square test made to raise, |H^1(G, O_K^x)| is
    # unchanged on every real field of bound 30 with i2 = 1 and on
    # Q(sqrt210, sqrt143)
    from polyabiquad import units
    from polyabiquad.biquadratic import BiquadField, biquadratic_field
    from polyabiquad.cli import _scan_tasks
    from polyabiquad.units import unit_cohomology_order

    fields = [K for K in (biquadratic_field(*p) for p in _scan_tasks(30, True, False))
              if K.profile.i2 == 1]
    assert len(fields) == 42
    fields.append(biquadratic_field(210, 143))
    orders = [unit_cohomology_order(K) for K in fields]

    def refuse(*args, **kwargs):
        raise AssertionError("the real unit cohomology did arithmetic in K")

    monkeypatch.setattr(BiquadField, "mul_basis_coords", refuse)
    monkeypatch.setattr(BiquadField, "sigma", refuse)
    monkeypatch.setattr(units, "_square_witness", refuse)
    assert [unit_cohomology_order(K) for K in fields] == orders


def test_verified_scan_builds_no_lattice(capsys, monkeypatch):
    # the oracle tests membership in rad(p) by xi^e_p in p*O_K and seeds its
    # principal subgroup from the subfield books: with the radicals, the
    # Hermite form and lattice products made to raise, scan --bound 20
    # --verify keeps its digest
    import hashlib
    import polyabiquad.lattice as lattice

    def refuse(*args, **kwargs):
        raise AssertionError("the verifying oracle built a lattice")

    monkeypatch.setattr(lattice, "prime_radical", refuse)
    monkeypatch.setattr(lattice, "hnf_rows", refuse)
    monkeypatch.setattr(lattice.IdealLattice, "multiply", refuse)
    code, out, _ = run(capsys, "scan", "--bound", "20", "--verify", "--json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "81bd07659265f564f868f48358756fb7c6dc9cdcde0a2e73c46aa3fa4182f6e1"


def test_twist_table_is_built_only_by_descents(capsys, monkeypatch):
    # the formula route never builds BiquadField.unit_twists or the residue
    # maps of its sieve; a verified scan reads the oracle's characters off
    # the subfields' tables and builds the maps only for the descents, once
    # per field that descends, and the twist coordinates, once, only on the
    # fields where some candidate survives the sieve and reaches a square
    # root
    import hashlib
    from collections import Counter
    from polyabiquad import lattice
    from polyabiquad.biquadratic import BiquadField
    from polyabiquad.lazy import cached_attribute

    built = {name: Counter() for name in ("unit_twists", "residue_maps")}
    for name, counter in built.items():
        def counting(K, table=getattr(BiquadField, name).func, counter=counter):
            counter[K.d] += 1
            return table(K)

        prop = cached_attribute(counting)
        prop.__set_name__(BiquadField, name)
        monkeypatch.setattr(BiquadField, name, prop)
    rooted, descended = set(), set()

    def square_root(K, eta, root=lattice.integral_square_root):
        rooted.add(K.d)
        return root(K, eta)

    def descend(K, *args, generator=lattice.principal_ideal_generator):
        descended.add(K.d)
        return generator(K, *args)

    monkeypatch.setattr(lattice, "integral_square_root", square_root)
    monkeypatch.setattr(lattice, "principal_ideal_generator", descend)
    for d1, d2 in (("2", "3"), ("-1", "3"), ("-1", "2"), ("11", "14"), ("-210", "143"),
                   ("-9699690", "31367009")):
        code, _, _ = run(capsys, "biquad", d1, d2, "--json")
        assert code == 0
    assert not any(built.values()) and not rooted
    code, out, _ = run(capsys, "scan", "--bound", "20", "--verify", "--json")
    assert code == 0
    assert all(counter and max(counter.values()) == 1 for counter in built.values())
    assert set(built["unit_twists"]) == rooted <= descended == set(built["residue_maps"])
    assert len(out.splitlines()) == 236 > len(descended)
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "81bd07659265f564f868f48358756fb7c6dc9cdcde0a2e73c46aa3fa4182f6e1"


def _src_nodes():
    """(location, node) for every ast node of every module of the package."""
    import polyabiquad
    pkg = os.path.dirname(os.path.abspath(polyabiquad.__file__))
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name)) as fh:
                tree = ast.parse(fh.read(), name)
            for node in ast.walk(tree):
                if hasattr(node, "lineno"):
                    yield f"polyabiquad/{name}:{node.lineno}", node


def test_src_has_no_bare_assert():
    # python -O strips assert, so a check in the program must raise instead
    found = [where for where, node in _src_nodes() if isinstance(node, ast.Assert)]
    assert not found, found


def test_src_imports_no_fractions():
    # elements and ideals are integer coordinates, so no rational type belongs
    # in the program, and the records need no dataclasses, whose import pulls
    # in inspect and ast
    banned = ("fractions", "dataclasses")
    found = [where for where, node in _src_nodes()
             if isinstance(node, ast.Import) and any(
                 a.name.split(".")[0] in banned for a in node.names)
             or isinstance(node, ast.ImportFrom) and node.level == 0
             and node.module.split(".")[0] in banned]
    assert not found, found


def _package_env() -> dict:
    """The environment with this checkout's src/ first on PYTHONPATH."""
    import polyabiquad
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(polyabiquad.__file__)))
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


def test_module_entry_point():
    import subprocess, sys
    env = _package_env()
    proc = subprocess.run([sys.executable, "-m", "polyabiquad", "quad", "2"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0 and "po" in proc.stdout


_FULL_DEVICE = "/dev/full"


@pytest.mark.skipif(not os.path.exists(_FULL_DEVICE), reason="needs a full device")
@pytest.mark.parametrize("argv", [["quad", "2"], ["biquad", "2", "3", "--json"],
                                  ["scan", "--bound", "40", "--json"], ["quad", "--help"]])
def test_a_failed_write_to_stdout_is_one_error_line_and_exit_1(argv):
    # each write fails with ENOSPC: main reports it as an IO error, and the
    # flush at exit finds nothing left to write (no exit 120)
    import subprocess, sys
    with open(_FULL_DEVICE, "w") as full:
        proc = subprocess.run([sys.executable, "-m", "polyabiquad", *argv], stdout=full,
                              stderr=subprocess.PIPE, text=True, env=_package_env())
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.count("\n") == 1 and proc.stderr.startswith("error: ")
    assert "No space left" in proc.stderr and "Traceback" not in proc.stderr
    assert "Exception ignored" not in proc.stderr


def test_a_closed_pipe_is_one_error_line_and_exit_1():
    # the reader is gone before the first write, as when head has exited
    import subprocess, sys
    proc = subprocess.Popen([sys.executable, "-m", "polyabiquad", "scan", "--bound", "20",
                             "--json"], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, env=_package_env())
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 1, err
    assert err.count("\n") == 1 and err.startswith("error: ") and "Broken pipe" in err


def test_scan_starts_no_more_workers_than_fields(capsys, monkeypatch):
    # a recording stand-in for the pool, which starts no process: --jobs J
    # starts min(J, fields, CPUs) workers, and none for one field or one CPU
    import multiprocessing
    started = []

    class RecordingPool:
        def __init__(self, processes):
            started.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, func, tasks):
            return [func(t) for t in tasks]

    monkeypatch.setattr(multiprocessing, "Pool", RecordingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    code, one, _ = run(capsys, "scan", "--bound", "2", "--jobs", "3", "--json")
    assert code == 0 and len(one.splitlines()) == 1 and started == []
    _, serial, _ = run(capsys, "scan", "--bound", "3", "--json")
    assert len(serial.splitlines()) == 6
    # os.cpu_count() is None when the count is unknown: one CPU, in-process
    for cpus, jobs, workers in ((8, "2", [2]), (8, "6", [6]), (8, "9", [6]),
                                (4, "5000", [4]), (None, "5000", [])):
        monkeypatch.setattr(os, "cpu_count", lambda count=cpus: count)
        started.clear()
        code, out, _ = run(capsys, "scan", "--bound", "3", "--json", "--jobs", jobs)
        assert code == 0 and out == serial and started == workers, (cpus, jobs)


def test_scan_output_survives_python_O():
    # verdict guards must raise, not assert: -O strips asserts and must not
    # change a single byte of a verified scan
    import subprocess, sys
    env = _package_env()
    argv = ["-m", "polyabiquad", "scan", "--bound", "5", "--verify", "--json"]
    plain, optimized = (
        subprocess.run([sys.executable, *flags, *argv], capture_output=True, env=env)
        for flags in ([], ["-O"]))
    assert plain.returncode == optimized.returncode == 0
    assert plain.stdout and plain.stdout == optimized.stdout


def test_usage_errors_exit_1_and_help_exits_0(capsys):
    # exit 2 is a formula-vs-oracle mismatch, so a usage error exits 1
    for argv, text in ((["biquad", "x", "2"], "invalid int value"),
                       (["biquad", "2"], "required"), ([], "required"),
                       (["scan", "--json"], "required"),
                       (["biquad", "2", "3", "--bogus"], "unrecognized arguments"),
                       (["quad", "2", "3"], "unrecognized arguments")):
        code, out, err = run(capsys, *argv)
        assert code == 1 and not out and "usage:" in err and text in err, argv
    for argv in (["quad", "--help"], ["-h"], ["scan", "--bound", "x", "-h"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        out = capsys.readouterr().out
        assert exc.value.code == 0 and out.startswith(cli.USAGE) and "Exit codes" in out


def test_options_must_be_spelled_in_full(capsys):
    # the earlier argparse front end took any unambiguous prefix, --verif
    # for --verify; the table parser takes only the full spelling
    assert reference_parse(["biquad", "2", "3", "--verif"])["verify"]
    for argv in (["biquad", "2", "3", "--verif"], ["scan", "--bound", "3", "--real"],
                 ["scan", "--bou", "3"]):
        code, out, err = run(capsys, *argv)
        assert code == 1 and not out and "unrecognized arguments" in err, argv


# every subcommand with every option, in every position and both spellings,
# negative positionals and option values, and each kind of usage error
PARSER_CORPUS = [
    ["quad", "-5"],
    ["quad", "-5", "--verify", "--budget", "7", "--csv"],
    ["quad", "--budget=7", "3", "--text"],
    ["quad", "--json", "-10000000019"],
    ["quad", "-1", "--verify", "--budget", "-1"],
    ["quad", "2", "--json", "--json"],
    ["quad"],
    ["quad", "x"],
    ["quad", "-"],
    ["quad", "2", "3"],
    ["quad", "2", "--chain"],
    ["quad", "2", "--budget"],
    ["quad", "2", "--json", "--csv"],
    ["quad", "5", "--verify=yes"],
    ["biquad", "-1", "2"],
    ["biquad", "-1", "2", "--json", "--verify"],
    ["biquad", "-1", "2", "--verify", "--chain", "--budget", "7", "--json"],
    ["biquad", "--verify", "-1", "--chain", "2", "--budget=7"],
    ["biquad", "--budget", "7", "-10000000019", "-1", "--csv"],
    ["biquad", "--budget", "-1", "2", "3"],
    ["biquad", "2", "3", "--text", "--text"],
    ["biquad", "2", "3", "--csv", "--text"],
    ["biquad", "2"],
    ["biquad", "2", "x"],
    ["biquad", "2", "3", "4"],
    ["biquad", "2", "3", "--bogus"],
    ["biquad", "2", "3", "-x"],
    ["biquad", "2", "3", "--budget", "--json"],
    ["biquad", "2", "3", "--budget=x"],
    ["biquad", "-1", "2", "--chain=1"],
    ["scan", "--bound", "20"],
    ["scan", "--bound=20", "--verify", "--json"],
    ["scan", "--real-only", "--bound", "7", "--out", "rows.csv", "--csv", "--jobs", "2",
     "--budget", "7"],
    ["scan", "--imag-only", "--verify", "--bound", "5", "--out=x.txt", "--jobs=3",
     "--budget=7", "--text"],
    ["scan", "--bound", "-3", "--jobs", "-2"],
    ["scan", "--bound", "3", "--real-only", "--imag-only"],
    ["scan", "--bound", "3", "--out", "-"],
    ["scan", "--bound", "3", "--out="],
    ["scan"],
    ["scan", "--verify"],
    ["scan", "--bound"],
    ["scan", "--bound", "x"],
    ["scan", "--bound", "3", "7"],
    ["scan", "--bound", "3", "--chain"],
    ["scan", "--bound", "3", "--real_only"],
    ["scan", "--bound", "3", "--jobs", "two"],
    ["scan", "--bound", "3", "--json", "--csv", "--text"],
    ["scan", "--bound", "3", "--out"],
    [],
    ["cube", "2"],
    ["--json", "biquad", "2", "3"],
]


def _parse_outcome(parse, argv):
    try:
        return "parsed", parse(argv)
    except InvalidInputError:
        return "exit 1", None


def test_table_parser_agrees_with_the_argparse_reference(capsys):
    # outcomes, not messages: argparse words its errors differently across
    # Python versions
    kinds = set()
    for argv in PARSER_CORPUS:
        new = _parse_outcome(lambda a: vars(parse_args(a)), argv)
        assert new == _parse_outcome(reference_parse, argv), argv
        kinds.add(new[0])
        if new[0] == "exit 1":
            assert main(argv) == 1, argv
    capsys.readouterr()
    assert kinds == {"parsed", "exit 1"} and len(PARSER_CORPUS) >= 40


def test_the_readme_synopsis_is_the_usage_text():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "README.md")) as fh:
        readme = fh.read()
    block = readme.split("## CLI\n\n```\n", 1)[1].split("```", 1)[0]
    assert block == cli.USAGE


def test_a_request_imports_neither_argparse_nor_multiprocessing():
    # both cost more to import than a formula request takes; only scan
    # --jobs J > 1 starts a pool.  Nor does the package load dataclasses or
    # the inspect it pulls in: no record needs them
    import subprocess, sys
    env = _package_env()
    script = ("import sys\n"
              "before = set(sys.modules)\n"
              "from polyabiquad import cli\n"
              "assert cli.main(['biquad', '-1', '2', '--json']) == 0\n"
              "print(sorted({'argparse', 'multiprocessing', 'dataclasses', 'inspect'}\n"
              "             & (set(sys.modules) - before)))\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_main_runs_repeatedly_in_one_process(capsys):
    # parse_args keeps no state between calls; no call may leave an option
    # or a usage error behind for the next one
    code, out, _ = run(capsys, "biquad", "2", "3", "--verify", "--json")
    assert code == 0 and json.loads(out)["verify_status"] == "ok"
    code, out, _ = run(capsys, "biquad", "2", "3", "--json")
    assert code == 0 and json.loads(out)["verify_status"] == "unchecked"
    code, _, err = run(capsys, "biquad", "2", "--bogus")
    assert code == 1 and "error:" in err
    code, out, _ = run(capsys, "biquad", "-1", "2", "--json")
    data = json.loads(out)
    assert code == 0 and (data["po_k"], data["verify_status"]) == (1, "unchecked")
