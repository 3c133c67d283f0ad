"""Flat output records for the CLI and their three serializations.

One record per field, a named tuple of its columns in output order, every
value an int except the last, verify_status.  The constructor checks the
column types and the status, and a biquadratic record its own identities
(polya.polya_report builds it; OutputRecord.with_status copies it with a
checked status): |Po(K)| * |kernel| = prod |Po(k_i)| * |cokernel|, the
chain indices telescoping to 2**s_K, and every order and index a power of
two.  _replace skips the constructor, so a changed record is built through
it.  JSON output is newline-delimited with a fixed key order, printed
through one %-template per record class, CSV has a header row and plain
comma-separated values (nothing needs quoting), and text is a fixed-width
table.  All three renderings parse back to the exact record list, which
the tests assert; scan output is therefore trivially diffable.  A
quadratic unit can have more digits than CPython's default limit on
int -> str conversion (that of Q(sqrt(999999937)) has 13,329 digits), so
rendering lifts that limit and restores it afterwards.
"""

from __future__ import annotations

import sys
from collections import namedtuple
from functools import cache

from .errors import InconsistencyError, InvalidInputError
from .intmath import is_power_of_two
from .quadratic import QuadraticField, radical_coords

VERIFY_STATUSES = ("unchecked", "ok", "mismatch", "budget_exceeded")


class OutputRecord(namedtuple(
        "OutputRecord", "d1 d2 d3 delta1 delta2 delta3 s1 s2 s3 s_k i2 e2 j2 q_k mu_order "
        "lambda1 lambda2 lambda3 nu_k po1 po2 po3 ker coker po_k h3_h0 h2_h1 h1_h0 h3_h2 "
        "verify_status")):
    """One biquadratic field: generators, ramification, units, orders."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = _checked(super().__new__(cls, *args, **kwargs))
        if self.po_k * self.ker != self.po1 * self.po2 * self.po3 * self.coker:
            raise InconsistencyError("report violates the decomposition identity")
        if self.h3_h2 * self.h2_h1 * self.h1_h0 != self.h3_h0 or self.h3_h0 != 2 ** self.s_k:
            raise InconsistencyError("report chain does not telescope to 2^s_K")
        for v in (self.po1, self.po2, self.po3, self.ker, self.coker, self.po_k,
                  self.h3_h0, self.h2_h1, self.h1_h0, self.h3_h2):
            if not is_power_of_two(v):
                raise InconsistencyError("all report entries must be powers of two")
        return self

    def with_status(self, verify_status: str) -> "OutputRecord":
        """A copy with verify_status set.  Only the status is checked: the
        identities, which no status changes, were checked when self was
        built, and _replace, which skips the constructor, checks nothing."""
        _check_status(verify_status)
        return self._replace(verify_status=verify_status)


class QuadRecord(namedtuple("QuadRecord", "d delta s eps_x eps_y eps_den lam nu po verify_status")):
    """One quadratic field: discriminant, unit data, ambiguous-class count."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        return _checked(super().__new__(cls, *args, **kwargs))


def _check_status(verify_status: str) -> None:
    if verify_status not in VERIFY_STATUSES:
        raise InvalidInputError(f"unknown verify status {verify_status!r}")


def _checked(rec):
    """rec, once its status is one of VERIFY_STATUSES and every other column
    is exactly an int, the one type the JSON template prints under %d as
    json.dumps prints it (%d truncates a float and prints a bool as 1 or 0)."""
    _check_status(rec.verify_status)
    if {*map(type, rec[:-1])} != {int}:
        raise InconsistencyError(f"{type(rec).__name__} has a column the JSON template cannot print")
    return rec


def quad_record(k: QuadraticField, po: int,
                verify_status: str = "unchecked") -> QuadRecord:
    ex, ey, eden = radical_coords(k.d, *k.fundamental_unit) if k.is_real else (0, 0, 1)
    return QuadRecord(d=k.d, delta=k.delta, s=k.s,
                      eps_x=ex, eps_y=ey, eps_den=eden,
                      lam=k.lam, nu=k.nu, po=po, verify_status=verify_status)


@cache
def _json_template(cls) -> str:
    """The JSON row of a record class as one %-template over its columns:
    %d for every column but the last, verify_status, quoted as %s.  A record
    holds an int in each of those and one of VERIFY_STATUSES, which need no
    escaping, in the last, and an int prints under %d exactly as json.dumps
    prints it."""
    cells = [f'"{c}": %d' for c in cls._fields[:-1]] + ['"verify_status": "%s"']
    return "{" + ", ".join(cells) + "}"


def render_records(records, fmt: str) -> str:
    """Render a nonempty list of records (all of one type) as json | csv | text,
    with the interpreter's limit on the digits of an int -> str conversion
    (Python 3.10.7 and later) lifted for the call and then restored."""
    if not hasattr(sys, "set_int_max_str_digits"):
        return _render(records, fmt)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return _render(records, fmt)
    finally:
        sys.set_int_max_str_digits(limit)


def _render(records, fmt: str) -> str:
    cols = type(records[0])._fields
    if fmt == "json":
        template = _json_template(type(records[0]))
        return "".join([template % r + "\n" for r in records])
    if fmt == "csv":
        lines = [",".join(cols)]
        lines += [",".join(map(str, r)) for r in records]
        return "\n".join(lines) + "\n"
    if fmt != "text":
        raise InvalidInputError(f"unknown output format {fmt!r}")
    table = [cols] + [list(map(str, r)) for r in records]
    widths = [max(len(row[j]) for row in table) for j in range(len(cols))]
    lines = ["  ".join(cell.rjust(w) for cell, w in zip(row, widths)) for row in table]
    return "\n".join(lines) + "\n"
