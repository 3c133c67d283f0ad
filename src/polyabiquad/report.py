"""Flat output records for the CLI and their three serializations.

One record per field, all values integers except verify_status.  A
biquadratic record checks its own identities when polya.polya_report
builds it (OutputRecord.with_status copies it with a checked status):
|Po(K)| * |kernel| =
prod |Po(k_i)| * |cokernel|, the chain indices telescoping to 2**s_K, and
every order and index a power of two.  JSON output
is newline-delimited with a fixed key order, printed through one
%-template per record class, CSV has a header row and plain comma-separated
values (nothing needs quoting), and text is a fixed-width table.  All three
renderings parse back to the exact record list, which the tests assert;
scan output is therefore trivially diffable.  A quadratic
unit can have more digits than CPython's default limit on int -> str
conversion (that of Q(sqrt(999999937)) has 13,329 digits), so rendering
lifts that limit and restores it afterwards.
"""

from __future__ import annotations

import dataclasses
import sys
from dataclasses import dataclass
from functools import cache
from operator import attrgetter

from .errors import InconsistencyError, InvalidInputError
from .intmath import is_power_of_two
from .quadratic import QuadraticField, radical_coords

VERIFY_STATUSES = ("unchecked", "ok", "mismatch", "budget_exceeded")


@dataclass(frozen=True)
class OutputRecord:
    """One biquadratic field: generators, ramification, units, orders."""

    d1: int
    d2: int
    d3: int
    delta1: int
    delta2: int
    delta3: int
    s1: int
    s2: int
    s3: int
    s_k: int
    i2: int
    e2: int
    j2: int
    q_k: int
    mu_order: int
    lambda1: int
    lambda2: int
    lambda3: int
    nu_k: int
    po1: int
    po2: int
    po3: int
    ker: int
    coker: int
    po_k: int
    h3_h0: int
    h2_h1: int
    h1_h0: int
    h3_h2: int
    verify_status: str

    def __post_init__(self):
        _check_status(self.verify_status)
        if self.po_k * self.ker != self.po1 * self.po2 * self.po3 * self.coker:
            raise InconsistencyError("report violates the decomposition identity")
        if self.h3_h2 * self.h2_h1 * self.h1_h0 != self.h3_h0 or self.h3_h0 != 2 ** self.s_k:
            raise InconsistencyError("report chain does not telescope to 2^s_K")
        for v in (self.po1, self.po2, self.po3, self.ker, self.coker, self.po_k,
                  self.h3_h0, self.h2_h1, self.h1_h0, self.h3_h2):
            if not is_power_of_two(v):
                raise InconsistencyError("all report entries must be powers of two")

    def with_status(self, verify_status: str) -> "OutputRecord":
        """A copy with verify_status set.  Only the status is checked: the
        identities, which no status changes, were checked when self was
        built, and dataclasses.replace would check them again."""
        _check_status(verify_status)
        rec = object.__new__(OutputRecord)
        rec.__dict__.update(self.__dict__, verify_status=verify_status)
        return rec


@dataclass(frozen=True)
class QuadRecord:
    """One quadratic field: discriminant, unit data, ambiguous-class count."""

    d: int
    delta: int
    s: int
    eps_x: int
    eps_y: int
    eps_den: int
    lam: int
    nu: int
    po: int
    verify_status: str

    def __post_init__(self):
        _check_status(self.verify_status)


def _check_status(verify_status: str) -> None:
    if verify_status not in VERIFY_STATUSES:
        raise InvalidInputError(f"unknown verify status {verify_status!r}")


def quad_record(k: QuadraticField, po: int,
                verify_status: str = "unchecked") -> QuadRecord:
    ex, ey, eden = radical_coords(k.d, *k.fundamental_unit) if k.is_real else (0, 0, 1)
    return QuadRecord(d=k.d, delta=k.delta, s=k.s,
                      eps_x=ex, eps_y=ey, eps_den=eden,
                      lam=k.lam, nu=k.nu, po=po, verify_status=verify_status)


@cache
def _columns(cls) -> tuple[str, ...]:
    return tuple(f.name for f in dataclasses.fields(cls))


@cache
def _json_template(cls) -> str:
    """The JSON row of a record class as one %-template over its columns:
    %d for every column but the last, which must be verify_status, quoted as
    %s.  _check_status confines that one to VERIFY_STATUSES, which need no
    escaping, and an int prints under %d exactly as json.dumps prints it;
    a column of any other type raises InconsistencyError."""
    fields = dataclasses.fields(cls)
    if fields[-1].name != "verify_status" or any(f.type not in (int, "int") for f in fields[:-1]):
        raise InconsistencyError(f"{cls.__name__} has a column the JSON template cannot print")
    cells = [f'"{c}": %d' for c in _columns(cls)[:-1]] + ['"verify_status": "%s"']
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
    cols = _columns(type(records[0]))
    values = attrgetter(*cols)
    if fmt == "json":
        template = _json_template(type(records[0]))
        return "".join([template % values(r) + "\n" for r in records])
    if fmt == "csv":
        lines = [",".join(cols)]
        lines += [",".join(map(str, values(r))) for r in records]
        return "\n".join(lines) + "\n"
    if fmt != "text":
        raise InvalidInputError(f"unknown output format {fmt!r}")
    table = [cols] + [list(map(str, values(r))) for r in records]
    widths = [max(len(row[j]) for row in table) for j in range(len(cols))]
    lines = ["  ".join(cell.rjust(w) for cell, w in zip(row, widths)) for row in table]
    return "\n".join(lines) + "\n"
