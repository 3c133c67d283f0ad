"""Flat output records for the CLI and their three serializations.

One record per field, all values integers except verify_status.  JSON output
is newline-delimited with a fixed key order, CSV has a header row and plain
comma-separated values (nothing needs quoting), and text is a fixed-width
table.  All three renderings parse back to the exact record list, which the
tests assert; scan output is therefore trivially diffable.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass

from .biquadratic import BiquadField
from .errors import InvalidInputError
from .polya import PolyaReport
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


def _check_status(verify_status: str) -> None:
    if verify_status not in VERIFY_STATUSES:
        raise InvalidInputError(f"unknown verify status {verify_status!r}")


def biquad_record(K: BiquadField, rep: PolyaReport,
                  verify_status: str = "unchecked") -> OutputRecord:
    _check_status(verify_status)
    us = K.units
    return OutputRecord(
        d1=K.d[0], d2=K.d[1], d3=K.d[2],
        delta1=K.subfields[0].delta, delta2=K.subfields[1].delta,
        delta3=K.subfields[2].delta,
        s1=K.subfields[0].s, s2=K.subfields[1].s, s3=K.subfields[2].s,
        s_k=rep.s_k, i2=rep.i2, e2=K.profile.e2, j2=rep.j2,
        q_k=rep.q_k, mu_order=us.mu_order,
        lambda1=us.lam[0], lambda2=us.lam[1], lambda3=us.lam[2],
        nu_k=rep.nu_k,
        po1=rep.po_sub[0], po2=rep.po_sub[1], po3=rep.po_sub[2],
        ker=rep.ker, coker=rep.coker, po_k=rep.po_k,
        h3_h0=rep.chain[0], h2_h1=rep.chain[1], h1_h0=rep.chain[2],
        h3_h2=rep.chain[3],
        verify_status=verify_status,
    )


def quad_record(k: QuadraticField, po: int,
                verify_status: str = "unchecked") -> QuadRecord:
    _check_status(verify_status)
    ex, ey, eden = radical_coords(k.d, *k.fundamental_unit) if k.is_real else (0, 0, 1)
    return QuadRecord(d=k.d, delta=k.delta, s=k.s,
                      eps_x=ex, eps_y=ey, eps_den=eden,
                      lam=k.lam, nu=k.nu, po=po, verify_status=verify_status)


def _columns(cls) -> list[str]:
    return [f.name for f in dataclasses.fields(cls)]


def _row_values(rec) -> list:
    return [getattr(rec, name) for name in _columns(type(rec))]


def render_records(records, fmt: str) -> str:
    """Render a nonempty list of records (all of one type) as json | csv | text."""
    cols = _columns(type(records[0]))
    if fmt == "json":
        lines = [json.dumps({c: getattr(r, c) for c in cols}, separators=(", ", ": "))
                 for r in records]
        return "\n".join(lines) + "\n"
    if fmt == "csv":
        lines = [",".join(cols)]
        lines += [",".join(str(v) for v in _row_values(r)) for r in records]
        return "\n".join(lines) + "\n"
    if fmt != "text":
        raise InvalidInputError(f"unknown output format {fmt!r}")
    table = [cols] + [[str(v) for v in _row_values(r)] for r in records]
    widths = [max(len(row[j]) for row in table) for j in range(len(cols))]
    lines = ["  ".join(cell.rjust(w) for cell, w in zip(row, widths)) for row in table]
    return "\n".join(lines) + "\n"
