"""Lower-bound calculator over the embedded SECG curve database.

For each curve the database stores the prime subgroup order p, a divisor d of
p-1 from the reference parameter lists, and the reference table's four
log2 columns. This module recomputes those columns:

  n      = exact DH-oracle calls for the divisor d (square-and-multiply count),
  M      = 2*(isqrt((p-1)/d) + isqrt(d)), the BSGS group-operation bound,
  T_DH   = sqrt(p)/n, the implied lower bound on DH-oracle work,

and grades each row against the stored reference values: within 0.02 is a
clean match, within 0.10 a rounding-convention discrepancy, and beyond that a
failure unless the record carries an annotation documenting a known defect in
the reference values.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from importlib import resources
from math import isqrt

from .modmath import (
    Factorization,
    IncompleteFactorizationError,
    divisors_in_range,
    icbrt,
    log2_approx,
)
from .reduction import InvalidDivisorError, oracle_calls_exact, reduction_ops_bound

# row verdict tiers, in increasing severity
VERDICT_OK = "ok"
VERDICT_DISCREPANCY = "discrepancy"
VERDICT_ANNOTATED = "annotated mismatch"
VERDICT_FAILURE = "failure"
VERDICT_NO_DATA = "not available"

MATCH_TOL = 0.02
DISCREPANCY_TOL = 0.10


class DatabaseError(ValueError):
    """The curve database, or one of its records, is malformed or inconsistent."""


@dataclass(frozen=True)
class CurveRecord:
    """One named curve: its prime subgroup order, chosen divisor, reference cells."""

    name: str
    field_kind: str  # "prime" | "binary"
    p: int
    d: int | None
    expected_log2_sqrt_p: float | None
    expected_log2_M: float | None
    expected_log2_n: float | None
    expected_log2_TDH: float | None
    annotations: tuple[str, ...] = ()


@dataclass(frozen=True)
class BoundRow:
    """Computed table row plus its grading against the reference cells."""

    name: str
    field_kind: str
    available: bool
    log2_sqrt_p: float | None
    log2_M: float | None
    log2_n: float | None
    log2_TDH: float | None
    n: int | None
    deltas: tuple[float | None, float | None, float | None, float | None] | None
    verdict: str
    flags: tuple[str, ...]
    annotations: tuple[str, ...] = ()


def paper_band(p: int) -> tuple[int, int]:
    """The paper's divisor range [ceil(cbrt p), isqrt p]; empty (lo > hi) for tiny p."""
    lo = icbrt(p)
    return lo + (lo**3 < p), isqrt(p)


def t_dh(p: int, n: int) -> float:
    """log2 of the DH lower bound sqrt(p)/n implied by an n-call reduction."""
    if n < 1:
        raise ValueError(f"oracle-call count must be >= 1, got {n}")
    return 0.5 * log2_approx(p) - log2_approx(n)


def _row_flags(rec: CurveRecord, log2_sqrt_p: float, log2_M: float) -> tuple[str, ...]:
    flags = []
    # M ~ sqrt(p) would make the bound vacuous; warn when within 8 bits
    if log2_M > log2_sqrt_p - 8:
        flags.append("m-large")
    # d**3 >= p and d*d <= p is the integer form of cbrt(p) <= d <= sqrt(p)
    if not (rec.d**3 >= rec.p and rec.d * rec.d <= rec.p):
        flags.append("policy-mismatch")
    if rec.annotations:
        flags.append("annotated")
    return tuple(flags)


def _verdict(deltas: tuple[float | None, ...], annotated: bool) -> str:
    worst = max(abs(dl) for dl in deltas if dl is not None) if any(
        dl is not None for dl in deltas
    ) else 0.0
    if worst <= MATCH_TOL:
        return VERDICT_OK
    if worst <= DISCREPANCY_TOL:
        return VERDICT_DISCREPANCY
    return VERDICT_ANNOTATED if annotated else VERDICT_FAILURE


def table_rows(db: list[CurveRecord]) -> list[BoundRow]:
    """One graded row per record, in database order; no-divisor records become markers."""
    rows = []
    for rec in db:
        if rec.d is None:
            rows.append(
                BoundRow(
                    name=rec.name,
                    field_kind=rec.field_kind,
                    available=False,
                    log2_sqrt_p=None,
                    log2_M=None,
                    log2_n=None,
                    log2_TDH=None,
                    n=None,
                    deltas=None,
                    verdict=VERDICT_NO_DATA,
                    flags=("no-d",) + (("annotated",) if rec.annotations else ()),
                    annotations=rec.annotations,
                )
            )
            continue
        n = oracle_calls_exact(rec.d)
        log2_sqrt_p = 0.5 * log2_approx(rec.p)
        log2_M = log2_approx(reduction_ops_bound(rec.p, rec.d))
        log2_n = log2_approx(n)
        log2_TDH = t_dh(rec.p, n)
        deltas = tuple(
            (computed - expected) if expected is not None else None
            for computed, expected in (
                (log2_sqrt_p, rec.expected_log2_sqrt_p),
                (log2_M, rec.expected_log2_M),
                (log2_n, rec.expected_log2_n),
                (log2_TDH, rec.expected_log2_TDH),
            )
        )
        rows.append(
            BoundRow(
                name=rec.name,
                field_kind=rec.field_kind,
                available=True,
                log2_sqrt_p=log2_sqrt_p,
                log2_M=log2_M,
                log2_n=log2_n,
                log2_TDH=log2_TDH,
                n=n,
                deltas=deltas,
                verdict=_verdict(deltas, bool(rec.annotations)),
                flags=_row_flags(rec, log2_sqrt_p, log2_M),
                annotations=rec.annotations,
            )
        )
    return rows


def rows_exit_code(rows: list[BoundRow]) -> int:
    """0 when every graded row matches, 2 on discrepancies, 1 on hard failure."""
    code = 0
    for row in rows:
        if row.verdict == VERDICT_FAILURE:
            return 1
        if row.verdict in (VERDICT_DISCREPANCY, VERDICT_ANNOTATED):
            code = 2
    return code


def suggest_divisor(p: int, factors: Factorization, policy: str = "paper") -> int | None:
    """Advisory divisor choice for a fresh prime; never overrides the database.

    policy "paper": the smallest divisor of p-1 in [cbrt(p), sqrt(p)]; if that
    range holds none, the largest divisor below cbrt(p) exceeding 1; None when
    only d = 1 exists below the range.

    policy "min-n": the divisor minimizing the exact oracle-call count among
    those with reduction_ops_bound at most 2^(log2(sqrt p) - 8), i.e. M at
    least 8 bits below the plain BSGS cost (compared in log2 to keep huge p
    exact); ties break toward the smaller divisor; None when no divisor
    qualifies.
    """
    if not factors.complete:
        raise IncompleteFactorizationError("divisor suggestion needs p-1 fully factored")
    if policy == "paper":
        lo, hi = paper_band(p)
        if lo <= hi:
            in_range = divisors_in_range(factors, lo, hi)
            if in_range:
                return in_range[0]
        if lo - 1 >= 2:
            below = divisors_in_range(factors, 2, lo - 1)
            if below:
                return below[-1]
        return None
    if policy == "min-n":
        budget = 0.5 * log2_approx(p) - 8
        best = None
        for d in divisors_in_range(factors, 1, p - 1):
            if log2_approx(reduction_ops_bound(p, d)) > budget:
                continue
            n = oracle_calls_exact(d)
            if n == 0:
                continue  # d = 1 performs no reduction
            if best is None or (n, d) < best:
                best = (n, d)
        return best[1] if best else None
    raise ValueError(f"unknown policy {policy!r}; expected 'paper' or 'min-n'")


def load_database(path: str | None = None) -> list[CurveRecord]:
    """Parse the curve database: explicit path, else $DHP_DB, else the packaged file.

    Every record is validated here (p an integer >= 3, d None or a divisor of
    p-1, every field present); a bad shape or record raises DatabaseError.
    """
    if path is None:
        path = os.environ.get("DHP_DB") or None
    if path is None:
        blob = resources.files("dhpbound.data").joinpath("secg_curves.json").read_text()
    else:
        with open(path) as fh:
            blob = fh.read()
    doc = json.loads(blob)
    raws = doc.get("records") if isinstance(doc, dict) else None
    if not isinstance(raws, list):
        raise DatabaseError("the top level must be an object holding a 'records' list")
    records = []
    for i, raw in enumerate(raws):
        try:
            p = int(raw["p"])
            d = int(raw["d"]) if raw["d"] is not None else None
            if p < 3:
                raise ValueError(f"p={p} is below 3")
            if d is not None and (d < 1 or (p - 1) % d != 0):
                raise InvalidDivisorError(f"d={d} does not divide p-1={p - 1}")
            records.append(
                CurveRecord(
                    name=raw["name"],
                    field_kind=raw["field_kind"],
                    p=p,
                    d=d,
                    expected_log2_sqrt_p=raw["expected_log2_sqrt_p"],
                    expected_log2_M=raw["expected_log2_M"],
                    expected_log2_n=raw["expected_log2_n"],
                    expected_log2_TDH=raw["expected_log2_TDH"],
                    annotations=tuple(raw.get("annotations", ())),
                )
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise DatabaseError(f"record {i}: {type(exc).__name__}: {exc}") from None
    return records
