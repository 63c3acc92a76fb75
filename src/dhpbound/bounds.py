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
from math import isfinite, isqrt

from .cost import divisor_split, oracle_calls_exact, reduction_ops_bound
from .modmath import (
    Factorization,
    IncompleteFactorizationError,
    divisors_in_range,
    icbrt,
    log2_approx,
)

# row verdict tiers, in increasing severity
VERDICT_OK = "ok"
VERDICT_DISCREPANCY = "discrepancy"
VERDICT_ANNOTATED = "annotated mismatch"
VERDICT_FAILURE = "failure"
VERDICT_NO_DATA = "not available"

MATCH_TOL = 0.02
DISCREPANCY_TOL = 0.10


# the reference table's four log2 columns, as CurveRecord names them
LOG2_CELLS = ("expected_log2_sqrt_p", "expected_log2_M", "expected_log2_n", "expected_log2_TDH")


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
    """Computed table row plus its grading against the reference cells.

    A record without a divisor keeps the defaults: nothing computed, no
    deltas, verdict VERDICT_NO_DATA.
    """

    name: str
    field_kind: str
    available: bool = False
    log2_sqrt_p: float | None = None
    log2_M: float | None = None
    log2_n: float | None = None
    log2_TDH: float | None = None
    n: int | None = None
    deltas: tuple[float | None, float | None, float | None, float | None] | None = None
    verdict: str = VERDICT_NO_DATA
    flags: tuple[str, ...] = ()
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


def _row_flags(rec: CurveRecord, log2_sqrt_p: float | None, log2_M: float | None) -> tuple[str, ...]:
    """The row's flags: "no-d" without a divisor, else "m-large" and "policy-mismatch" where they hold."""
    flags = []
    if rec.d is None:
        flags.append("no-d")
    else:
        # M ~ sqrt(p) would make the bound vacuous; warn when within 8 bits
        if log2_M > log2_sqrt_p - 8:
            flags.append("m-large")
        lo, hi = paper_band(rec.p)
        if not lo <= rec.d <= hi:
            flags.append("policy-mismatch")
    if rec.annotations:
        flags.append("annotated")
    return tuple(flags)


def _verdict(deltas: tuple[float | None, ...], annotated: bool) -> str:
    worst = max((abs(dl) for dl in deltas if dl is not None), default=0.0)
    if worst <= MATCH_TOL:
        return VERDICT_OK
    if worst <= DISCREPANCY_TOL:
        return VERDICT_DISCREPANCY
    return VERDICT_ANNOTATED if annotated else VERDICT_FAILURE


def table_rows(db: list[CurveRecord]) -> list[BoundRow]:
    """One graded row per record, in database order; no-divisor records become markers."""
    rows = []
    for rec in db:
        cells, graded = (None, None), {}
        if rec.d is not None:
            n = oracle_calls_exact(rec.d)
            m_ops = reduction_ops_bound(rec.p, rec.d)
            cells = (0.5 * log2_approx(rec.p), log2_approx(m_ops), log2_approx(n), t_dh(rec.p, n))
            deltas = tuple(
                None if (ref := getattr(rec, name)) is None else cell - ref for cell, name in zip(cells, LOG2_CELLS)
            )
            # BoundRow names each computed cell as LOG2_CELLS names its reference, less "expected_"
            graded = {name.removeprefix("expected_"): cell for cell, name in zip(cells, LOG2_CELLS)}
            graded.update(available=True, n=n, deltas=deltas, verdict=_verdict(deltas, bool(rec.annotations)))
        rows.append(
            BoundRow(rec.name, rec.field_kind, **graded, flags=_row_flags(rec, *cells[:2]), annotations=rec.annotations)
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
    only d = 1 exists below the range. That divisor is (p-1)/D for the
    smallest divisor D of p-1 at or above (p-1)/(lo-1), lo the band's floor.

    policy "min-n": the divisor minimizing the exact oracle-call count among
    those with reduction_ops_bound at most 2^(log2(sqrt p) - 8), i.e. M at
    least 8 bits below the plain BSGS cost (compared in log2 to keep huge p
    exact); ties break toward the smaller divisor; None when no divisor
    qualifies. Like divisors_in_range, min-n sees only the modmath.DIVISOR_CAP
    (10^6) smallest divisors of p-1.
    """
    if not factors.complete:
        raise IncompleteFactorizationError("divisor suggestion needs p-1 fully factored")
    if policy == "paper":
        lo, hi = paper_band(p)
        smallest = divisors_in_range(factors, lo, hi, cap=1) if lo <= hi else []
        if smallest:
            return smallest[0]
        below = (p - 1) // divisors_in_range(factors, -(-(p - 1) // (lo - 1)), p - 1, cap=1)[0]
        return below if below >= 2 else None
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


def _is_integer(value) -> bool:
    """A JSON int or a decimal string for int() to read; never a bool or a float."""
    return isinstance(value, (int, str)) and not isinstance(value, bool)


def _to_int(key: str, value) -> int:
    """A record's integer field as an int; a string must hold only ASCII decimal digits.

    int() reads the string first, so "abc" still fails as an invalid
    literal; what int() also takes (signs, spaces, underscores, non-ASCII
    digits such as U+0663) is refused after it.
    """
    n = int(value)
    if isinstance(value, str) and not (value.isascii() and value.isdigit()):
        raise ValueError(f"{key}={value!r} is not a string of ASCII decimal digits")
    return n


def _is_cell(value) -> bool:
    """A reference log2 cell: a finite JSON number (never a bool, NaN or Infinity) or null."""
    return value is None or isinstance(value, (int, float)) and not isinstance(value, bool) and isfinite(value)


# each record field -> (the check its JSON value must pass, what that value must be)
_RECORD_FIELDS = {
    "name": (lambda v: isinstance(v, str) and v != "", "a non-empty string"),
    "field_kind": (lambda v: v in ("prime", "binary"), "'prime' or 'binary'"),
    "p": (_is_integer, "an integer or a decimal string"),
    "d": (lambda v: v is None or _is_integer(v), "an integer, a decimal string or null"),
    **{cell: (_is_cell, "a finite number or null") for cell in LOG2_CELLS},
    "annotations": (lambda v: isinstance(v, list) and all(isinstance(a, str) for a in v), "a list of strings"),
}


def load_database(path: str | None = None) -> list[CurveRecord]:
    """Parse the curve database: explicit path, else $DHP_DB, else the packaged file.

    Every record is validated here: each field present and of the type
    _RECORD_FIELDS names (annotations may be left out), p and d plain ASCII
    decimals when given as strings, p >= 3, and d None or a divisor of p-1
    of at least 2. A file that cannot be opened raises OSError. A file that
    does not decode (not UTF-8, not JSON, nested past the recursion limit, an
    integer past Python's digit limit), a bad shape or a bad record raises
    DatabaseError.
    """
    if path is None:
        path = os.environ.get("DHP_DB") or None
    packaged = resources.files("dhpbound.data").joinpath("secg_curves.json")
    try:
        with packaged.open() if path is None else open(path) as fh:
            doc = json.load(fh)
    except (ValueError, RecursionError) as exc:  # UnicodeDecodeError and JSONDecodeError included
        raise DatabaseError(str(exc)) from None
    raws = doc.get("records") if isinstance(doc, dict) else None
    if not isinstance(raws, list):
        raise DatabaseError("the top level must be an object holding a 'records' list")
    records = []
    for i, raw in enumerate(raws):
        try:
            raw = {"annotations": [], **raw}  # the one optional field
            for key, (ok, want) in _RECORD_FIELDS.items():
                if not ok(raw[key]):
                    raise TypeError(f"{key}={raw[key]!r} is not {want}")
            p = _to_int("p", raw["p"])
            d = _to_int("d", raw["d"]) if raw["d"] is not None else None
            if p < 3:
                raise ValueError(f"p={p} is below 3")
            if d is not None:
                divisor_split(p, d)  # raises InvalidDivisorError unless d divides p-1
                if d < 2:  # n = 0 oracle calls: sqrt(p)/n bounds nothing
                    raise ValueError(f"d={d} is below 2")
            records.append(
                CurveRecord(
                    name=raw["name"],
                    field_kind=raw["field_kind"],
                    p=p,
                    d=d,
                    **{cell: raw[cell] for cell in LOG2_CELLS},
                    annotations=tuple(raw["annotations"]),
                )
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise DatabaseError(f"record {i}: {type(exc).__name__}: {exc}") from None
    return records
