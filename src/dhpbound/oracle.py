"""Simulated Diffie-Hellman oracle with exact call accounting.

The oracle answers dh(aP, bP) = abP. It recovers a from aP at call time, so
it accepts arbitrary points produced mid-computation (squarings dh(Y, Y)
included) without tracking any exponent bookkeeping that a real black box
would not have. On Z_p the generator is 1, so a is the residue itself; on the
other backends a private baby-step giant-step solver, built once per handle,
walks the raw coordinates. That private solver work is deliberately invisible
to the caller: the attached ledger moves by exactly one oracle call per
invocation and nothing else. The handle's own solver_steps counter shows it.

Within one run (from one attach_ledger to the next) the solver remembers what
it has already solved: the exponent of every point it probed, and the exponent
ab of every answer abP whose b it knew. It is keyed only on points the calls
carried in or out, never on the caller's own secrets, so it uses nothing a
black box lacks: a point's exponent is unique, a memo hit returns exactly what
a fresh probe would, and answers, transcripts and ledgers are the same with or
without it. In a reduction the first squaring dh(Q, Q) solves Q, after which
every point implicit_pow hands in is a hit: at most two probes per run, the
generator and Q. attach_ledger forgets the memo, so it never outlives a run
and holds at most two entries per call since the last attach.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from math import isqrt
from operator import attrgetter

from .groups import (
    ORDER_GUARD,
    CyclicGroup,
    GroupPoint,
    GuardRailError,
    ZpAdditiveGroup,
    bsgs_probe,
    bsgs_table,
    orbit,
)


@dataclass
class CostLedger:
    """Exact counters for one reduction run; monotone, never shared between runs."""

    group_ops: int = 0
    oracle_calls: int = 0
    bsgs_table_entries: int = 0

    def charge_group_ops(self, k: int) -> None:
        if k < 0:
            raise ValueError(f"cannot charge {k} group operations")
        self.group_ops += k

    def charge_table_entries(self, k: int) -> None:
        if k < 0:
            raise ValueError(f"cannot charge {k} table entries")
        self.bsgs_table_entries += k

    def as_dict(self) -> dict:
        return asdict(self)


class OracleHandle:
    """DH oracle bound to one group; reusable across runs via attach_ledger."""

    def __init__(self, group: CyclicGroup):
        if group.order > ORDER_GUARD:
            raise GuardRailError(
                f"order {group.order} exceeds the oracle simulation guard {ORDER_GUARD}"
            )
        self.group = group
        self.call_count = 0
        self.ledger: CostLedger | None = None
        self.solver_steps = 0  # private solver work: baby steps, then giant probes per memo miss
        self._baby_table: dict[object, int] | None = None  # point data -> baby index
        self._giant_step = None  # raw data of -m*P
        self._table_span = isqrt(group.order - 1) + 1 if group.order > 1 else 1
        self._known: dict[object, int] = {}  # point data -> dlog, for the current run only

    def attach_ledger(self, ledger: CostLedger | None) -> None:
        """Start a new run: charge later calls to this ledger (None detaches), forget the memo."""
        self.ledger = ledger
        self._known.clear()

    def _private_dlog(self, A: GroupPoint) -> int:
        """Exponent of A, off the caller's ledger: the Z_p residue, else the memo or a BSGS probe."""
        g, m = self.group, self._table_span
        if isinstance(g, ZpAdditiveGroup):  # generator 1: the residue is the dlog
            return A.data
        known = self._known.get(A.data)
        if known is not None:
            return known
        if self._baby_table is None:  # one baby table per handle, shared by every call
            babies = map(attrgetter("data"), orbit(g.add, g.identity, g.generator))
            self._baby_table = bsgs_table(babies, m)
            self._giant_step = g.negate(g.scalar_mul(m, g.generator)).data
            self.solver_steps += m - 1
        hit = bsgs_probe(  # raw data is canonical and hashable; every match u*m + r is the dlog
            self._baby_table, orbit(g._raw_add, A.data, self._giant_step), range(m + 1),
            lambda u, r: True,
        )
        if hit is None:
            raise RuntimeError(
                f"oracle dlog failed on order {g.order}: point not generated by the group generator"
            )
        self.solver_steps += hit[0] + 1
        a = self._known[A.data] = (hit[0] * m + hit[1]) % g.order
        return a

    def dh(self, A: GroupPoint, B: GroupPoint) -> GroupPoint:
        """Return (ab)P for A = aP, B = bP; charges exactly one oracle call."""
        self.group._member(A)
        self.group._member(B)
        a = self._private_dlog(A)
        result = self.group.scalar_mul(a, B)
        b = self._known.get(B.data)  # never set on Z_p, where _private_dlog does not store
        if b is not None:
            self._known[result.data] = a * b % self.group.order
        self.call_count += 1
        if self.ledger is not None:
            self.ledger.oracle_calls += 1
        return result
