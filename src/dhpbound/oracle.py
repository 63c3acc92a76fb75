"""Simulated Diffie-Hellman oracle with exact call accounting.

The oracle answers dh(aP, bP) = abP. It recovers a from aP by its own
baby-step giant-step solver at call time, so it accepts arbitrary points
produced mid-computation (squarings dh(Y, Y) included) without tracking any
exponent bookkeeping that a real black box would not have. That private solver
work is deliberately invisible to the caller: the attached ledger moves by
exactly one oracle call per invocation and nothing else.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from math import isqrt

from .groups import ORDER_GUARD, CyclicGroup, GroupPoint, GuardRailError, bsgs_probe, bsgs_table


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
        self._baby_table: dict[bytes, int] | None = None
        self._giant_step: GroupPoint | None = None
        self._table_span = isqrt(group.order - 1) + 1 if group.order > 1 else 1

    def attach_ledger(self, ledger: CostLedger | None) -> None:
        """Direct subsequent call charges to this ledger (None detaches)."""
        self.ledger = ledger

    def _private_dlog(self, A: GroupPoint) -> int:
        """Exponent of A, solved with cached baby steps; work stays off the caller's ledger."""
        g, m = self.group, self._table_span
        if self._baby_table is None:  # one baby table per handle, shared by every call
            self._baby_table = bsgs_table(g.encode, g.add, g.identity, g.generator, m)
            self._giant_step = g.negate(g.scalar_mul(m, g.generator))
        hit = bsgs_probe(  # every match u*m + r is the dlog
            self._baby_table, g.encode, g.add, A, self._giant_step, range(m + 1), lambda u, r: True
        )
        if hit is None:
            raise RuntimeError(
                f"oracle dlog failed on order {g.order}: point not generated by the group generator"
            )
        return (hit[0] * m + hit[1]) % g.order

    def dh(self, A: GroupPoint, B: GroupPoint) -> GroupPoint:
        """Return (ab)P for A = aP, B = bP; charges exactly one oracle call."""
        self.group._member(A)
        self.group._member(B)
        a = self._private_dlog(A)
        result = self.group.scalar_mul(a, B)
        self.call_count += 1
        if self.ledger is not None:
            self.ledger.oracle_calls += 1
        return result
