"""Simulated Diffie-Hellman oracle with exact call accounting.

The oracle answers dh(aP, bP) = abP. It recovers a from aP at call time, so
it accepts arbitrary points produced mid-computation (squarings dh(Y, Y)
included) without tracking any exponent bookkeeping that a real black box
would not have. On Z_p the generator is 1, so a is the residue itself; on the
other backends the handle's own groups.DlogSolver, the package's one private
dlog solver, recovers it on the raw coordinates. The handle owns that solver,
and so its baby table (r*P -> r for r < span): the table is built on the
handle's first probe for span m = isqrt(p - 1) + 1, by the solver's one
loop on the public add, and every later probe of the handle reuses it.
Each later run (attach_ledger) grows it by the same loop, one layer of the
next m multiples, until span reaches KEPT_TABLE_KEYS or p, in the manner of
Bernstein-Lange's tables that grow with the number of dlogs they serve. A
probe runs the group's raw hook _raw_probe from aP with stride -span*P for
at most ceil(p/span) + 1 steps.
That private solver work is deliberately invisible to the caller: the
attached ledger moves by exactly one oracle call per invocation and nothing
else. The handle's solver_steps, the solver's step count, shows it: m - 1
for the baby table, one per multiple a layer adds, u + 1 per probe.

Within one run (from one attach_ledger to the next) the handle remembers what
it has already solved: the exponent of every point it probed and of every
answer it gave. It is keyed only on points the calls carried in or out, never
on the caller's own secrets, so it uses nothing a black box lacks: a point's
exponent is unique, a memo hit returns exactly what a fresh probe would, and
answers, transcripts and ledgers are the same with or without it. In a
reduction the first squaring dh(Q, Q) solves Q, after which every point
implicit_pow hands in is a hit: at most two probes per run, the generator and
Q. attach_ledger forgets the memo, so it never outlives a run and holds at
most three entries per call since the last attach: A, B and the answer. On
Z_p, where the residue is the dlog, the memo stays empty.

Every call answers one way: a and b come from the memo or a probe (on Z_p,
the residues), and the answer is (ab mod p)*P, read off the group's
fixed-base table on the generator (_generator_table(ANSWER_WINDOW), w = 4,
built on first use and kept with the group, which the reduction's w = 4
walks on P share): at most one addition per nonzero signed 4-bit digit of
ab, where a double-and-add by a costs about 1.5 log2 p, and on Z_p the
product itself. It never reaches the ledger.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from .cost import ANSWER_WINDOW
from .groups import (
    ORDER_GUARD,
    CyclicGroup,
    DlogSolver,
    GroupPoint,
    GuardRailError,
    ZpAdditiveGroup,
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
        self._residues = isinstance(group, ZpAdditiveGroup)  # generator 1: the residue is the dlog
        self._solver = DlogSolver(group)  # its table is built on the first memo miss
        self._known: dict[object, int] = {}  # point data -> dlog, for the current run only

    def attach_ledger(self, ledger: CostLedger | None) -> None:
        """Start a new run: charge later calls to ledger (None detaches), forget the memo, grow the table."""
        self.ledger = ledger
        self._known.clear()
        self._solver.grow()

    @property
    def solver_steps(self) -> int:
        """Private solver work: baby steps and layers, then giant probes per memo miss."""
        return self._solver.steps

    def _private_dlog(self, A: GroupPoint) -> int:
        """Exponent of A, off the caller's ledger: the Z_p residue, else the memo or a solver probe."""
        g = self.group
        if self._residues:
            return A.data
        known = self._known.get(A.data)
        if known is not None:
            return known
        a = self._solver.solve(A.data)
        if a is None:
            raise RuntimeError(
                f"oracle dlog failed on order {g.order}: point not generated by the group generator"
            )
        self._known[A.data] = a
        return a

    def dh(self, A: GroupPoint, B: GroupPoint) -> GroupPoint:
        """Return (ab)P for A = aP, B = bP; charges exactly one oracle call."""
        g = self.group
        g._member(A)
        g._member(B)
        ab = self._private_dlog(A) * self._private_dlog(B) % g.order
        # at 2^32 the table has 7 signed rows of 16 and a top row of 17
        result = GroupPoint(g, g._generator_table(ANSWER_WINDOW)(ab))
        if not self._residues:
            self._known[result.data] = ab
        self.call_count += 1
        if self.ledger is not None:
            self.ledger.oracle_calls += 1
        return result
