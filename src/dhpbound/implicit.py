"""Field arithmetic on implicitly represented elements of F_p.

An element y of F_p is held only as its image yP in a group of prime order p.
Linear operations (equality, add, subtract, scalar) need group operations
alone; multiplication needs one DH-oracle call, and inversion and powering
spend one call per squaring and one per set exponent bit.

Call-counting convention for powering (fixed, and load-bearing for the bound
tables): bits of the exponent are processed most significant first, the
accumulator starts at image(1), the squaring on the first bit is skipped, and
every squaring and every set bit -- the leading one included -- costs one
call. Total calls for exponent e: floor(log2 e) + popcount(e), which
cost.oracle_calls_exact gives (as 0 for e = 1, which a reduction skips). This is
the unique convention reproducing the published per-curve oracle-call
counts, and it exceeds the rounder 2*floor(log2 e) estimate by one exactly
when the exponent is all ones in binary; that case is flagged with a
warning, not an error.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

from .cost import oracle_calls_exact, scalar_mul_cost
from .groups import CyclicGroup, GroupPoint
from .oracle import CostLedger, OracleHandle


class NonInvertibleError(ValueError):
    """Inversion of the implicit representation of zero."""


class PowCallBoundWarning(UserWarning):
    """Exact oracle-call count exceeds 2*floor(log2 e): all-ones exponent shape."""


@dataclass(frozen=True, eq=False, init=False)
class ImplicitFieldElement:
    """The value y in F_p, held as its image yP."""

    image: GroupPoint

    def __init__(self, image: GroupPoint):
        self.__dict__["image"] = image  # skip the frozen __setattr__

    @property
    def group(self) -> CyclicGroup:
        return self.image.group


def embed(group: CyclicGroup, y: int) -> ImplicitFieldElement:
    """Implicit representation of y (reduced mod p). Setup helper, not charged."""
    return ImplicitFieldElement(group.scalar_mul(y % group.order, group.generator))


def implicit_eq(a: ImplicitFieldElement, b: ImplicitFieldElement) -> bool:
    """y == z iff yP == zP; free of oracle calls."""
    return a.group.eq(a.image, b.image)


def implicit_add(
    a: ImplicitFieldElement, b: ImplicitFieldElement, ledger: CostLedger | None = None
) -> ImplicitFieldElement:
    """(y+z)P = yP + zP; one group operation."""
    out = a.group.add(a.image, b.image)
    if ledger is not None:
        ledger.charge_group_ops(1)
    return ImplicitFieldElement(out)


def implicit_scalar(
    c: int, a: ImplicitFieldElement, ledger: CostLedger | None = None
) -> ImplicitFieldElement:
    """(c*y)P = c*(yP) for an explicitly known constant c < p; double-and-add cost."""
    group = a.image.group
    if not 0 <= c < group.order:
        raise ValueError(f"scalar {c} outside [0, {group.order - 1}]")
    out = group.scalar_mul(c, a.image)
    if ledger is not None:
        ledger.charge_group_ops(scalar_mul_cost(c))
    return ImplicitFieldElement(out)


def implicit_sub(
    a: ImplicitFieldElement, b: ImplicitFieldElement, ledger: CostLedger | None = None
) -> ImplicitFieldElement:
    """(y-z)P = yP + (p-1)*(zP); negation via scalar keeps the cost O(log p)."""
    neg_b = implicit_scalar(a.group.order - 1, b, ledger)
    return implicit_add(a, neg_b, ledger)


def implicit_mul(
    o: OracleHandle, a: ImplicitFieldElement, b: ImplicitFieldElement
) -> ImplicitFieldElement:
    """(y*z)P by one oracle call."""
    return ImplicitFieldElement(o.dh(a.image, b.image))


def implicit_pow(o: OracleHandle, a: ImplicitFieldElement, e: int) -> ImplicitFieldElement:
    """(y**e)P by square-and-multiply; exactly floor(log2 e) + popcount(e) calls."""
    if e < 1:
        raise ValueError(f"exponent {e}: powering is defined for e >= 1 (e = 0 must be special-cased by the caller)")
    if e.bit_count() > e.bit_length() - 1:
        warnings.warn(
            f"exponent {e} is all ones in binary: exact call count "
            f"{oracle_calls_exact(e) or 1} exceeds 2*floor(log2 e) = {2 * (e.bit_length() - 1)}",
            PowCallBoundWarning,
            stacklevel=2,
        )
    group = a.group
    acc = embed(group, 1)
    for i in range(e.bit_length() - 1, -1, -1):
        if i != e.bit_length() - 1:
            acc = implicit_mul(o, acc, acc)
        if (e >> i) & 1:
            acc = implicit_mul(o, acc, a)
    return acc


def implicit_inv(o: OracleHandle, a: ImplicitFieldElement) -> ImplicitFieldElement:
    """(y**-1)P as y**(p-2), p prime; fails on the image of zero."""
    group = a.group
    if group.eq(a.image, group.identity):
        raise NonInvertibleError("cannot invert the implicit representation of 0")
    return implicit_pow(o, a, group.order - 2)
