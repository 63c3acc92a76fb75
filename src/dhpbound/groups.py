"""Prime-order cyclic group backends behind one interface.

Three interchangeable backends: the additive group of Z_p (fast, transparent),
an order-p multiplicative subgroup of F_q^x, and an order-p subgroup of a short
Weierstrass curve over a small prime field. The reduction engine only ever sees
the abstract interface, so a correctness claim established on one backend
transfers to the others by construction.

Cost convention: one "group operation" is one point addition or doubling.
scalar_mul_cost(k) is the double-and-add operation count charged for a scalar
multiplication by k, even on backends where the whole product is a single
machine operation; this keeps instrumentation comparable across backends.
The fixed-base hook (_raw_fixed_base) follows the same rule: a caller bills
what the generic windowed path performs -- the table, then one addition per
nonzero window digit of k past the first. F_q^x and EC build and read that
table; only Z_p hands back its one-operation product and builds none.

Baby-step giant-step runs on key iterators, one lazy key per point a side
visits: bsgs_table pulls the keys it stores, bsgs_probe one per giant step
and none after an accepted match, so a walk billed per pull pays for exactly
the points used. orbit is the raw walk behind the simulated oracle.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from importlib import resources
from math import isqrt

from .modmath import is_prime

ORDER_GUARD = 2**32  # largest group order for brute-force dlog, the oracle and reductions


class GroupConstructionError(ValueError):
    """Base for all named group-construction failures."""


class InvalidOrderError(GroupConstructionError):
    """A modulus or order that must be prime is not."""


class IncompatibleParametersError(GroupConstructionError):
    """Subgroup order does not divide the ambient group order."""


class BadGeneratorError(GroupConstructionError):
    """Proposed seed element generates the trivial subgroup."""


class SingularCurveError(GroupConstructionError):
    """Curve discriminant vanishes."""


class OffCurveError(GroupConstructionError):
    """Declared base point does not satisfy the curve equation."""


class WrongOrderError(GroupConstructionError):
    """Declared base point does not have the declared prime order."""


class GroupMismatchError(ValueError):
    """Operands from two different group instances were mixed."""


class GuardRailError(RuntimeError):
    """A brute-force computation was refused because the group is too large."""


@dataclass(frozen=True, eq=False, init=False)
class GroupPoint:
    """Opaque element of one concrete group; compare via the group's eq()."""

    group: "CyclicGroup"
    data: object  # int residue, (x, y) tuple, or None for the point at infinity

    def __init__(self, group: "CyclicGroup", data: object):
        # straight into the instance dict: the frozen __setattr__ path costs
        # about a third of each construction, and every walk point makes one
        fields = self.__dict__
        fields["group"] = group
        fields["data"] = data

    def __repr__(self) -> str:
        return f"<{self.group.backend} point {self.data!r}>"


def scalar_mul_cost(k: int) -> int:
    """Double-and-add operation count for scalar k: floor(log2 k) + popcount(k) - 1.

    Zero for k in {0, 1} (no additions or doublings needed). Always at most
    2*ceil(log2 k) for k >= 2.
    """
    if k < 0:
        raise ValueError(f"negative scalar {k}")
    if k <= 1:
        return 0
    return (k.bit_length() - 1) + k.bit_count() - 1


class CyclicGroup:
    """Abstract prime-order cyclic group; backends fill in the raw laws."""

    backend: str = "abstract"

    def __init__(self, order: int):
        self.order = order
        self._generator_tables: dict = {}  # window w -> _raw_fixed_base on the generator, reused across runs
        # phase-1 divisor d -> (giant stride g, encoded keys of g^u * generator
        # for u = 1, 2, ..., as far as a run has probed): at most one sequence
        # per d, never longer than its walk, replaced when a run's generator
        # gives another stride. Runs read their giant keys from it; the ledger
        # still bills every point and table as if it were recomputed.
        self._giant_keys: dict = {}

    # -- raw laws supplied by the backend (operate on .data) --------------

    def _raw_add(self, a, b):
        raise NotImplementedError

    def _raw_negate(self, a):
        raise NotImplementedError

    def _raw_identity(self):
        raise NotImplementedError

    def _coord_bytes(self, a) -> bytes:
        raise NotImplementedError

    _tag: int = 0

    # -- public interface --------------------------------------------------

    @property
    def identity(self) -> GroupPoint:
        return GroupPoint(self, self._raw_identity())

    def _member(self, pt: GroupPoint) -> None:
        if pt.group is not self:
            raise GroupMismatchError(
                f"point from backend {pt.group.backend!r} used in {self.backend!r} group"
            )

    def add(self, a: GroupPoint, b: GroupPoint) -> GroupPoint:
        self._member(a)
        self._member(b)
        return GroupPoint(self, self._raw_add(a.data, b.data))

    def negate(self, a: GroupPoint) -> GroupPoint:
        self._member(a)
        return GroupPoint(self, self._raw_negate(a.data))

    def eq(self, a: GroupPoint, b: GroupPoint) -> bool:
        self._member(a)
        self._member(b)
        return a.data == b.data  # all backends keep canonical coordinates

    def scalar_mul(self, k: int, a: GroupPoint) -> GroupPoint:
        """k-fold sum of a, most-significant-bit-first double-and-add."""
        self._member(a)
        if k < 0:
            raise ValueError(f"negative scalar {k}")
        k %= self.order
        if k == 0:
            return self.identity
        acc = a.data
        for i in range(k.bit_length() - 2, -1, -1):
            acc = self._raw_add(acc, acc)
            if (k >> i) & 1:
                acc = self._raw_add(acc, a.data)
        return GroupPoint(self, acc)

    def _raw_fixed_base(self, columns: list, w: int):
        """Function k -> raw k*base for 0 < k < 2^(w*len(columns)), given columns[j] = raw 2^(wj)*base.

        The generic path builds rows[j][i] = i*columns[j] for i < 2^w, with
        2^w - 2 additions per row, and sums one entry per nonzero w-bit digit
        of k. F_q^x builds the same rows with the group law inlined; Z_p,
        whose scalar multiplication is one machine operation, returns that
        product instead and builds nothing.
        """
        add, identity, mask = self._raw_add, self._raw_identity(), (1 << w) - 1
        rows = []
        for col in columns:
            row = [identity, col]
            for _ in range(mask - 1):
                row.append(add(row[-1], col))
            rows.append(row)

        def times(k):
            acc = identity
            for row in rows:
                if k & mask:
                    acc = add(acc, row[k & mask])
                k >>= w
            return acc

        return times

    def encode(self, a: GroupPoint) -> bytes:
        """Canonical injective byte encoding: tag, identity flag, padded coordinates."""
        self._member(a)
        if a.data == self._raw_identity():
            return bytes([self._tag, 1]) + b"\x00" * self._width
        return self._point_prefix + self._coord_bytes(a.data)

    @functools.cached_property
    def _point_prefix(self) -> bytes:
        return bytes([self._tag, 0])

    @functools.cached_property
    def _width(self) -> int:
        return self._coord_width()

    def _coord_width(self) -> int:
        raise NotImplementedError


class ZpAdditiveGroup(CyclicGroup):
    """Integers mod p under addition; generator 1. The transparent test backend."""

    backend = "zp-additive"
    _tag = 0x01

    def __init__(self, p: int):
        super().__init__(p)
        self.generator = GroupPoint(self, 1 % p)

    def _raw_add(self, a, b):
        return (a + b) % self.order

    def _raw_negate(self, a):
        return -a % self.order

    def _raw_identity(self):
        return 0

    def scalar_mul(self, k: int, a: GroupPoint) -> GroupPoint:
        self._member(a)
        if k < 0:
            raise ValueError(f"negative scalar {k}")
        return GroupPoint(self, k * a.data % self.order)

    def _raw_fixed_base(self, columns: list, w: int):
        base, p = columns[0], self.order
        return lambda k: k * base % p

    def _coord_width(self) -> int:
        return (self.order.bit_length() + 7) // 8

    def _coord_bytes(self, a) -> bytes:
        return a.to_bytes(self._width, "big")


class MultSubgroup(CyclicGroup):
    """Order-p subgroup of F_q^x, written additively: add is modular multiplication."""

    backend = "fq-mult-subgroup"
    _tag = 0x02

    def __init__(self, q: int, p: int, g: int):
        super().__init__(p)
        self.q = q
        self.generator = GroupPoint(self, g)

    def _raw_add(self, a, b):
        return a * b % self.q

    def _raw_negate(self, a):
        return pow(a, self.q - 2, self.q)

    def _raw_identity(self):
        return 1

    def scalar_mul(self, k: int, a: GroupPoint) -> GroupPoint:
        self._member(a)
        if k < 0:
            raise ValueError(f"negative scalar {k}")
        return GroupPoint(self, pow(a.data, k, self.q))

    def _raw_fixed_base(self, columns: list, w: int):
        # the billed table with the group law inlined, because the generic
        # path's per-digit _raw_add calls slow the short walks at p ~ 1009:
        # rows[j][i] = columns[j]^i mod q, and entry 0 is 1, so no digit branches
        q, mask = self.q, (1 << w) - 1
        rows = []
        for col in columns:
            row = [1, col]
            for _ in range(mask - 1):
                row.append(row[-1] * col % q)
            rows.append(row)

        def times(k):
            acc = 1
            for row in rows:
                acc = acc * row[k & mask] % q
                k >>= w
            return acc

        return times

    def _coord_width(self) -> int:
        return (self.q.bit_length() + 7) // 8

    def _coord_bytes(self, a) -> bytes:
        return a.to_bytes(self._width, "big")


class EcGroup(CyclicGroup):
    """Order-p subgroup of y^2 = x^3 + Ax + B over F_q, affine chord-and-tangent."""

    backend = "ec-weierstrass"
    _tag = 0x03

    def __init__(self, q: int, a: int, b: int, gx: int, gy: int, p: int):
        super().__init__(p)
        self.q = q
        self.curve_a = a % q
        self.curve_b = b % q
        self.generator = GroupPoint(self, (gx % q, gy % q))

    def on_curve(self, pt: GroupPoint) -> bool:
        self._member(pt)
        if pt.data is None:
            return True
        x, y = pt.data
        return (y * y - (x * x * x + self.curve_a * x + self.curve_b)) % self.q == 0

    def _raw_add(self, a, b):
        if a is None:
            return b
        if b is None:
            return a
        q = self.q
        x1, y1 = a
        x2, y2 = b
        if x1 == x2:
            if (y1 + y2) % q == 0:
                return None  # vertical chord: inverse points
            # tangent slope; inverse exists since y1 != 0 here (else inverse case above)
            lam = (3 * x1 * x1 + self.curve_a) * pow(2 * y1, -1, q) % q
        else:
            lam = (y2 - y1) * pow(x2 - x1, -1, q) % q
        x3 = (lam * lam - x1 - x2) % q
        y3 = (lam * (x1 - x3) - y1) % q
        return (x3, y3)

    def _raw_negate(self, a):
        if a is None:
            return None
        x, y = a
        return (x, -y % self.q)

    def _raw_identity(self):
        return None

    def _coord_width(self) -> int:
        return 2 * ((self.q.bit_length() + 7) // 8)

    def _coord_bytes(self, a) -> bytes:
        w = self._width // 2
        x, y = a
        return x.to_bytes(w, "big") + y.to_bytes(w, "big")


def make_zp_additive(p: int) -> ZpAdditiveGroup:
    """Additive group of Z_p for prime p."""
    if not is_prime(p):
        raise InvalidOrderError(f"{p} is not prime")
    return ZpAdditiveGroup(p)


def make_mult_subgroup(q: int, p: int, h: int) -> MultSubgroup:
    """Order-p subgroup of F_q^x generated by h^((q-1)/p).

    Requires q and p prime with p | q-1, and h not in the index-p power residue
    kernel (i.e. h^((q-1)/p) != 1).
    """
    if not is_prime(q):
        raise InvalidOrderError(f"field size {q} is not prime")
    if not is_prime(p):
        raise InvalidOrderError(f"subgroup order {p} is not prime")
    if (q - 1) % p != 0:
        raise IncompatibleParametersError(f"{p} does not divide {q}-1")
    g = pow(h % q, (q - 1) // p, q)
    if g == 1:
        raise BadGeneratorError(f"h={h} lands in the trivial subgroup (h^((q-1)/p) = 1)")
    return MultSubgroup(q, p, g)


def find_mult_subgroup(p: int) -> MultSubgroup:
    """Order-p subgroup of F_q^x: first prime q = 2kp + 1, first h >= 2 with h^((q-1)/p) != 1."""
    if not is_prime(p):
        raise InvalidOrderError(f"subgroup order {p} is not prime")
    q = 2 * p + 1
    while not is_prime(q):
        q += 2 * p
    h = 2
    while pow(h, (q - 1) // p, q) == 1:
        h += 1
    return make_mult_subgroup(q, p, h)


def make_ec_group(q: int, a: int, b: int, gx: int, gy: int, p: int) -> EcGroup:
    """Order-p subgroup of the curve y^2 = x^3 + ax + b over F_q, generated by (gx, gy)."""
    if not is_prime(q) or q <= 3:
        raise InvalidOrderError(f"field size {q} is not an odd prime > 3")
    if (4 * a * a * a + 27 * b * b) % q == 0:
        raise SingularCurveError(f"discriminant vanishes for a={a}, b={b} mod {q}")
    if not is_prime(p):
        raise InvalidOrderError(f"subgroup order {p} is not prime")
    group = EcGroup(q, a, b, gx, gy, p)
    if not group.on_curve(group.generator):
        raise OffCurveError(f"({gx}, {gy}) is not on the curve")
    # verify order without scalar_mul, whose mod-order reduction assumes what
    # is being checked here
    acc = group.generator.data
    for i in range(p.bit_length() - 2, -1, -1):
        acc = group._raw_add(acc, acc)
        if (p >> i) & 1:
            acc = group._raw_add(acc, group.generator.data)
    if group.generator.data is None or acc is not None:
        raise WrongOrderError(f"({gx}, {gy}) does not have order {p}")
    return group


def brute_force_dlog(g: CyclicGroup, Q: GroupPoint) -> int:
    """x in [0, p-1] with x*generator = Q, by baby-step giant-step.

    Independent check oracle for tests; refuses orders above 2^32. This is a
    one-shot solver (table rebuilt per call); the simulated DH oracle keeps its
    own cached solver.
    """
    g._member(Q)
    if g.order > ORDER_GUARD:
        raise GuardRailError(f"order {g.order} exceeds the brute-force guard {ORDER_GUARD}")
    if g.eq(Q, g.identity):
        return 0
    m = isqrt(g.order - 1) + 1
    table = {}
    step = g.identity
    for r in range(m):  # table: r*P -> r
        table.setdefault(g.encode(step), r)
        step = g.add(step, g.generator)
    giant = g.negate(g.scalar_mul(m, g.generator))  # -m*P
    probe = Q
    for i in range(m + 1):
        r = table.get(g.encode(probe))
        if r is not None:
            return (i * m + r) % g.order
        probe = g.add(probe, giant)
    raise RuntimeError(f"BSGS failed on order {g.order}: generator does not generate Q")


def orbit(add, point, stride):
    """point, add(point, stride), ... lazily: n pulls make n - 1 additions."""
    while True:
        yield point
        point = add(point, stride)


def bsgs_table(keys, size: int) -> dict:
    """Baby steps: the v-th key -> v for v < size, smallest v kept; pulls exactly size keys."""
    table = {}
    for v, key in zip(range(size), keys):  # range first: zip stops before pulling key size + 1
        table.setdefault(key, v)
    return table


def bsgs_probe(table, keys, us, accept):
    """Giant steps: the first (u, v) with table[key at u] = v and accept(u, v), or None.

    keys yields the giant side's key at us[0], us[1], ...; one is pulled per u,
    and none after an accepted match or past the last u.
    """
    for u, key in zip(us, keys):  # us first: a miss pulls exactly len(us) keys
        v = table.get(key)
        if v is not None and accept(u, v):
            return u, v
    return None


def find_ec_group_params(
    p: int, cofactors: tuple[int, ...] = (1, 2, 3, 4, 5, 6, 7, 8)
) -> tuple[int, int, int, int, int, int]:
    """Deterministically search for curve parameters with an order-p subgroup.

    Tries the given cofactors h in order, looking for a prime field size q
    admitting a curve of order exactly h*p (exhaustive point count per
    candidate), then scales the first rational point down to the order-p
    subgroup. Returns (q, A, B, Gx, Gy, p). Intended for desk-scale p; the
    point count is linear in q per candidate curve.
    """
    if not is_prime(p) or p <= 3:
        raise InvalidOrderError(f"subgroup order {p} must be a prime > 3")
    for h in cofactors:
        n = h * p  # target curve order; Hasse: |q + 1 - n| <= 2 sqrt(q)
        q_lo, q_hi = n - 2 * isqrt(n) - 1, n + 2 * isqrt(n) + 1
        for q in range(max(q_lo, 5), q_hi + 1):
            if not is_prime(q) or abs(q + 1 - n) > 2 * isqrt(q):
                continue
            # value -> one square root, for both counting and point construction
            roots = {}
            for y in range(q // 2 + 1):
                roots.setdefault(y * y % q, y)
            for a in range(0, min(q, 32)):
                for b in range(1, min(q, 64)):
                    if (4 * a * a * a + 27 * b * b) % q == 0:
                        continue
                    count = 1  # point at infinity
                    for x in range(q):
                        rhs = (x * x * x + a * x + b) % q
                        if rhs == 0:
                            count += 1
                        elif rhs in roots:
                            count += 2
                    if count != n:
                        continue
                    group = EcGroup(q, a, b, 0, 1, p)  # placeholder generator
                    for x in range(q):
                        rhs = (x * x * x + a * x + b) % q
                        y = roots.get(rhs)
                        if y is None and rhs != 0:
                            continue
                        pt = GroupPoint(group, (x, 0 if rhs == 0 else y))
                        g_sub = group.scalar_mul(h, pt)
                        if g_sub.data is None:
                            continue
                        gx, gy = g_sub.data
                        return q, a, b, gx, gy, p
    raise RuntimeError(f"no toy curve found for p={p} with cofactors {cofactors}")


def load_toy_curve(path: str | None = None) -> EcGroup:
    """Construct the shipped (or a given) toy-curve fixture as an EC backend."""
    if path is None:
        text = resources.files("dhpbound.data").joinpath("toy_curve.json").read_text()
    else:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    data = json.loads(text)
    return make_ec_group(
        int(data["q"]), int(data["A"]), int(data["B"]),
        int(data["Gx"]), int(data["Gy"]), int(data["p"]),
    )
