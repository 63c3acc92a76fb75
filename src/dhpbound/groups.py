"""Prime-order cyclic group backends behind one interface.

Three interchangeable backends: the additive group of Z_p (fast, transparent),
an order-p multiplicative subgroup of F_q^x, and an order-p subgroup of a short
Weierstrass curve over a small prime field. The reduction engine only ever sees
the abstract interface, so a correctness claim established on one backend
transfers to the others by construction.

A GroupPoint is immutable: two slots, group and data, and no __dict__;
equality and hashing are by identity, and eq compares data. add makes one
identity test of both operands' group, calling _member only to raise
GroupMismatchError, and builds its result without running __init__, because
DlogSolver's baby table takes up to 65,536 sums through it; every other
place that makes a point calls GroupPoint(group, data).

No group charges a cost: cost.py prices every operation, reads of the
fixed-base hook _raw_fixed_base included (see its cost convention). The
hook is the one place that turns a base into its multiples k*base: handed
a base's raw data and a window w, it builds its own columns and rows (Z_p
none, since k*base is one product), and the reduction's walks and the
simulated oracle read it. _generator_table keeps the hook's table per w
on the generator for the group's lifetime.

Every baby-step giant-step search keys a point by its canonical data (an
int residue, an (x, y) tuple, or None at infinity), the value eq compares.
encode checks that a GroupPoint belongs to the group and returns that
data: the reduction's walks call it once, on the base each walk is handed,
and key every point they compute by its raw data. There are two searches.
The reduction's, which the ledger bills, is reduction._search. The other
is DlogSolver, the one private dlog solver, which nobody bills: it backs
both brute_force_dlog, with a fresh solver per call, and the simulated
oracle, whose handle owns one solver and so one baby table. The solver
fills that table in one loop on add: its first solve builds m =
isqrt(p - 1) + 1 entries from the identity, m - 1 steps, and the handle
grows it by one layer of m more per run, from the stride, until it spans
KEPT_TABLE_KEYS or p; the loop's last sum gives the new stride. A probe runs
u + 1 of at most ceil(p/span) + 1 giant steps. The giant side runs on the
raw hook _raw_probe: one loop over raw data that stops at the first
stored point, generic on _raw_add and inlined on F_q^x. The table belongs
to the solver, never to the group, so it is freed with its owner.

make_group(backend, p) is the one place that picks a group for (backend,
p). Its ec groups come from the packaged registry data/curves.json, one
record per order: the curves find_ec_group_params finds at 29, 101 and
1009, the toy curve at 16381 and a cofactor-1 curve of order 4293896137
near the 2^32 ceiling. For any other p it searches a curve: each
candidate is screened with one n*P, n the target curve order, and only a
curve that passes is counted in full. Above EC_SEARCH_GUARD it refuses by
name with GuardRailError; the guard stays at 2^14 because its refusals at
16411 and 65537 are part of the tested contract, not because of cost.
"""

from __future__ import annotations

import json
from importlib import resources
from math import isqrt

from .cost import KEPT_TABLE_KEYS, signed_layout
from .modmath import is_prime

ORDER_GUARD = 2**32  # largest group order for brute-force dlog, the oracle and reductions
EC_SEARCH_GUARD = 2**14  # largest p make_group searches a curve for; larger curves ship as records


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
    """A brute-force dlog, oracle or curve search was refused because the order is too large."""


class GroupPoint:
    """Opaque element of one concrete group; compare via the group's eq().

    Immutable, with two slots and no __dict__: group, the instance it belongs
    to, and data, its canonical coordinates (an int residue, an (x, y) tuple,
    or None for the point at infinity). Setting or deleting either raises
    AttributeError. Equality and hashing are by identity; eq compares data.
    """

    __slots__ = ("group", "data")

    group: "CyclicGroup"
    data: object

    def __init__(self, group: "CyclicGroup", data: object):
        _set_group(self, group)
        _set_data(self, data)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of an immutable GroupPoint")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of an immutable GroupPoint")

    def __reduce__(self):
        # copy and pickle rebuild through __init__; their default slot restore would setattr
        return GroupPoint, (self.group, self.data)

    def __repr__(self) -> str:
        return f"<{self.group.backend} point {self.data!r}>"


# the slot descriptors' setters, the only writers of a point's fields, and object.__new__
# under a module name, so that add reaches each of the three with one global lookup
_set_group, _set_data = GroupPoint.group.__set__, GroupPoint.data.__set__
_allocate = object.__new__


class CyclicGroup:
    """Abstract prime-order cyclic group; backends fill in the raw laws."""

    backend: str = "abstract"

    def __init__(self, order: int):
        self.order = order
        self._generator_tables: dict = {}  # window w -> _generator_table(w), built on first use
        self._giant_tables: dict = {}  # (phase, d) -> reduction.GiantTable, kept by reduction._search

    # -- raw laws supplied by the backend (operate on .data) --------------

    def _raw_add(self, a, b):
        raise NotImplementedError

    def _raw_negate(self, a):
        raise NotImplementedError

    def _raw_identity(self):
        raise NotImplementedError

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
        if a.group is not self or b.group is not self:
            self._member(a)
            self._member(b)
        # built without an __init__ frame: DlogSolver's baby table makes up to 65,536 sums
        point = _allocate(GroupPoint)
        _set_group(point, self)
        _set_data(point, self._raw_add(a.data, b.data))
        return point

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
        return GroupPoint(self, self._raw_times(k, a.data))

    def _raw_times(self, k: int, a):
        """Raw k*a for k >= 1 by double-and-add, with no reduction of k mod the order."""
        acc = a
        for i in range(k.bit_length() - 2, -1, -1):
            acc = self._raw_add(acc, acc)
            if (k >> i) & 1:
                acc = self._raw_add(acc, a)
        return acc

    def _signed_rows(self, base, w: int) -> tuple[int, list, list]:
        """(offset, lower, top_row) of cost.signed_layout's table on raw base, built by _raw_add.

        The columns are 2^(wj)*base for j < cols, each past the first w raw
        doublings of the one before. lower[j][i] = i*(column j) for 0 <= i
        <= 2^(w-1), 2^(w-1) - 1 additions per lower column; top_row goes up
        to the top digit of every k < p, at top - 1 additions.
        """
        add, identity = self._raw_add, self._raw_identity()
        cols, offset, top = signed_layout(self.order - 1, w)
        rows, col = [], base
        for size in [1 << (w - 1)] * (cols - 1) + [top]:
            if rows:  # the next column: w doublings of the last
                for _ in range(w):
                    col = add(col, col)
            row = [identity, col]
            for _ in range(size - 1):
                row.append(add(row[-1], col))
            rows.append(row)
        return offset, rows[:-1], rows[-1]

    def _raw_fixed_base(self, base, w: int):
        """Function k -> raw k*base for 0 <= k < p, off a w-bit fixed-base table on raw base.

        The hook is the one place that turns a base into its multiples: it
        builds the table it reads. The table is on k's signed digits
        (cost.signed_layout), over the columns 2^(wj)*base that _signed_rows
        doubles up from base: lower row j is indexed by the raw w-bit digit
        r of k + offset and holds (r - bias)*(column j), bias = 2^(w-1) - 1,
        so a reader does no arithmetic on a digit. The generic path builds
        the multiples up to 2^(w-1) with _signed_rows and their negatives
        with _raw_negate, which is not a group operation; the top column's
        row stops at the top digit. It sums one entry per nonzero signed
        digit of k. F_q^x reads the same rows with the group law inlined and
        builds their negative half from one inversion per column; Z_p, whose
        scalar multiplication is one machine operation, returns that product
        instead and builds nothing.
        """
        add, identity, mask, bias = self._raw_add, self._raw_identity(), (1 << w) - 1, (1 << (w - 1)) - 1
        offset, lower, top = self._signed_rows(base, w)
        rows = [[self._raw_negate(entry) for entry in row[-2:0:-1]] + row for row in lower]

        def times(k):
            k += offset
            acc = identity
            for row in rows:
                r = k & mask
                if r != bias:
                    acc = add(acc, row[r])
                k >>= w
            return add(acc, top[k]) if k else acc

        return times

    def _generator_table(self, w: int):
        """Function k -> raw k*generator for 0 <= k < p: _raw_fixed_base on the generator, kept per w.

        The first call for a w builds the hook's table on the generator's
        data; later calls return the same function.
        """
        times = self._generator_tables.get(w)
        if times is None:
            times = self._generator_tables[w] = self._raw_fixed_base(self.generator.data, w)
        return times

    def _raw_probe(self, table: dict, start, stride, steps: int):
        """(u, table[key]) for the first u < steps whose key start + u*stride is in table, else None.

        The raw giant side of a baby-step giant-step search: it visits start,
        start + stride, ... by _raw_add, one addition between lookups and none
        after the hit. F_q^x inlines its group law.
        """
        add, point = self._raw_add, start
        for u in range(steps):
            if point in table:
                return u, table[point]
            point = add(point, stride)
        return None

    def encode(self, a: GroupPoint):
        """a's table key: its canonical data, the hashable value eq compares."""
        self._member(a)
        return a.data


class ZpAdditiveGroup(CyclicGroup):
    """Integers mod p under addition; generator 1. The transparent test backend."""

    backend = "zp-additive"

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

    def _raw_fixed_base(self, base, w: int):
        p = self.order
        return lambda k: k * base % p


class MultSubgroup(CyclicGroup):
    """Order-p subgroup of F_q^x, written additively: add is modular multiplication."""

    backend = "fq-mult-subgroup"

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

    def _raw_fixed_base(self, base, w: int):
        # the billed table read with the group law inlined, because the
        # generic path's per-digit _raw_add calls slow the short walks at
        # p ~ 1009: _signed_rows' rows, each lower one's negative half from
        # one inversion of its last entry, and entry bias is 1, so no digit
        # branches
        q, mask = self.q, (1 << w) - 1
        offset, lower, top = self._signed_rows(base, w)
        inverses = [pow(row[-1], -1, q) for row in lower]  # (column j)^-(2^(w-1))
        rows = [[inv * entry % q for entry in row[1:-1]] + row for row, inv in zip(lower, inverses)]

        def times(k):
            k += offset
            acc = 1
            for row in rows:
                acc = acc * row[k & mask] % q
                k >>= w
            return acc * top[k] % q

        return times

    def _raw_probe(self, table: dict, start, stride, steps: int):
        # the generic loop with a * stride % q inlined, which the simulated
        # oracle runs for up to sqrt(p) steps on every point it solves
        q, a = self.q, start
        for u in range(steps):
            if a in table:
                return u, table[a]
            a = a * stride % q
        return None


class EcGroup(CyclicGroup):
    """Order-p subgroup of y^2 = x^3 + Ax + B over F_q, affine chord-and-tangent."""

    backend = "ec-weierstrass"

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
    if group._raw_times(p, group.generator.data) is not None:
        raise WrongOrderError(f"({gx}, {gy}) does not have order {p}")
    return group


class DlogSolver:
    """Baby-step giant-step dlog to the base of the group's generator P: the one private solver.

    table maps (r*P).data to r for r < span; stride is the raw data of
    -span*P. One loop, _extend, adds the multiples r*P for span <= r < end
    by the public add, bound once before the loop, and takes the new stride
    from its last sum: the first solve builds span = m = isqrt(p - 1) + 1
    from the identity, and each grow adds one layer, the next m multiples,
    capped at r < p, while span is below KEPT_TABLE_KEYS and below p; since
    r*P for r < p are distinct, each is stored by plain assignment. A solve
    runs the group's _raw_probe from the point for at most ceil(p/span) + 1
    steps, and the first stored point u*span + r gives its dlog. steps
    counts the work: m - 1 for the build, one per multiple a layer adds,
    then u + 1 per solve that finds its point.
    """

    def __init__(self, group: CyclicGroup):
        self.group, self.layer = group, isqrt(group.order - 1) + 1  # layer is m
        self.table: dict[object, int] | None = None
        self.span, self.stride, self.steps = 0, group._raw_identity(), 0

    def _extend(self, end: int) -> None:
        """Store r*P for span <= r < end, stepping by the public add from -stride = span*P."""
        g, span, table = self.group, self.span, self.table
        add, generator, point = g.add, g.generator, GroupPoint(g, g._raw_negate(self.stride))
        for r in range(span, end):
            table[point.data] = r
            point = add(point, generator)
        self.span, self.stride = end, g._raw_negate(point.data)
        self.steps += end - max(span, 1)  # the multiples past the identity

    def grow(self) -> None:
        """Add one layer to a built table, unless span has reached KEPT_TABLE_KEYS or p."""
        span, order = self.span, self.group.order
        if self.table is not None and span < KEPT_TABLE_KEYS and span < order:
            self._extend(min(span + self.layer, order))

    def solve(self, raw) -> int | None:
        """x in [0, p-1] with x*P of data raw, or None when no giant step meets the table."""
        g = self.group
        if self.table is None:
            self.table = {}
            self._extend(self.layer)
        span = self.span
        hit = g._raw_probe(self.table, raw, self.stride, -(-g.order // span) + 1)
        if hit is None:
            return None
        self.steps += hit[0] + 1
        return (hit[0] * span + hit[1]) % g.order


def brute_force_dlog(g: CyclicGroup, Q: GroupPoint) -> int:
    """x in [0, p-1] with x*generator = Q, by a fresh DlogSolver; refuses orders above 2^32."""
    g._member(Q)
    if g.order > ORDER_GUARD:
        raise GuardRailError(f"order {g.order} exceeds the brute-force guard {ORDER_GUARD}")
    x = DlogSolver(g).solve(Q.data)
    if x is None:
        raise RuntimeError(f"BSGS failed on order {g.order}: generator does not generate Q")
    return x


def find_ec_group_params(
    p: int, cofactors: tuple[int, ...] = (1, 2, 3, 4, 5, 6, 7, 8)
) -> tuple[int, int, int, int, int, int]:
    """Deterministically search for curve parameters with an order-p subgroup.

    Tries the given cofactors h in order, looking for a prime field size q
    admitting a curve of order exactly n = h*p, then scales the first
    rational point down to the order-p subgroup. Returns (q, A, B, Gx, Gy, p).
    Each candidate is first screened with one n*P on its first affine point,
    O(log q) group operations: a curve of order n sends every point to
    infinity, so the screen never rejects one. Only a curve that passes is
    counted in full, linear in q, and the count decides; in practice only
    the curve returned gets that far. The first curve accepted is the one an
    exhaustive count of every candidate would accept.
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
                    group = EcGroup(q, a, b, 0, 1, p)  # placeholder generator
                    # screen: n*P is at infinity for every point P of a curve of order n
                    # (Lagrange), so one n*P on the first affine point, which exists for
                    # q >= 5 by Hasse, rejects most candidates in O(log q) operations
                    x = next(x for x in range(q) if (x * x * x + a * x + b) % q in roots)
                    if group._raw_times(n, (x, roots[(x * x * x + a * x + b) % q])) is not None:
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
                    for x in range(q):
                        rhs = (x * x * x + a * x + b) % q
                        y = roots.get(rhs)
                        if y is None and rhs != 0:
                            continue
                        # raw h*P: scalar_mul would reduce h mod p, wrong for a cofactor h >= p
                        g_sub = group._raw_times(h, (x, 0 if rhs == 0 else y))
                        if g_sub is None:
                            continue
                        gx, gy = g_sub
                        return q, a, b, gx, gy, p
    raise RuntimeError(f"no toy curve found for p={p} with cofactors {cofactors}")


def curve_records() -> list[dict]:
    """The packaged curve registry: per record p, q, A, B, Gx, Gy and a note on how it was found."""
    return json.loads(resources.files("dhpbound.data").joinpath("curves.json").read_text())["curves"]


def make_group(backend: str, p: int) -> CyclicGroup:
    """The order-p group on backend "zp", "mult" or "ec": the one place a (backend, p) picks a group.

    zp is the additive group of Z_p and mult find_mult_subgroup's subgroup.
    ec builds the registry's curve of order p when one ships, checked by
    make_ec_group; otherwise it searches one with find_ec_group_params, which
    is refused by name above EC_SEARCH_GUARD.
    """
    if backend == "zp":
        return make_zp_additive(p)
    if backend == "mult":
        return find_mult_subgroup(p)
    if backend != "ec":
        raise ValueError(f"unknown backend {backend!r}")
    for rec in curve_records():
        if rec["p"] == p:
            return make_ec_group(rec["q"], rec["A"], rec["B"], rec["Gx"], rec["Gy"], p)
    if p > EC_SEARCH_GUARD:
        raise GuardRailError(
            f"ec backend searches a curve by point counting, capped at p <= {EC_SEARCH_GUARD}; "
            f"use --backend zp or mult for p={p}"
        )
    return make_ec_group(*find_ec_group_params(p))


def load_toy_curve() -> EcGroup:
    """The registry's toy curve, of order 16381."""
    return make_group("ec", 16381)
