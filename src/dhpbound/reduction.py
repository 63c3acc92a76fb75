"""Discrete-log recovery from a DH oracle, for any divisor d of p-1.

Given Q = xP in a group of prime order p, a DH oracle, and a divisor d of
p-1, the engine recovers x with exactly floor(log2 d) + popcount(d) oracle
calls (zero when d = 1) plus a bounded number of plain group operations:

1. Pick a generator zeta0 of F_p^x and set zeta = zeta0^d, which generates
   the index-d subgroup of order m = (p-1)/d.
2. Compute the image of x^d by square-and-multiply on the implicit element
   (this is the only oracle consumption), then find j in [1, m] with
   x^d = zeta^j by a baby-step giant-step walk in the implicit field --
   writing j = u1*d1 - v1 with d1 = isqrt(m).
3. Writing x = zeta0^(m*t + j) for t in [0, d), find t by a second walk
   driven by powers of zeta0^m, t = u2*s2 - v2 with s2 = isqrt(d). Every
   scaling here is by an explicitly known field constant, so this phase is
   oracle-free.
4. Recombine: i0 = m*t + j, x = zeta0^i0 mod p, verified against Q before
   returning.

All group operations go through the implicit-arithmetic layer so the ledger
records the double-and-add cost of every step; the final verification is a
self-check, not part of the algorithm, and is left off the books.
"""

from __future__ import annotations

import math
import random
from dataclasses import asdict, dataclass

from .groups import CyclicGroup, GroupPoint, bsgs_probe, bsgs_table
from .implicit import ImplicitFieldElement, embed, implicit_pow, implicit_scalar
from .modmath import Factorization, IncompleteFactorizationError, factorize
from .oracle import CostLedger, OracleHandle


class ZeroDlogError(ValueError):
    """Q is the identity: x = 0 is outside the x in [1, p-1] contract."""


class InvalidDivisorError(ValueError):
    """The requested d does not divide p-1."""


class ImprobableFailureError(RuntimeError):
    """Generator sampling failed far beyond its probabilistic budget."""


class InternalInconsistencyError(RuntimeError):
    """A BSGS sweep that must succeed did not, or the recovered x failed verification."""


@dataclass(frozen=True)
class ReductionParams:
    """Derived constants for one run: divisor split, step sizes, generator powers."""

    d: int
    d1: int  # isqrt((p-1)/d), phase-1 step size
    s2: int  # isqrt(d), phase-2 step size
    zeta0: int  # generator of F_p^x
    zeta: int  # zeta0^d mod p, generates the order-m subgroup
    seed: int


@dataclass
class ReductionTranscript:
    """Everything one run produced: matches from both phases, the answer, the bill."""

    p: int
    backend: str
    j: int
    u1: int
    v1: int
    t: int
    u2: int
    v2: int
    i0: int
    x: int
    ledger: CostLedger
    params: ReductionParams

    def to_dict(self) -> dict:
        return asdict(self)  # ledger and params become nested dicts


def generator_try_budget(p: int) -> int:
    """Sampling attempts allowed before declaring improbable failure."""
    return 512 * max(1, math.ceil(6 * math.log(math.log(p - 1))))


def find_generator(
    p: int, factors_of_p_minus_1: Factorization, seed: int, stats: dict | None = None
) -> int:
    """Uniformly sampled generator of F_p^x, deterministic for a given seed.

    A candidate c generates iff c^((p-1)/q) != 1 for every prime q | p-1. The
    generator density exceeds 1/(6 ln ln(p-1)), so the fixed try budget fails
    only with negligible probability on valid inputs. When a stats dict is
    supplied, the number of candidates examined is accumulated under
    "candidates" (one entry per sampled c, accepted or not).
    """
    if not factors_of_p_minus_1.complete:
        raise IncompleteFactorizationError("generator search needs p-1 fully factored")
    if p < 3:
        raise ValueError(f"p must be a prime >= 3, got {p}")
    if p == 3:
        if stats is not None:
            stats["candidates"] = stats.get("candidates", 0) + 1
        return 2  # the only generator, and the sampling range [2, p-2] is empty
    prime_cofactors = [(p - 1) // q for q in factors_of_p_minus_1.primes()]
    rng = random.Random(seed)
    budget = generator_try_budget(p)
    for _ in range(budget):
        c = rng.randrange(2, p - 1)
        if stats is not None:
            stats["candidates"] = stats.get("candidates", 0) + 1
        if all(pow(c, e, p) != 1 for e in prime_cofactors):
            return c
    raise ImprobableFailureError(
        f"no generator of F_{p}^x in {budget} samples: p composite or factorization wrong"
    )


def _walk(group: CyclicGroup, ledger: CostLedger | None):
    """Key and step of a BSGS walk on implicit elements; every step is charged to ledger."""
    return (lambda e: group.encode(e.image)), (lambda e, c: implicit_scalar(c, e, ledger))


def phase1_find_j(
    group: CyclicGroup,
    oracle: OracleHandle,
    q_pow_d: ImplicitFieldElement,
    params: ReductionParams,
) -> tuple[int, int, int]:
    """Find j in [1, m] with x^d = zeta^j, m = (p-1)/d, by BSGS on implicit elements.

    Baby side stores zeta^v1 * x^d for v1 = 0..d1; giant side walks
    (zeta^d1)^u1 for u1 = 1..ceil(m/d1)+1 and probes. Matches whose
    j = u1*d1 - v1 falls outside [1, m] are collisions from wrapped exponents
    (possible only in degenerate splits); the sweep continues past them.
    """
    ledger = oracle.ledger
    p = group.order
    m = (p - 1) // params.d
    d1 = params.d1
    key, step = _walk(group, ledger)
    table = bsgs_table(key, step, q_pow_d, params.zeta, d1 + 1)
    if ledger is not None:
        ledger.charge_table_entries(d1 + 1)
    giant_const = pow(params.zeta, d1, p)
    hit = bsgs_probe(
        table, key, step, step(embed(group, 1), giant_const), giant_const,
        range(1, -(-m // d1) + 2), lambda u1, v1: 1 <= u1 * d1 - v1 <= m,
    )
    if hit is None:
        raise InternalInconsistencyError(
            f"phase 1 found no j in [1, {m}] for d={params.d}: oracle or generator is broken"
        )
    u1, v1 = hit
    return u1 * d1 - v1, u1, v1


def phase2_find_t(
    group: CyclicGroup,
    oracle: OracleHandle,
    Q: GroupPoint,
    j: int,
    params: ReductionParams,
) -> tuple[int, int, int]:
    """Find t in [0, d) with x = zeta0^(m*t + j), by a second, oracle-free BSGS.

    Baby side stores (zeta0^m)^v2 * x for v2 = 0..s2; giant side starts at
    zeta0^j and walks (zeta0^(m*s2))^u2 for u2 = 0..ceil(d/s2)+1. Every
    scaling constant is an explicit field element, so no oracle calls occur.
    """
    ledger = oracle.ledger
    p = group.order
    d = params.d
    m = (p - 1) // d
    s2 = params.s2
    zm = pow(params.zeta0, m, p)
    key, step = _walk(group, ledger)
    table = bsgs_table(key, step, ImplicitFieldElement(Q), zm, s2 + 1)
    if ledger is not None:
        ledger.charge_table_entries(s2 + 1)
    hit = bsgs_probe(
        table, key, step, step(embed(group, 1), pow(params.zeta0, j, p)), pow(zm, s2, p),
        range(0, -(-d // s2) + 2), lambda u2, v2: 0 <= u2 * s2 - v2 < d,
    )
    if hit is None:
        raise InternalInconsistencyError(
            f"phase 2 found no t in [0, {d}) at j={j}: phase 1 result inconsistent"
        )
    u2, v2 = hit
    return u2 * s2 - v2, u2, v2


def reduce_dlog(
    group: CyclicGroup, oracle: OracleHandle, Q: GroupPoint, d: int, seed: int = 0
) -> ReductionTranscript:
    """Recover x from Q = xP using the oracle and the divisor d of p-1.

    Attaches a fresh ledger to the oracle for the duration of the run. The
    returned transcript carries the matches of both phases, the recombined
    exponent, the recovered x (verified to satisfy xP = Q), and the ledger.
    """
    p = group.order
    group._member(Q)
    if d < 1 or (p - 1) % d != 0:
        raise InvalidDivisorError(f"d={d} does not divide p-1={p - 1}")
    if group.eq(Q, group.identity):
        raise ZeroDlogError("Q is the identity: its exponent 0 is outside [1, p-1]")
    ledger = CostLedger()
    oracle.attach_ledger(ledger)
    zeta0 = find_generator(p, factorize(p - 1), seed)
    params = ReductionParams(
        d=d,
        d1=math.isqrt((p - 1) // d),
        s2=math.isqrt(d),
        zeta0=zeta0,
        zeta=pow(zeta0, d, p),
        seed=seed,
    )
    Q_implicit = ImplicitFieldElement(Q)
    # for d = 1, x^d is already in hand: no oracle calls
    x_pow_d = Q_implicit if d == 1 else implicit_pow(oracle, Q_implicit, d)
    j, u1, v1 = phase1_find_j(group, oracle, x_pow_d, params)
    t, u2, v2 = phase2_find_t(group, oracle, Q, j, params)
    i0 = ((p - 1) // d) * t + j
    x = pow(zeta0, i0, p)
    # self-check, off the books: the algorithm's answer must reproduce Q
    if not group.eq(group.scalar_mul(x, group.generator), Q):
        raise InternalInconsistencyError(f"recovered x={x} fails x*P = Q at p={p}, d={d}")
    return ReductionTranscript(
        p=p, backend=group.backend,
        j=j, u1=u1, v1=v1, t=t, u2=u2, v2=v2,
        i0=i0, x=x, ledger=ledger, params=params,
    )


def oracle_calls_exact(d: int) -> int:
    """DH-oracle calls consumed computing x^d: floor(log2 d) + popcount(d), none for d = 1."""
    if d < 1:
        raise ValueError(f"divisor must be >= 1, got {d}")
    if d == 1:
        return 0
    return (d.bit_length() - 1) + d.bit_count()


def ceil_log2(n: int) -> int:
    """Smallest k with 2^k >= n, for n >= 1."""
    if n < 1:
        raise ValueError(f"ceil_log2 of {n} undefined")
    return (n - 1).bit_length()


def cost_report(tr: ReductionTranscript, p: int, d: int) -> dict:
    """Measured costs of a run against the analytic ceilings.

    Three ceilings are reported. The headline 2*ceil(log2 p)*(d1 + s2) form
    treats each BSGS side as d1 (resp. s2) steps of at most 2*ceil(log2 p)
    operations; a faithful sweep also pays for the giant strides past the
    range boundary, so that form carries a slack allowance of 4*ceil(log2 p)
    and its flag can honestly read False on an unlucky run. The sweep ceiling
    prices every step the implementation can possibly take and must always
    hold. The tighter 2*(d1 + s2) form is the known-improvement M bound,
    reported for comparison and not enforced on this implementation.
    """
    d1, s2 = tr.params.d1, tr.params.s2
    m = (p - 1) // d
    calls_formula = oracle_calls_exact(d)
    lemma_call_bound = 0 if d == 1 else 2 * (d.bit_length() - 1)
    cl2 = ceil_log2(p)
    lemma_group_ceiling = 2 * cl2 * (d1 + s2)
    slack = 4 * cl2
    sweep_steps = (-(-m // d1) + 1) + (-(-d // s2) + 1) + d1 + s2
    sweep_ceiling = 2 * cl2 * sweep_steps
    return {
        "p": p,
        "d": d,
        "measured_group_ops": tr.ledger.group_ops,
        "measured_oracle_calls": tr.ledger.oracle_calls,
        "bsgs_table_entries": tr.ledger.bsgs_table_entries,
        "oracle_calls_formula": calls_formula,
        "oracle_calls_match_formula": tr.ledger.oracle_calls == calls_formula,
        "lemma_oracle_call_bound": lemma_call_bound,
        "within_lemma_oracle_bound": tr.ledger.oracle_calls <= lemma_call_bound,
        "lemma_group_op_ceiling": lemma_group_ceiling,
        "slack_allowance": slack,
        "within_lemma_group_ceiling": tr.ledger.group_ops <= lemma_group_ceiling + slack,
        "kkm_group_op_bound": 2 * (d1 + s2),
        "sweep_group_op_ceiling": sweep_ceiling,
        "within_sweep_ceiling": tr.ledger.group_ops <= sweep_ceiling,
    }
