#!/usr/bin/env python3
"""How a divisor of p-1 gets chosen, on desk-scale and standardized primes.

The reduction needs a divisor d of p-1. Two advisory policies are shipped.
The band policy ("paper") takes the smallest divisor with cbrt(p) <= d <=
sqrt(p), falling back to the largest divisor below the band; it balances the
two baby-step giant-step walks. The "min-n" policy instead minimizes the
exact oracle-call count n(d) subject to the group work staying at least 2^8
below sqrt(p), which is the right question when oracle calls are the scarce
resource. This script runs both on small primes, then checks the stored
divisor for SECP112R1 against the fallback rule.

Run: python demos/divisor_search.py
"""

from dhpbound.bounds import load_database, paper_band, suggest_divisor
from dhpbound.cost import oracle_calls_exact, reduction_ops_bound
from dhpbound.modmath import divisors_in_range, factorize, is_prime, log2_approx


def banner(title):
    print()
    print("=" * 70)
    print(title)
    print("=" * 70)


def show_band_choice(p):
    f = factorize(p - 1)
    lo, hi = paper_band(p)
    divs = divisors_in_range(f, 2, p - 1)
    in_band = [d for d in divs if lo <= d <= hi]
    pick = suggest_divisor(p, f, policy="paper")
    print(f"p = {p}: divisors of {p - 1} are {divs}")
    print(f"  band [{lo}, {hi}] holds {in_band or 'nothing'}")
    if pick is None:
        print(f"  suggestion: none (only d = 1 lies below the band)")
    elif in_band:
        print(f"  suggestion: d = {pick} (smallest in the band)")
    else:
        print(f"  suggestion: d = {pick} (band empty, largest divisor below it)")
    print()


def first_prime_c_times_2_44():
    """Smallest odd c >= 3 with c*2^44 + 1 prime; p-1 is then very smooth."""
    c = 3
    while True:
        p = (c << 44) | 1
        if is_prime(p):
            return c, p
        c += 2


def main():
    banner("band policy on desk-scale primes")
    for p in (101, 29, 59, 3):
        show_band_choice(p)

    banner("min-n policy needs room: group work must stay 2^8 under sqrt(p)")
    p = 101
    f = factorize(p - 1)
    print(f"p = {p}: sqrt(p) is 2^{log2_approx(p) / 2:.2f}, so the cap sits at "
          f"2^{log2_approx(p) / 2 - 8:.2f}")
    print(f"  even d = {p - 1} costs M = {reduction_ops_bound(p, p - 1)} group ops "
          f"= 2^{log2_approx(reduction_ops_bound(p, p - 1)):.2f}, over the cap")
    print(f"  suggestion: {suggest_divisor(p, f, policy='min-n')} "
          f"(no divisor qualifies at this size)")

    banner("min-n policy where it can work: p = c*2^44 + 1")
    c, p = first_prime_c_times_2_44()
    f = factorize(p - 1)
    print(f"smallest odd c >= 3 giving a prime: c = {c}, p = {p}")
    print(f"p - 1 = {c} * 2^44 factors completely, so every divisor is in play")
    pick = suggest_divisor(p, f, policy="min-n")
    cap = log2_approx(p) / 2 - 8

    # brute-force the same optimization to confirm the policy's answer
    best = None
    rows = []
    for d in divisors_in_range(f, 2, p - 1):
        m_ops = reduction_ops_bound(p, d)
        if log2_approx(m_ops) > cap:
            continue
        n = oracle_calls_exact(d)
        rows.append((n, d, m_ops))
        if best is None or (n, d) < best[:2]:
            best = (n, d, m_ops)
    rows.sort()
    print(f"  {len(rows)} divisors respect the cap 2^{cap:.2f}; the cheapest five:")
    print(f"  {'n':>4s} {'d':>16s} {'log2 M':>8s}")
    for n, d, m_ops in rows[:5]:
        print(f"  {n:4d} {d:16d} {log2_approx(m_ops):8.2f}")
    print(f"  policy pick d = {pick} with n = {oracle_calls_exact(pick)} calls")
    print(f"  brute force agrees: {pick == best[1]}")
    twos = (pick & -pick).bit_length() - 1
    print(f"  sparse binary shapes win (every set bit past the first costs a call);")
    print(f"  ties on n go to the smaller d, here {pick} = {pick >> twos} * 2^{twos}")

    banner("the stored SECP112R1 divisor is exactly the band fallback")
    rec = next(r for r in load_database() if r.name == "SECP112R1")
    f = factorize(rec.p - 1)
    parts = " * ".join(
        f"{q}^{e}" if e > 1 else f"{q}" for q, e in f.factors
    )
    print(f"p has {len(str(rec.p))} digits; p - 1 = {parts}")
    lo, hi = paper_band(rec.p)
    print(f"  band endpoints near 2^{log2_approx(lo):.1f} and 2^{log2_approx(hi):.1f}")
    print(f"  small prime factors multiply to at most 2^{log2_approx(4 * 41 * 859):.1f} "
          f"and the remaining factor alone is 2^{log2_approx(f.factors[-1][0]):.1f}")
    print(f"  so the band is empty and the fallback takes the largest small divisor")
    pick = suggest_divisor(rec.p, f, policy="paper")
    print(f"  fallback suggestion: d = {pick}")
    print(f"  stored database value: d = {rec.d}")
    print(f"  agreement: {pick == rec.d}")
    print(f"  oracle calls for that d: n = {oracle_calls_exact(rec.d)}")
    print()
    print("done")


if __name__ == "__main__":
    main()
