"""Pricing from (p, d) alone: the divisor rule, the walk planner and the split from the engine.

Nothing here builds a group. cost.py is the one home of every price, so
the bound tables load it, and modmath, and nothing of the reduction.
"""

import ast
import os
import random
import subprocess
import sys
from itertools import islice
from math import isqrt
from pathlib import Path

import pytest

from test_reduction import all_divisors, run_params, run_walks, signed_digits
from dhpbound import cost
from dhpbound.cost import (
    InvalidDivisorError,
    Walk,
    _charges,
    _digits,
    _plan,
    _windows,
    _worst,
    divisor_split,
    phase2_scans,
    plan,
    reduction_ops_bound,
    scalar_mul_cost,
)

SRC = Path(__file__).resolve().parent.parent / "src"


def loaded_after(statement: str) -> list[str]:
    """The dhpbound modules a fresh interpreter holds after running statement."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    code = f"{statement}; import sys; print(sorted(m for m in sys.modules if m.split('.')[0] == 'dhpbound'))"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return ast.literal_eval(proc.stdout)


def test_bound_tables_load_no_group_oracle_or_search():
    assert loaded_after("import dhpbound.bounds") == [
        "dhpbound", "dhpbound.bounds", "dhpbound.cost", "dhpbound.modmath",
    ]
    assert loaded_after("import dhpbound.cost") == ["dhpbound", "dhpbound.cost"]
    # the benchmark's tracer rebinds these by module, so a binding in cost would escape its spans
    assert not {"factorize", "is_prime", "divisors_in_range"} & set(vars(cost))


def test_divisor_split_is_the_one_divisor_rule():
    for p in (3, 29, 101, 1009):
        for d in range(-2, p + 2):
            if d >= 1 and (p - 1) % d == 0:
                m = (p - 1) // d
                assert divisor_split(p, d) == (m, isqrt(m), isqrt(d))
                assert reduction_ops_bound(p, d) == 2 * (isqrt(m) + isqrt(d))
                continue
            for price in (divisor_split, reduction_ops_bound):
                with pytest.raises(InvalidDivisorError) as caught:
                    price(p, d)
                assert str(caught.value) == f"d={d} does not divide p-1={p - 1}"


def assert_digits_are_recoded_digits(p: int, ks) -> None:
    """_digits against test_reduction's digit-at-a-time recoding, for every k in ks and every w."""
    for window in _windows(p - 1, 0):
        w = window.w
        for k in ks:
            digits = signed_digits(k, w, p)
            assert sum(digit * 2 ** (w * i) for i, digit in enumerate(digits)) == k
            assert all(-(2 ** (w - 1)) < digit <= 2 ** (w - 1) for digit in digits[:-1])
            assert _digits(k, window) == sum(digit != 0 for digit in digits), (k, w)


@pytest.mark.parametrize("p", [101, 1009, 16381])
def test_digits_count_the_recoded_signed_digits_of_every_k(p):
    # and the top digit never falls as k grows, so p - 1's is the top row's largest
    assert_digits_are_recoded_digits(p, range(p))
    for w in range(1, (p - 1).bit_length()):
        tops = [signed_digits(k, w, p)[-1] for k in range(p)]
        assert tops == sorted(tops), w


def test_digits_count_the_recoded_signed_digits_of_sampled_k_at_2_32():
    p, rng = 4294967291, random.Random("digits:2^32")
    assert_digits_are_recoded_digits(p, [rng.randrange(p) for _ in range(2000)] + [p - 1])


@pytest.mark.parametrize("p", [101, 1009])
def test_giant_side_billed_prefix_never_above_plain_walk(p):
    # a giant side is priced at its first ceil(points/2) points, so those cost no more than plain
    rng = random.Random(f"giant:{p}")
    for _ in range(400):
        points = rng.choice((2, 3, 5, isqrt(p) + 1, 2 * isqrt(p)))
        walk = Walk(rng.randrange(1, p), rng.randrange(2, p), points)
        half = -(-points // 2)
        billed = sum(islice(_charges(p, walk, _plan(p, walk, giant=True)), half))
        assert billed <= scalar_mul_cost(walk.k0) + (half - 1) * scalar_mul_cost(walk.stride), walk


def two_step_window(p: int, walk: Walk, shared):
    """Phase 2's giant window by the two-step sharing rule: the walk's own plan, then phase 1's
    window with no table charge if its worst case over ceil(points/2) is no higher."""
    own = _plan(p, walk, giant=True)
    if shared is None:
        return own
    built = shared._replace(bill=shared.bill - shared.table, table=0)
    half = -(-walk.points // 2)
    return built if _worst(walk, built, half) <= _worst(walk, own, half) else own


@pytest.mark.parametrize("p", [29, 101, 1009])
def test_shared_plan_matches_two_step_rule(p):
    # one window search with phase 1's window offered table-free, winning ties, decides
    # exactly as planning the walk alone and then sharing when no dearer
    outcomes = set()
    for seed in (0, 1):
        for d in all_divisors(p):
            params = run_params(p, d, seed)
            shared = _plan(p, run_walks(p, params)[1], giant=True)
            js = range(1, (p - 1) // d + 1)
            if len(js) > 40:
                js = random.Random(f"{p}:{d}:{seed}").sample(js, 20)
            for j in js:
                giant = run_walks(p, params, j)[3]
                got = _plan(p, giant, giant=True, shared=shared)
                assert got == two_step_window(p, giant, shared), (p, d, seed, j)
                assert plan(p, params.d, params.zeta0, j)[3] == (giant, got)  # off the memoised prices
                outcomes.add((shared is not None, got is not None and got.table == 0))
    assert outcomes >= {(True, True), (True, False), (False, False)}


def test_plan_takes_the_first_cheapest_window():
    # pricing each candidate in full picks what the k0-free prices plus k0's part pick: the
    # lowest worst case, ties going to shared, then the plain walk, then _windows' order
    rng = random.Random("ties")
    ties = set()  # whether the plain walk won each tie
    for p in (101, 1009, 16381):
        for _ in range(400):
            giant = rng.random() < 0.5
            points = rng.choice((1, 2, 3, 6, isqrt(p) + 1))
            walk = Walk(rng.choice([1, rng.randrange(1, p)]), rng.randrange(2, p), points)
            shared = rng.choice([None, *_windows(p - 1, rng.randrange(4))])
            priced = -(-points // 2) if giant else points
            candidates = [None, *_windows(p - 1, priced - 1)]
            if shared is not None:
                candidates.insert(0, shared._replace(bill=shared.bill - shared.table, table=0))
            costs = [_worst(walk, window, priced) for window in candidates]
            best = candidates[costs.index(min(costs))]
            assert _plan(p, walk, giant, shared) == best, (p, walk, giant, shared)
            if costs.count(min(costs)) > 1:
                ties.add(best is None)
    assert ties == {True, False}


@pytest.mark.parametrize("p,scanned", [(101, [1, 2]), (1009, [1, 2, 3]), (16381, [1, 2, 3])])
def test_phase2_scan_or_walk_is_pinned_per_divisor(p, scanned):
    # d reads of the kept w = 4 generator table, at most cols additions each, against the
    # cheapest table a walk on Q builds, bits(p - 1) - 1 doublings at w = 1: cols = 2, 3, 4 and
    # 6, 9, 13 doublings here
    cols = cost.signed_layout(p - 1, 4)[0]
    assert _windows(p - 1, 0)[0].table == (p - 1).bit_length() - 1 == {101: 6, 1009: 9, 16381: 13}[p]
    assert [d for d in all_divisors(p) if phase2_scans(p, d)] == scanned
    assert all(phase2_scans(p, d) == (d * cols <= (p - 1).bit_length() - 1) for d in all_divisors(p))


def test_phase2_walks_at_2_32():
    # large-order's d = 190: 190 reads of an 8-column table against 31 doublings
    assert not phase2_scans(4294967291, 190)
    divisors = (1, 2, 5, 10, 19, 38, 95, 190)
    assert all((4294967291 - 1) % d == 0 for d in divisors)
    assert [d for d in divisors if phase2_scans(4294967291, d)] == [1, 2]
