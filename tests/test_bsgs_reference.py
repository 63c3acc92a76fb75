"""Key-iterator baby-step giant-step, kept as a reference for the package's searches.

The package runs two searches as plain loops: the reduction's billed
reduction._search, and groups.DlogSolver, the one private dlog solver
behind both the simulated oracle and brute_force_dlog, whose baby table
lives on the solver and whose giant side is the group's _raw_probe. These
helpers are the same searches written on lazy key iterators, one key per
point a side visits; the tests below pin how many keys each one pulls, and
test_reduction.py and test_oracle.py check the package's loops against them.
"""

import random
from itertools import count, islice


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


def bsgs_probe(table, keys, us, accept=lambda u, v: True):
    """Giant steps: the first (u, v) with table[key at u] = v and accept(u, v), or None.

    keys yields the giant side's key at us[0], us[1], ...; one is pulled per u,
    and none after an accepted match or past the last u. By default every
    match is accepted.
    """
    for u, key in zip(us, keys):  # us first: a miss pulls exactly len(us) keys
        v = table.get(key)
        if v is not None and accept(u, v):
            return u, v
    return None


class Counted:
    """Iterator over keys that counts how many were pulled."""

    def __init__(self, keys):
        self._keys, self.pulled = iter(keys), 0

    def __iter__(self):
        return self

    def __next__(self):
        key = next(self._keys)
        self.pulled += 1
        return key


def test_bsgs_table_pulls_exactly_size_keys():
    for size in (0, 1, 2, 5, 7, 30):
        keys = Counted(i % 5 for i in count())  # never runs dry, so an extra pull shows
        assert bsgs_table(keys, size) == {v: v for v in range(min(size, 5))}  # smallest v kept
        assert keys.pulled == size


def test_bsgs_probe_pulls_one_key_per_u_and_none_past_an_accepted_match():
    rng = random.Random(4242)
    outcomes = set()
    for _ in range(400):
        table = {rng.randrange(40): v for v in range(rng.randrange(1, 12))}
        u0, n = rng.randrange(3), rng.randrange(1, 20)
        us = range(u0, u0 + n)
        giant = [rng.randrange(40) for _ in range(n + 5)]  # keys past the last u too
        accept = lambda u, v: (u + v) % 3 != 0  # noqa: E731
        hits = [i for i, key in enumerate(giant[:n]) if key in table and accept(us[i], table[key])]
        keys = Counted(giant)
        hit = bsgs_probe(table, keys, us, accept)
        if hits:
            i = hits[0]
            assert hit == (us[i], table[giant[i]])
            assert keys.pulled == us[i] - us[0] + 1
            outcomes.add("rejected first" if any(key in table for key in giant[:i]) else "hit")
        else:
            assert hit is None
            assert keys.pulled == len(us)
            outcomes.add("miss")
    assert outcomes == {"hit", "rejected first", "miss"}


def test_orbit_adds_only_between_pulls():
    adds = []

    def add(a, b):
        adds.append((a, b))
        return a + b

    walk = orbit(add, 5, 3)
    assert adds == []  # nothing runs before the first pull
    assert list(islice(walk, 4)) == [5, 8, 11, 14]
    assert len(adds) == 3
