"""CLI fuzz: argv drawn from the parser's grammar always ends in the exit contract.

Every option of every subcommand is left out, given a well-formed value or
given a malformed one, and the options come in any order. Whatever the argv,
the run must exit 0, 1, 2 or 64 and never raise out of main. Orders stay below
2^12 and selftest runs at its quick depth only, so the whole test stays short.
"""

import contextlib
import io
import json

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dhpbound.cli import main
from dhpbound.modmath import is_prime

EXIT_CONTRACT = {0, 1, 2, 64}

JUNK = st.sampled_from(["", "x", "-", "--", "1.5", "1e3", "0x11", "--p", "quick", "-3", "٣"])
# log-uniform in [0, 2^12): the small edge cases come up as often as the big orders
ORDERS = st.integers(0, 11).flatmap(lambda k: st.integers(2**k - 1, 2**(k + 1) - 2))
PRIMES = ORDERS.map(lambda n: next((q for q in range(n, 1, -1) if is_prime(q)), 2))  # largest <= n
SEEDS = st.integers(min_value=-(2**70), max_value=2**70)
FORMATS = st.sampled_from(["markdown", "csv", "json"])
# weighted by how much grammar each has; a quick selftest, at half a second or more, is rare
SUBCOMMANDS = ["tables"] * 4 + ["reduce"] * 10 + ["divisors"] * 6 + ["selftest", "bogus"]


@pytest.fixture(scope="module")
def db_paths(tmp_path_factory):
    """A missing file, files that are not JSON or not UTF-8, and a one-record database whose d is wrong."""
    root = tmp_path_factory.mktemp("fuzz_db")
    (root / "bad.json").write_text("{not json")
    (root / "not_utf8.json").write_bytes(b"\xff{}")
    (root / "wrong_d.json").write_text(json.dumps({"version": 1, "records": [
        {"name": "TINY", "field_kind": "prime", "p": "101", "d": "3"}]}))
    return [str(root / name) for name in ("missing.json", "bad.json", "not_utf8.json", "wrong_d.json")]


@st.composite
def argv(draw, db_paths):
    """One argv: well-formed, or with options left out, given no value or given junk."""
    sub = draw(st.sampled_from(SUBCOMMANDS))
    clean = draw(st.booleans())

    def opt(flag, values, required=False):
        if clean:
            return [flag, str(draw(values))] if required or draw(st.booleans()) else []
        kind = draw(st.sampled_from(["out", "value", "value", "junk", "bare"]))
        if kind == "out":
            return []
        if kind == "bare":
            return [flag]
        return [flag, str(draw(values if kind == "value" else JUNK))]

    dbs = st.sampled_from(db_paths)
    if sub == "tables":
        groups = [opt("--format", FORMATS), opt("--db", dbs), draw(st.sampled_from([[], ["--diff"]]))]
    elif sub == "reduce":
        p = draw(st.one_of(PRIMES, ORDERS, st.integers(-3, 2)))
        divisors = [k for k in range(1, p) if (p - 1) % k == 0] if p > 2 else [1]
        d = st.one_of(st.sampled_from(divisors), st.integers(-3, 2**12))
        x = st.one_of(st.integers(1, max(p - 1, 1)), st.integers(-3, 2**12))
        hide = [opt("--x", x, required=True)] if draw(st.booleans()) else [["--random"]]
        if not clean:
            hide = draw(st.sampled_from([hide, [], [["--random"], opt("--x", x)]]))
        groups = [
            opt("--p", st.just(p), required=True),
            opt("--d", d, required=True),
            *hide,
            opt("--backend", st.sampled_from(["zp", "mult", "ec"])),
            opt("--seed", SEEDS),
            opt("--format", FORMATS),
        ]
    elif sub == "divisors":
        groups = [
            opt("--p", st.one_of(PRIMES, ORDERS, st.integers(-3, 2)), required=True),
            opt("--policy", st.sampled_from(["paper", "min-n"])),
            opt("--budget", st.integers(min_value=-3, max_value=10**6)),
            opt("--db", dbs),
        ]
    elif sub == "selftest":  # quick depth only: a malformed --depth is still a usage error
        groups = [opt("--depth", st.just("quick")), opt("--seed", SEEDS)]
    else:
        groups = [opt("--p", ORDERS)]
    return [sub] + [token for group in draw(st.permutations(groups)) for token in group]


@settings(
    max_examples=120, deadline=None, derandomize=True, database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=st.data())
def test_cli_argv_fuzz_keeps_exit_contract(data, db_paths):
    args = data.draw(argv(db_paths), label="argv")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(args)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    assert code in EXIT_CONTRACT, (args, code, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code in (1, 64):
        assert err.getvalue().strip(), args  # a failure always says why
