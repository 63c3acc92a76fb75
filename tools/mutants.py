"""Run the kill list: each mutant in a copy of the tree, against the tests expected to kill it.

Usage, from anywhere:

    python3 tools/mutants.py

A mutant is a file, an exact old text that occurs once in it, the new
text that replaces it, and the test files expected to kill it. The script
copies the repository (without .git and caches) to a temporary directory
once, then for each mutant in turn writes the mutated file, runs
`python -m pytest -x` on its test files there with src/ on PYTHONPATH,
one subprocess at a time with a TIMEOUT_S timeout, and restores the file.
It prints one line per mutant:

    killed    the tests failed, or ran past the timeout
    survived  the tests passed on the mutated code
    stale     the old text is not in its file exactly once, or a test file is missing

then a count of each. The exit code is 0 when every mutant was killed, 1
otherwise.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
IGNORED = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".perfbench", ".benchmarks", ".hypothesis")
TIMEOUT_S = 600  # per mutant's test run; the slowest killed mutant takes about 11 s


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    tests: tuple[str, ...]


REDUCTION, COST, GROUPS = "src/dhpbound/reduction.py", "src/dhpbound/cost.py", "src/dhpbound/groups.py"
BOUNDS, CLI, ORACLE = "src/dhpbound/bounds.py", "src/dhpbound/cli.py", "src/dhpbound/oracle.py"
MODMATH = "src/dhpbound/modmath.py"

MUTANTS = (
    # the kept giant tables (reduction.py): one growth rule for both phases
    Mutant("phase-2-stops-at-its-half-stride-layer", REDUCTION,
           "len(kept.table) < KEPT_TABLE_KEYS)", "len(kept.table) < (KEPT_TABLE_KEYS if key[0] == 1 else 0))",
           ("tests/test_reduction.py",)),
    Mutant("no-first-reuse-layer", REDUCTION,
           "(len(kept.offsets) == 1 or len(kept.table) < KEPT_TABLE_KEYS)", "len(kept.table) < KEPT_TABLE_KEYS",
           ("tests/test_reduction.py",)),
    Mutant("key-budget-loosened", COST,
           "KEPT_TABLE_KEYS = 1 << 10", "KEPT_TABLE_KEYS = 1 << 11", ("tests/test_reduction.py",)),
    # the layered table both searches keep, groups.GiantTable: offset halving and the pull bound
    Mutant("midpoint-rounded-up", GROUPS,
           "offset = start + width // 2", "offset = start + (width + 1) // 2",
           ("tests/test_reduction.py", "tests/test_oracle.py")),
    Mutant("pull-bound-one-high", GROUPS,
           "self.pulls = self._widest()[0] + 1", "self.pulls = self._widest()[0] + 2",
           ("tests/test_reduction.py", "tests/test_oracle.py")),
    Mutant("last-widest-gap-on-ties", GROUPS,
           ", key=lambda gap: gap[0])", ")", ("tests/test_reduction.py", "tests/test_oracle.py")),
    Mutant("pulled-window-ignores-the-pull-bound", COST,
           "Walk(1, stride, -(-min(pulls, points) // 2) + 1)", "Walk(1, stride, -(-points // 2) + 1)",
           ("tests/test_reduction.py",)),
    Mutant("window-for-the-whole-pull-bound", COST,
           "-(-min(pulls, points) // 2) + 1", "min(pulls, points)", ("tests/test_reduction.py",)),
    # a walk from k0 = 1 yields its base's data before the hook builds a table (reduction.py)
    Mutant("first-key-not-yielded", REDUCTION,
           "        yield data\n        k = stride\n", "        k = stride\n", ("tests/test_reduction.py",)),
    # small-d phase 2 scans the kept generator table (cost.py, reduction.py)
    Mutant("scan-skips-its-last-candidate", REDUCTION,
           "for t in range(d):", "for t in range(d - 1):", ("tests/test_reduction.py",)),
    Mutant("scan-rule-always-walks", COST,
           "return d * signed_layout(p - 1, ANSWER_WINDOW)[0] <=",
           "return False and d * signed_layout(p - 1, ANSWER_WINDOW)[0] <=",
           ("tests/test_cost.py", "tests/test_reduction.py")),
    # the kept generator table's window, named once and read by the oracle, the scan and the self-check
    Mutant("answer-window-moved", COST, "ANSWER_WINDOW = 4", "ANSWER_WINDOW = 5", ("tests/test_cost.py",)),
    # signed-digit fixed-base tables (cost.py, groups.py)
    Mutant("signed-layout-bias-off-by-one", COST,
           "* ((1 << (w - 1)) - 1)\n", "* (1 << (w - 1))\n", ("tests/test_cost.py", "tests/test_groups.py")),
    Mutant("signed-layout-offset-on-the-top-digit", COST,
           "offset = ((1 << shift) - 1) // ((1 << w) - 1)", "offset = ((1 << shift + w) - 1) // ((1 << w) - 1)",
           ("tests/test_cost.py", "tests/test_groups.py")),
    Mutant("digits-ignore-the-top-carry", COST,
           "(u >> window.shift != 0)", "(k >> window.shift != 0)", ("tests/test_cost.py",)),
    Mutant("reader-bias-off-by-one", GROUPS,
           "(1 << w) - 1, (1 << (w - 1)) - 1\n", "(1 << w) - 1, 1 << (w - 1)\n", ("tests/test_groups.py",)),
    Mutant("top-row-trimmed", GROUPS,
           "cols, offset, top = signed_layout(self.order - 1, w)\n",
           "cols, offset, top = signed_layout(self.order - 1, w)\n        top = (self.order - 1) >> w * (cols - 1)\n",
           ("tests/test_groups.py",)),
    # the one column builder: every fixed-base hook builds its own table on the base it is handed (groups.py)
    Mutant("zp-hook-ignores-its-base", GROUPS,
           "return lambda k: k * base % p", "return lambda k: k % p", ("tests/test_groups.py",)),
    Mutant("columns-one-doubling-short", GROUPS,
           "for _ in range(w):\n                    col = add(col, col)",
           "for _ in range(w - 1):\n                    col = add(col, col)", ("tests/test_groups.py",)),
    # the oracle's one answer path (oracle.py)
    Mutant("oracle-squares-a", ORACLE,
           "self._private_dlog(A) * self._private_dlog(B)", "self._private_dlog(A) * self._private_dlog(A)",
           ("tests/test_oracle.py",)),
    Mutant("oracle-forgets-its-answers", ORACLE,
           "        if not self._residues:\n            self._known[result.data] = ab\n", "", ("tests/test_oracle.py",)),
    Mutant("zp-oracle-stores-its-answers", ORACLE,
           "if not self._residues:\n            self._known", "if True:\n            self._known",
           ("tests/test_oracle.py",)),
    # the self-check reads x*P off the kept generator table (reduction.py)
    Mutant("self-check-always-passes", REDUCTION,
           "if group._generator_table(ANSWER_WINDOW)(x) != Q.data:", "if False:", ("tests/test_reduction.py",)),
    # the one BSGS dlog solver and its strided table, probed by +P (groups.py)
    Mutant("solver-giant-count-short", GROUPS,
           "self.steps += hit[0] + 1", "self.steps += hit[0]", ("tests/test_oracle.py",)),
    Mutant("solver-table-count-long", GROUPS,
           "self.steps += adds + 1", "self.steps += adds + 2", ("tests/test_oracle.py",)),
    Mutant("solver-baby-table-short", GROUPS,
           "        table[point.data] = first + span * adds\n", "", ("tests/test_oracle.py",)),
    Mutant("solver-probe-steps-by-2P", GROUPS,
           "isqrt(group.order - 1) + 1, group.generator.data",
           "isqrt(group.order - 1) + 1, group._raw_add(group.generator.data, group.generator.data)",
           ("tests/test_oracle.py",)),
    Mutant("solver-first-layer-at-m-i", GROUPS,
           "self.group, self.span, 1 - offset", "self.group, self.span, -offset", ("tests/test_oracle.py",)),
    Mutant("brute-force-dlog-never-raises", GROUPS,
           "if x is None:\n        raise RuntimeError", "if x is None and False:\n        raise RuntimeError",
           ("tests/test_groups.py",)),
    # the solver's table grows one layer per run, by the loop that built it (groups.py, oracle.py)
    Mutant("solver-never-grows", ORACLE,
           "        self._solver.grow()\n", "", ("tests/test_oracle.py",)),
    Mutant("solver-grows-past-the-key-budget", GROUPS,
           "len(layers.table) < KEPT_TABLE_KEYS:", "len(layers.table) <= KEPT_TABLE_KEYS:", ("tests/test_oracle.py",)),
    Mutant("solver-first-reuse-layer-past-the-budget", GROUPS,
           "layers.pulls > 2 and len(layers.table) < KEPT_TABLE_KEYS",
           "layers.pulls > 2 and (len(layers.offsets) == 1 or len(layers.table) < KEPT_TABLE_KEYS)",
           ("tests/test_oracle.py",)),
    Mutant("solver-last-layer-uncapped", GROUPS,
           "layers.pulls > 2 and", "layers.pulls > 1 and", ("tests/test_oracle.py",)),
    Mutant("solver-stride-not-updated", GROUPS,
           "for k in (g.order + first, span)", "for k in (g.order + 1, span)", ("tests/test_oracle.py",)),
    # the curve search and the generator search at their boundaries (groups.py, reduction.py)
    Mutant("curve-search-writes-x-1-at-y-0", GROUPS,
           "(x, 0 if rhs == 0 else y)", "(x, 1 if rhs == 0 else y)", ("tests/test_groups.py",)),
    Mutant("generator-search-skips-its-last-candidate", REDUCTION,
           "for candidates in range(1, budget + 1):", "for candidates in range(1, budget):",
           ("tests/test_reduction.py",)),
    # the database and the divisors (bounds.py, modmath.py)
    Mutant("load-database-catches-only-value-error", BOUNDS,
           "except (ValueError, RecursionError) as exc:", "except ValueError as exc:", ("tests/test_cli.py",)),
    Mutant("load-database-catches-only-json-errors", BOUNDS,
           "except (ValueError, RecursionError) as exc:", "except json.JSONDecodeError as exc:",
           ("tests/test_cli.py",)),
    Mutant("paper-fallback-suggests-1", BOUNDS,
           "below if below >= 2 else None", "below if below >= 1 else None", ("tests/test_bounds.py",)),
    Mutant("paper-fallback-second-largest", BOUNDS,
           "p - 1, cap=1)[0]", "p - 1, cap=2)[-1]", ("tests/test_bounds.py",)),
    # one pruned walk lists and counts the divisors in a range (modmath.py)
    Mutant("count-past-its-cap", MODMATH,
           "if count < cap else 0", "if count <= cap else 0", ("tests/test_modmath.py",)),
    Mutant("count-never-stops", MODMATH,
           "return bound if count < cap else 0", "return bound", ("tests/test_modmath.py",)),
    Mutant("walk-loses-its-lo-prune", MODMATH,
           "if acc * reach[idx + 1] >= lo:", "if True:", ("tests/test_modmath.py",)),
    Mutant("list-bound-reset-to-hi", MODMATH,
           "        return out[-1]\n", "        return hi\n", ("tests/test_modmath.py",)),
    Mutant("d-1-accepted", BOUNDS, "if d < 2:", "if d < 1:", ("tests/test_cli.py",)),
    Mutant("d-2-refused", BOUNDS, "if d < 2:", "if d < 3:", ("tests/test_bounds.py",)),
    Mutant("p-3-refused", BOUNDS, "if p < 3:", "if p <= 3:", ("tests/test_bounds.py",)),
    # the oracle-call formula, read by cost_report, the table and check_reduction alike (cost.py)
    Mutant("oracle-calls-one-short", COST,
           "return (d.bit_length() - 1) + d.bit_count()", "return (d.bit_length() - 1) + d.bit_count() - 1",
           ("tests/test_acceptance.py",)),
    # the reported results: one BoundRow per table row, one document per reduce (bounds.py, cli.py)
    Mutant("no-d-row-not-annotated", BOUNDS,
           "if rec.annotations:", "if rec.annotations and rec.d is not None:",
           ("tests/test_bounds.py", "tests/test_cli.py")),
    Mutant("deltas-swap-m-and-n", BOUNDS,
           "cell - ref for cell, name in zip(cells, LOG2_CELLS)",
           "cell - ref for cell, name in zip(cells, LOG2_CELLS[:1] + LOG2_CELLS[2:0:-1] + LOG2_CELLS[3:])",
           ("tests/test_cli.py", "tests/test_bounds.py")),
    Mutant("reduce-csv-drops-the-simulator", CLI,
           '"cost_report", "simulator")}', '"cost_report")}', ("tests/test_cli.py",)),
    Mutant("reduce-csv-drops-the-warnings", CLI,
           '        fields["warnings"] = "; ".join(notes)\n', "", ("tests/test_cli.py",)),
)


def stale(tree: Path, mutant: Mutant) -> bool:
    """True when the mutant no longer applies: its old text is not in its file exactly once, or a test file is gone."""
    return (tree / mutant.path).read_text().count(mutant.old) != 1 \
        or not all((tree / test).is_file() for test in mutant.tests)


def run(tree: Path, mutant: Mutant) -> str:
    """Apply mutant in tree, run its tests there, restore the file; "killed", "survived" or "stale"."""
    if stale(tree, mutant):
        return "stale"
    path = tree / mutant.path
    source = path.read_text()
    path.write_text(source.replace(mutant.old, mutant.new))
    argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *mutant.tests]
    env = {**os.environ, "PYTHONPATH": "src", "PYTHONDONTWRITEBYTECODE": "1"}
    try:
        done = subprocess.run(argv, cwd=tree, env=env, capture_output=True, timeout=TIMEOUT_S)
        return "survived" if done.returncode == 0 else "killed"
    except subprocess.TimeoutExpired:
        return "killed"
    finally:
        path.write_text(source)


def main() -> int:
    counts = {"killed": 0, "survived": 0, "stale": 0}
    with tempfile.TemporaryDirectory() as scratch:
        tree = Path(scratch) / "tree"
        shutil.copytree(ROOT, tree, ignore=IGNORED)
        for mutant in MUTANTS:
            start = time.monotonic()
            status = run(tree, mutant)
            counts[status] += 1
            print(f"{status:<9} {mutant.name}  {mutant.path}  {' '.join(mutant.tests)}"
                  f"  {time.monotonic() - start:.1f} s", flush=True)
    print(", ".join(f"{count} {status}" for status, count in counts.items()))
    return 0 if counts["killed"] == len(MUTANTS) else 1


if __name__ == "__main__":
    sys.exit(main())
