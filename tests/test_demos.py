"""Every script under demos/, and README's quick-taste block, runs against this checkout's src/."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_python(*args: str) -> subprocess.CompletedProcess:
    """python *args in a subprocess from the repo root, with src/ first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )


def test_demos_found():
    assert len(DEMOS) == 4


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs_cleanly(demo):
    proc = run_python(str(demo))
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout.strip()


def test_readme_quick_taste_prints_what_its_comments_state():
    # the first python block of README.md, run as a reader would paste it; its
    # comments state the recovered x and the ledger, so those numbers cannot drift
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"^```python\n(.*?)^```$", readme, re.S | re.M).group(1)
    x = re.search(r"print\(tr\.x\)\s+# (\d+)$", block, re.M).group(1)
    calls, ops = re.search(r"# (\d+) oracle calls, (\d+) group ops$", block, re.M).groups()
    proc = run_python("-c", block)
    assert proc.returncode == 0, proc.stderr
    printed_x, ledger = proc.stdout.splitlines()
    assert printed_x == x == "77"
    ledger = ast.literal_eval(ledger)
    assert (ledger["oracle_calls"], ledger["group_ops"]) == (int(calls), int(ops)) == (6, 58)
