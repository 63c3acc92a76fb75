"""tools/mutants.py's kill list still applies: every mutant's old text occurs once in its file."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(spec)
spec.loader.exec_module(mutants)


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=[mutant.name for mutant in mutants.MUTANTS])
def test_each_mutant_applies_exactly_once(mutant):
    assert mutant.old != mutant.new
    assert (ROOT / mutant.path).read_text().count(mutant.old) == 1
    assert all((ROOT / test).is_file() for test in mutant.tests)
