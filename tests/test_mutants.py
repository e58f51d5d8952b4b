"""The mutation table (``tests/mutants.py``) stays in step with the code:
every patch applies exactly once to the current sources."""

import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("mutants", ROOT / "tests" / "mutants.py")
mutants = sys.modules["mutants"] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


def test_names_are_unique():
    names = [m.name for m in mutants.MUTANTS]
    assert len(names) == len(set(names))


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m.name)
def test_patch_applies_exactly_once(mutant):
    text = (ROOT / "src" / "sits_ssm" / mutant.file).read_text()
    assert mutants.apply(text, mutant) != text
