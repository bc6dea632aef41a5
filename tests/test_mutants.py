"""The mutant table of ``mutants/``: every edit still applies once, and every named killer still exists.

The mutant runs themselves are ``python mutants/run.py``, a CI step.
"""

import importlib.util
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("mutant_table", ROOT / "mutants" / "table.py")
table = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(table)


def test_mutant_names_are_unique():
    names = [m.name for m in table.MUTANTS]
    assert len(names) == len(set(names))


@pytest.mark.parametrize("mutant", table.MUTANTS, ids=[m.name for m in table.MUTANTS])
def test_each_mutant_edits_text_that_occurs_once_and_names_existing_killers(mutant):
    source = (ROOT / "src" / "adjointalg" / mutant.file).read_text()
    assert source.count(mutant.old) == 1
    assert mutant.new != mutant.old and mutant.killers
    for node in mutant.killers:
        path, name = re.fullmatch(r"(tests/\w+\.py)::(\w+)(?:\[[^\]]+\])?", node).groups()
        assert re.search(rf"^def {name}\(", (ROOT / path).read_text(), re.MULTILINE), node
