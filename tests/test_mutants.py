"""The mutation runner's catalogue still applies to the tree: each mutant's
old text occurs exactly once in its file, and each name is the catalogue's
only one, since the runner reports by name.  Running the mutants is
scripts/mutants.py's job, not tier-1's."""

import pytest

from mutants import MUTANTS, ROOT


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_a_mutants_old_text_occurs_once_in_its_file(mutant):
    assert mutant.old != mutant.new
    assert (ROOT / mutant.file).read_text().count(mutant.old) == 1


def test_mutant_names_are_unique():
    names = [mutant.name for mutant in MUTANTS]
    assert len(set(names)) == len(names)
