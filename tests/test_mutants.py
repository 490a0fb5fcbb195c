"""Smoke test of the mutant catalogue in ``tests/mutants.py``.

Running the mutants takes minutes; this only checks that the catalogue still
applies to the current source, so that a refactor carries it along.
"""

import re

from mutants import MUTANTS, ROOT, mutated_text


def test_every_mutant_applies_once_and_names_tests_that_exist():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)
    for mutant in MUTANTS:
        text = (ROOT / mutant.path).read_text()
        for old, new in mutant.edits:
            assert old != new and text.count(old) == 1, (mutant.name, old)
        assert mutated_text(mutant) != text
        assert mutant.tests, mutant.name
        for test in mutant.tests:
            # A test function, or the runTest of a state machine's TestCase class.
            path, name = re.fullmatch(r"([\w/]+\.py)::(\w+)(::runTest|\[[\w-]+\])?",
                                      test).group(1, 2)
            source = (ROOT / path).read_text()
            assert "\ndef %s(" % name in source or "\nclass %s(" % name in source, \
                (mutant.name, test)
