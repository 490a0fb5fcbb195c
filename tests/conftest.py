"""Hypothesis settings profiles for the test suite.

The ``mutants`` profile skips shrinking: ``tests/mutants.py`` needs only to
see each named test fail, not the smallest example that fails it, and
shrinking a state machine's failure can take minutes.  The runner selects it
with ``--hypothesis-profile=mutants``; without that option every test runs
under Hypothesis's default profile.
"""

from hypothesis import Phase, settings

settings.register_profile("mutants", phases=[Phase.explicit, Phase.reuse, Phase.generate,
                                             Phase.target])
