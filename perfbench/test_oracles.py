"""Each benchmark oracle flags a corrupted answer.

    python3 -m pytest perfbench

run.py runs the same checks before every benchmark run.
"""

import pytest

import oracles


@pytest.mark.parametrize("name", sorted(oracles.SELF_TESTS))
def test_oracle_flags_corruption(name):
    oracles.SELF_TESTS[name]()
