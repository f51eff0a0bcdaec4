"""The invariant registry: every entry of ``lplab.checks.ALL_CHECKS`` passes."""

import pytest

from lplab import checks


@pytest.mark.parametrize("check", [fn for _, fn in checks.ALL_CHECKS],
                         ids=[name for name, _ in checks.ALL_CHECKS])
def test_check(check):
    check()
