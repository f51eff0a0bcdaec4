"""The invariant registry: every entry of ``lplab.checks.ALL_CHECKS`` passes."""

import pytest

from lplab import checks


@pytest.mark.parametrize("check", [fn for _, fn in checks.ALL_CHECKS],
                         ids=[name for name, _ in checks.ALL_CHECKS])
def test_check(check):
    check()


@pytest.mark.parametrize("name, token, degree, radius", checks.HOMOTOPY_CASES)
def test_central_multiplier_is_certified(name, token, degree, radius):
    checks.check_homotopy_certificate(name, token, degree, radius)


def test_non_central_multiplier_fails_the_certificate():
    # x does not commute with y, so symbols survive at 12 of the 17 tuples
    with pytest.raises(AssertionError,
                       match="survives at 12 of 17 tuples for heisenberg"):
        checks.check_homotopy_certificate("heisenberg", "x", 1, 2)
