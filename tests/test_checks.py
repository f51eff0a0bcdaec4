"""The invariant registry: every entry of ``lplab.checks.ALL_CHECKS`` passes."""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from random import Random

import pytest

from lplab import checks
from lplab.group_ring import RingElement
from lplab.groups import InvariantViolation, group_from_name

SOURCE = Path(__file__).resolve().parent.parent / "src"


@pytest.mark.parametrize("check", [fn for _, fn in checks.ALL_CHECKS],
                         ids=[name for name, _ in checks.ALL_CHECKS])
def test_check(check):
    check()


@pytest.mark.parametrize("name, token, degree, radius", checks.HOMOTOPY_CASES)
def test_central_multiplier_is_certified(name, token, degree, radius):
    checks.check_homotopy_certificate(name, token, degree, radius)


def test_non_central_multiplier_fails_the_certificate():
    # x does not commute with y, so symbols survive at 12 of the 17 tuples
    with pytest.raises(InvariantViolation,
                       match="survives at 12 of 17 tuples for heisenberg"):
        checks.check_homotopy_certificate("heisenberg", "x", 1, 2)


@pytest.mark.parametrize("name", ["S3", "heisenberg"])
def test_sampled_checks_keep_their_draws(name):
    # the draws written out as the sampled checks made them before they
    # called `Random.choice` on the ball
    ball = group_from_name(name).ball(4)
    rng, reference = Random(1), Random(1)
    for _ in range(300):
        pairs = [(ball[reference.randrange(len(ball))],
                  Fraction(reference.randint(-5, 5), reference.randint(1, 4)))
                 for _ in range(reference.randint(1, 3))]
        assert checks._random_ring_element(ball, rng) == \
            RingElement(ball[0].group, pairs)
    assert rng.getstate() == reference.getstate()


def test_ring_axioms_catch_a_wrong_product(monkeypatch):
    convolve = RingElement.convolve

    def off_by_one(u, v):
        w = convolve(u, v)
        if u.support_size() > 1 and v.support_size() > 1 and w.numerators:
            numerators = dict(w.numerators)
            numerators[min(numerators)] += 1
            return RingElement._trusted(w.group, numerators, w.denominator)
        return w

    monkeypatch.setattr(RingElement, "convolve", off_by_one)
    with pytest.raises(InvariantViolation,
                       match="ring associativity fails in cyclic:4"):
        checks.check_ring_axioms()


STAR_MUTANT = """
import sys
from lplab import checks
from lplab.group_ring import RingElement
from lplab.groups import InvariantViolation

RingElement.star = lambda u: u
try:
    checks.check_coboundary_involution()
except InvariantViolation as exc:
    print(sys.flags.optimize, exc)
"""


def test_checks_survive_python_optimize():
    # -O strips assert statements; the registry must still see a star that
    # does not invert, so the dual is not the coboundary
    done = subprocess.run([sys.executable, "-O", "-c", STAR_MUTANT],
                          capture_output=True, text=True, check=True,
                          env={**os.environ, "PYTHONPATH": str(SOURCE)})
    assert done.stdout == ("1 the dual of boundary 1 of cyclic-inf at R=3 is "
                           "not its coboundary\n")
