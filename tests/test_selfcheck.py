import pytest

from passivenet.selfcheck import CHECKS


@pytest.mark.parametrize("check", [c for _, c in CHECKS], ids=[c.__name__ for _, c in CHECKS])
def test_invariant(check):
    check()
