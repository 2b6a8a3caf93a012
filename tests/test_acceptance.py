"""End-to-end acceptance gate: every numbered criterion must pass inside its
wall-clock budget. Each test prints its own one-line PASS/FAIL summary (run
pytest with -s to watch them stream)."""
import pytest

from covshift.acceptance import CAPS_SECONDS, CRITERIA, run_criterion


@pytest.mark.parametrize(
    "number,name", [(num, name) for num, name, _ in CRITERIA], ids=lambda v: str(v)
)
def test_criterion(number, name):
    res = run_criterion(number)
    budget = CAPS_SECONDS[number]
    status = "PASS" if res.passed else "FAIL"
    line = (
        f"{status} criterion {number:>2} [{res.seconds:7.2f}s / {budget:.0f}s] "
        f"{name}: {res.detail}"
    )
    print(line)
    assert res.passed, line
    assert res.seconds < budget, f"criterion {number} overran its budget: {line}"
