import pytest

from phasekit import ConfigError
from phasekit.verify import run_verification


@pytest.fixture(scope="module")
def report():
    return run_verification(n_max=6, tol=1e-12)


def test_precondition():
    with pytest.raises(ConfigError):
        run_verification(n_max=1)
    with pytest.raises(ConfigError):
        run_verification(tol=0.0)


def test_counterexample_is_pass_by_expectation(report):
    check = next(r for r in report.results if r.name == "double-sum-counterexample")
    assert check.passed
    assert check.residual >= 0.5


def test_squeezing_closed_form_check_fails_as_designed(report):
    # the printed squeezing form contradicts the trajectory second moment for
    # ubar != 0 (already at tau = 0); the check must report that honestly
    check = next(r for r in report.results if r.name == "squeezing-closed-form")
    assert not check.passed
    assert check.residual > 0.1


def test_overall_report_shape(report):
    assert not report.ok  # exactly because of the squeezing check
    failed = [r for r in report.results if not r.passed]
    assert [r.name for r in failed] == ["squeezing-closed-form"]
    lines = report.lines()
    assert len(lines) == len(report.results) + 1
    assert lines[-1].endswith("1 failed")
    assert any(line.startswith("PASS  boson-beta-unitarity") for line in lines)
