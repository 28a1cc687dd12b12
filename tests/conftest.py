import subprocess
import sys

import pytest

import inar


@pytest.fixture(scope="session")
def case1_params():
    # nu=100 with the quarter-geometric kernel, the heavier of the two study cases
    return inar.ModelParams(
        nu=100.0, kernel=inar.geometric_kernel(0.25), kernel_tail="geometric:0.25"
    )


@pytest.fixture(scope="session")
def case2_params():
    return inar.ModelParams(nu=100.0, kernel=(0.8,), kernel_tail="lags:[0.8]")


def _run_cli(args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "inar", *[str(a) for a in args]],
        capture_output=True,
        text=True,
        cwd=cwd,
    )


@pytest.fixture(scope="session")
def run_cli():
    return _run_cli
