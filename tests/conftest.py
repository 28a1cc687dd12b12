import io
import os
import subprocess
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout

import pytest

import inar
import inar.cli


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
    """``inar`` in process: ``inar.cli.main`` with stdout and stderr
    captured, run in ``cwd`` if given. A ``SystemExit`` (usage errors,
    ``--version``) gives its code, as the process would exit with. Each
    warning the test's filters let through is appended to stderr as the
    process would print it; the ones they turn into errors still raise."""
    argv = [str(a) for a in args]
    out, err = io.StringIO(), io.StringIO()
    home = os.getcwd()
    try:
        if cwd is not None:
            os.chdir(cwd)
        with redirect_stdout(out), redirect_stderr(err), \
                warnings.catch_warnings(record=True) as caught:
            try:
                code = inar.cli.main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
    finally:
        os.chdir(home)
    for w in caught:
        err.write(warnings.formatwarning(w.message, w.category, w.filename, w.lineno, w.line))
    return subprocess.CompletedProcess(argv, code, out.getvalue(), err.getvalue())


def _run_cli_process(args, cwd=None):
    """``python -m inar`` in a fresh interpreter, for the tests that check
    the process itself."""
    return subprocess.run(
        [sys.executable, "-m", "inar", *[str(a) for a in args]],
        capture_output=True,
        text=True,
        cwd=cwd,
    )


@pytest.fixture(scope="session")
def run_cli():
    return _run_cli


@pytest.fixture(scope="session")
def run_cli_process():
    return _run_cli_process
