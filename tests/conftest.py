import contextlib
import io
import time

import pytest

from glot import cli


@pytest.fixture(scope="session")
def gradcheck_sweeps():
    # One clean and one corrupt full-model `glot gradcheck` sweep, each as
    # (exit code, stdout, seconds), shared by the CLI's gradcheck tests and
    # the gradient acceptance criterion: each sweep takes seconds.
    sweeps = {}
    for key, argv in (("clean", ["gradcheck"]),
                      ("corrupt", ["gradcheck", "--corrupt", "enc0.gate_b"])):
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        sweeps[key] = code, out.getvalue(), time.perf_counter() - t0
    return sweeps
