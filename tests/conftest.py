import os
import re
import sys

sys.path.insert(0, os.path.dirname(__file__))

# one BLAS thread, as the benchmark runs, unless the caller sets one; numpy
# reads these when it is first imported, which is after this file loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

_CRITERION = re.compile(r"test_acceptance\.py::test_criterion_(\d+)")


def pytest_runtest_logreport(report):
    """Emit one ACCEPTANCE line per gate criterion, outside capture."""
    m = _CRITERION.search(report.nodeid)
    if not m or report.when != "call":
        return
    from test_acceptance import CRITERIA
    number = int(m.group(1))
    verdict = "PASS" if report.passed else "FAIL"
    sys.stderr.write(
        f"\nACCEPTANCE {number}: {verdict} - {CRITERIA[number]}\n")
    sys.stderr.flush()
