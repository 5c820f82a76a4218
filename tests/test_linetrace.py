import time
from pathlib import Path

import linetrace
from rpemsim import estimator


def test_linetrace_records_a_run_line_and_reports_an_unrun_branch():
    path = Path(estimator.__file__).resolve()
    lines = path.read_text().splitlines()
    early = lines.index("        return 0.0, 0.0, 0.0") + 1
    branch = lines.index("    if b != 0.0:") + 1
    start = time.perf_counter()
    with linetrace.recording() as hits:
        estimator.pseudoinverse_2x2(0.0, 0.0, 0.0)  # the zero matrix returns early
    missed = linetrace.never_run(hits, [path])
    elapsed = time.perf_counter() - start
    assert (str(path), early) in hits
    assert f"src/rpemsim/estimator.py:{early}" not in missed
    assert f"src/rpemsim/estimator.py:{branch}" in missed
    assert elapsed < 0.1
