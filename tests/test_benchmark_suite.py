"""The benchmark's own tests pass against the package source.

perfbench/tests pins what the benchmark relies on (the per-step call counts of
the public functions it traces, the metric names, the output checks), so a
package change that breaks a pin fails here too.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "perfbench"


def _tree(directory):
    return sorted((str(p.relative_to(directory)), p.stat().st_mtime_ns)
                  for p in directory.rglob("*") if p.is_file())


def test_benchmark_tests_pass_and_leave_the_benchmark_untouched():
    before = _tree(BENCH)
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "perfbench/tests"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout + done.stderr
    assert " passed" in done.stdout
    assert _tree(BENCH) == before
