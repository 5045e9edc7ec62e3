"""The benchmark's own tests, run against this checkout's package."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_tests_pass():
    # perfbench calls the package's API (model.corpus_document, generator,
    # qlang, SequentialScanEngine), so a change that breaks that API fails
    # here rather than only when the benchmark runs. No bytecode is written,
    # so perfbench/ is left as it was.
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "perfbench", "-q", "-p", "no:cacheprovider"],
        cwd=ROOT,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stdout + result.stderr
