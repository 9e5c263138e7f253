"""The benchmark's traced mode wraps library callables by name
(`perfbench/spans.py`); a renamed or removed target must fail here rather
than break `perfbench/run.py --trace 1` unnoticed."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_span_instrumentation_finds_every_target():
    script = (
        "import sys\n"
        f"sys.path[:0] = [{str(ROOT / 'src')!r}, {str(ROOT / 'perfbench')!r}]\n"
        "from spans import Tracer, instrument\n"
        "instrument(Tracer())\n"
    )
    out = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0, out.stderr
