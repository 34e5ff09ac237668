import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path


def traced_peak(fn) -> int:
    """Peak bytes that ``tracemalloc`` sees allocated while ``fn()`` runs; numpy
    reports its array buffers to it, LAPACK's own workspaces it does not see."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def fresh_interpreter(script: str, *args: str):
    """Run ``script`` in a fresh interpreter that imports this checkout's
    skiplab, at 1 BLAS thread; its stdout is one JSON value."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", script, *args],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]
    return json.loads(done.stdout)
