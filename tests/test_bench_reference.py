"""The benchmark's reference check, run the way ``bench/run.py`` runs it.

Before it times anything, ``bench/run.py`` runs each workload variant once at
its reference seed, with one BLAS thread, and compares the report with the one
recorded in ``bench/reference/`` within the benchmark's tolerance.  A change
that moves a reference report past that tolerance, such as an init tensor
laid out in another memory order, fails here.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

_CHECK = """
import json, sys, tempfile
from pathlib import Path
sys.path.insert(0, sys.argv[1])
from workloads import REFERENCE_SEED, WORKLOADS, compare_to_reference
from skiplab.cli import main

problems = []
with tempfile.TemporaryDirectory() as tmp:
    out = Path(tmp) / "report.csv"
    for w in WORKLOADS.values():
        for k in range(len(w.variants)):
            code = main(w.argv(k, w.seed_for(REFERENCE_SEED, k), str(out)))
            found = [f"exit {code}"] if code else compare_to_reference(
                out.read_text(), w.reference_path(k).read_text())
            problems += [f"{w.name}.{k}: {p}" for p in found]
print(json.dumps(problems))
"""


def test_bench_variants_match_their_reference_reports():
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [str(REPO / "src"),
                                                        os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", _CHECK, str(REPO / "bench")], env=env,
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr[-2000:]
    assert json.loads(done.stdout) == []
