"""Only wide-field jobs pay for SciPy.

The wide feature kernel imports ``scipy.sparse`` inside its body, so a
scalar job — on either runtime — must never load it: the import costs
resident memory and start-up time on workloads that never aggregate a
row.  Checked in a fresh interpreter, since this test process may
already hold SciPy.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

SCRIPT = """
import sys
from repro.graph.generators import rmat
from repro.systems import run_app

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

edges = rmat(6, 4, 3)
for app in ("pr", "pr-push", "bfs", "sssp", "cc", "kcore", "bc"):
    run_app("d-galois", app, edges, 2)
    run_app("d-galois", app, edges, 2, runtime="process", workers=1)
    assert not scipy_modules(), (app, scipy_modules())
run_app("d-galois", "featprop", edges, 2, feature_dim=4, feature_rounds=2)
assert "scipy.sparse" in scipy_modules()
print("ok")
"""


def test_scalar_jobs_never_import_scipy():
    completed = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        capture_output=True,
        text=True,
        timeout=300,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip() == "ok"
