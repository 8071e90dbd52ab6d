import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_convergence_study_prints_three_order_tables():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"),
                                                       os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "convergence_study.py")],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert [line for line in lines if line.endswith(":")] == [
        "resolvent vs exp(b t):",
        "renewal vs exp(t):",
        "stochastic-convolution residual (common refinement):",
    ]
    # every row but each table's first gives an order: 3, 3 and 4 step sizes
    assert sum("order" in line for line in lines) == 2 + 2 + 3
