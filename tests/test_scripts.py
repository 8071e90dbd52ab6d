import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"),
                                                       os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_convergence_study_prints_three_order_tables():
    lines = run_script("convergence_study.py")
    assert [line for line in lines if line.endswith(":")] == [
        "resolvent vs exp(b t):",
        "renewal vs exp(t):",
        "stochastic-convolution residual (common refinement):",
    ]
    # every row but each table's first gives an order: 3, 3 and 4 step sizes
    assert sum("order" in line for line in lines) == 2 + 2 + 3


def test_run_examples_reports_five_problems(tmp_path):
    lines = run_script("run_examples.py", "--skip-simulate", "--out", str(tmp_path))
    assert [line.split()[0] for line in lines] == [
        "gbm_subcritical", "gbm_critical", "gbm_supercritical", "two_atom_delay", "degenerate",
    ]
    assert all(" exit=0 " in line for line in lines)
    assert all((tmp_path / line.split()[0] / "report.json").is_file() for line in lines)


def test_stability_region_locates_the_boundary():
    lines = run_script("stability_region.py", "--step", "0.1")
    assert lines[0].startswith("closed-form boundary b0 =")
    assert lines[1].startswith("numerical boundary     =")
