"""The benchmark's tracer still fits the package.

``perfbench/layers.py`` wraps package functions by name, and its hooks read
arguments and results of the calls (``args[3].path_count`` of
``simulate_mean_square``, for one).  A target that no longer exists is
skipped, and a hook that fails is written on its span, so neither stops a
benchmark run.  Here every command runs once under that tracer, and a
missing target or a failed hook fails the test.
"""

import json
from pathlib import Path

import sdde_meansq
from sdde_meansq import cli
from sdde_meansq.pipeline import COMMANDS

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

DOC = {
    "alpha": 1.0,
    "mu": {"atoms": [[0, -1.0]], "density": [[-1.0, 0.2], [0, 0.1]]},
    "nu": {"atoms": [[0, 0.5]]},
    "phi": {"constant": 1.0},
    "numerical": {"h": 0.01, "T": 1.0, "mc": {"paths": 16, "seed": 1, "workers": 2}},
}


def test_every_wrap_target_resolves_and_no_hook_fails(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers
    from tracer import Tracer

    config = tmp_path / "config.json"
    config.write_text(json.dumps(DOC))
    tracer = Tracer()
    layers.install(tracer, sdde_meansq)
    try:
        codes = [
            cli.main([command, "--config", str(config), "--out", str(tmp_path / command)])
            for command in COMMANDS
        ]
    finally:
        restored = tracer.restore()
    assert restored
    assert codes == [0] * len(COMMANDS)
    assert tracer.absent == []
    assert [s.attrs for s in tracer.spans if "hook_error" in s.attrs] == []
    simulations = [s for s in tracer.spans if s.name == "montecarlo.simulate"]
    assert len(simulations) == 2  # simulate and compare
    for span in simulations:
        assert {"workers", "diverged"} <= set(span.attrs)
