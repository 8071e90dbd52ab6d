import json
import math
import subprocess
import sys

import numpy as np
import pytest

from sdde_meansq import (
    ConfigurationError,
    NumericalError,
    config_hash,
    parse_config,
    run_pipeline,
    serialize_spec,
    with_overrides,
)
from sdde_meansq.cli import main as cli_main
from sdde_meansq.pipeline import emit_csv

GBM = {
    "alpha": 1,
    "mu": {"atoms": [[0, -1]]},
    "nu": {"atoms": [[0, 1]]},
    "phi": {"constant": 1},
    "numerical": {"h": 0.001, "T": 20},
}


def doc(**overrides):
    out = json.loads(json.dumps(GBM))
    for key, value in overrides.items():
        out[key] = value
    return out


class TestParseConfig:
    def test_valid_document(self):
        spec = parse_config(json.dumps(GBM))
        assert spec.alpha == 1.0
        assert spec.mu.atoms == ((0.0, -1.0),)
        assert spec.phi.kind == "constant"

    def test_misaligned_step(self):
        bad = doc(numerical={"h": 0.0007, "T": 20})
        with pytest.raises(ConfigurationError) as err:
            parse_config(json.dumps(bad))
        assert err.value.code == "GRID_MISALIGNED"

    def test_degenerate_instance_parses(self):
        e = math.e
        d = doc(nu={"atoms": [[0, -e], [-1, 1]]}, phi={"exponential": -1})
        spec = parse_config(json.dumps(d))
        assert spec.phi.rate == -1.0

    def test_off_grid_atom(self):
        bad = doc(nu={"atoms": [[-0.00035, 1]]})
        with pytest.raises(ConfigurationError) as err:
            parse_config(json.dumps(bad))
        assert err.value.code == "ATOM_OFF_GRID"

    def test_schema_violations_have_paths(self):
        with pytest.raises(ConfigurationError) as err:
            parse_config(json.dumps(doc(phi={"polynomial": 1})))
        assert err.value.code == "SCHEMA_INVALID"
        assert "phi" in str(err.value)
        with pytest.raises(ConfigurationError) as err:
            parse_config(json.dumps(doc(mu={"atoms": [[0, "x"]]})))
        assert "mu.atoms[0]" in str(err.value)
        with pytest.raises(ConfigurationError):
            parse_config("not json")

    def test_phi_samples_length_checked(self):
        bad = doc(phi={"samples": [1.0, 2.0, 3.0]})
        with pytest.raises(ConfigurationError) as err:
            parse_config(json.dumps(bad)).phi_segment()
        assert err.value.code == "PHI_SAMPLES_MISMATCH"

    def test_round_trip(self):
        d = doc(
            nu={"atoms": [[0, 0.5], [-1, 0.5]], "density": [[-0.5, 0.25], [0, 0.75]]},
            phi={"exponential": -0.3},
        )
        d["numerical"]["band"] = 0.002
        d["numerical"]["mc"] = {"paths": 500, "seed": 3, "workers": 2}
        spec = parse_config(json.dumps(d))
        again = parse_config(json.dumps(serialize_spec(spec)))
        assert again == spec
        assert config_hash(again) == config_hash(spec)

    def test_overrides(self):
        spec = parse_config(json.dumps(GBM))
        out = with_overrides(spec, seed=9, paths=50, step=0.01, horizon=5.0)
        assert out.mc.seed == 9 and out.mc.paths == 50
        assert out.h == 0.01 and out.T == 5.0


class TestEmitCsv:
    def test_single_trace(self, tmp_path):
        p = tmp_path / "out.csv"
        emit_csv(p, ["t", "value"], [np.array([0.0, 0.5]), np.array([1.0, 1.0 / 3.0])])
        body = p.read_bytes().decode()
        assert body.splitlines()[0] == "t,value"
        assert "0.33333333333333331" in body
        assert "\r" not in body

    def test_bytes_match_a_per_value_writer(self, tmp_path):
        # the reference formats each value with format(x, ".17g")
        col = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, 1.0 / 3.0, 1e300, -2.5e-8])
        cols = [np.arange(col.size) * 0.1, col, col[::-1]]
        p = tmp_path / "special.csv"
        emit_csv(p, ["t", "a", "b"], cols)
        rows = ["t,a,b"] + [",".join(format(float(c[i]), ".17g") for c in cols)
                            for i in range(col.size)]
        assert p.read_bytes() == ("\n".join(rows) + "\n").encode()

    def test_empty_trace_header_only(self, tmp_path):
        p = tmp_path / "empty.csv"
        emit_csv(p, ["t", "value"], [np.array([]), np.array([])])
        assert p.read_text() == "t,value\n"


def _write(tmp_path, document, name="prob.json"):
    p = tmp_path / name
    p.write_text(json.dumps(document))
    return str(p)


class TestCli:
    def test_classify_writes_report(self, tmp_path):
        cfg = _write(tmp_path, GBM)
        code = cli_main(["classify", "--config", cfg, "--out", str(tmp_path)])
        assert code == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["classification"] == "SUBCRITICAL"
        assert report["norm_sq_gr"] == pytest.approx(0.5, abs=1e-4)
        assert report["inputs"]["config_hash"]

    def test_resolvent_csv(self, tmp_path):
        cfg = _write(tmp_path, doc(numerical={"h": 0.01, "T": 2}))
        assert cli_main(["resolvent", "--config", cfg, "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "resolvent.csv").read_text().splitlines()
        assert lines[0] == "t,value"
        assert len(lines) == 202
        assert float(lines[1].split(",")[1]) == 1.0

    def test_step_and_horizon_flags(self, tmp_path):
        cfg = _write(tmp_path, doc(numerical={"h": 0.01, "T": 2}))
        assert cli_main(
            ["resolvent", "--config", cfg, "--out", str(tmp_path),
             "--step", "0.02", "--horizon", "1"]
        ) == 0
        lines = (tmp_path / "resolvent.csv").read_text().splitlines()
        assert len(lines) == 52
        assert float(lines[-1].split(",")[0]) == 1.0

    def test_meansquare_csv(self, tmp_path):
        cfg = _write(tmp_path, doc(numerical={"h": 0.01, "T": 2}))
        assert cli_main(["meansquare", "--config", cfg, "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "meansq_renewal.csv").read_text().splitlines()
        t, v = lines[-1].split(",")
        assert float(t) == 2.0
        assert float(v) == pytest.approx(math.exp(-2.0), rel=1e-3)

    def test_simulate_and_metadata(self, tmp_path):
        d = doc(numerical={"h": 0.01, "T": 1, "mc": {"paths": 64, "seed": 5, "workers": 1}})
        cfg = _write(tmp_path, d)
        assert cli_main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "meansq_mc.csv").read_text().splitlines()
        assert lines[0] == "t,mean_sq,stderr"
        meta = json.loads((tmp_path / "meansq_mc_meta.json").read_text())
        assert meta["paths"] == 64 and meta["seed"] == 5
        assert meta["diverged_paths"] == 0 and meta["valid"] is True
        assert meta["tilt"] == 2.0  # twice the noise atom at lag 0

    def test_compare_columns_and_seed_override(self, tmp_path):
        d = doc(numerical={"h": 0.01, "T": 1, "mc": {"paths": 128, "seed": 5, "workers": 1}})
        cfg = _write(tmp_path, d)
        assert cli_main(
            ["compare", "--config", cfg, "--out", str(tmp_path), "--seed", "6", "--paths", "64"]
        ) == 0
        lines = (tmp_path / "compare.csv").read_text().splitlines()
        assert lines[0] == "t,meansq_renewal,meansq_mc,mc_stderr,z"
        zs = [abs(float(l.split(",")[4])) for l in lines[2:]]
        assert max(zs) < 6.0

    def test_exit_code_config_error(self, tmp_path, capsys):
        cfg = _write(tmp_path, doc(numerical={"h": 0.0007, "T": 20}))
        assert cli_main(["classify", "--config", cfg, "--out", str(tmp_path)]) == 1
        assert "GRID_MISALIGNED" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    def test_exit_code_missing_file(self, tmp_path):
        assert cli_main(["classify", "--config", str(tmp_path / "nope.json")]) == 1

    def test_exit_code_uncertified(self, tmp_path):
        d = doc(mu={"atoms": [[0, 0.5]]}, numerical={"h": 0.01, "T": 10})
        cfg = _write(tmp_path, d)
        assert cli_main(["classify", "--config", cfg, "--out", str(tmp_path)]) == 2
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["classification"] == "UNCERTIFIED"
        assert report["truncation_error"] == math.inf

    def test_exit_code_numerical_failure(self, tmp_path, monkeypatch, capsys):
        import sdde_meansq.cli as cli_mod

        def boom(*args, **kwargs):
            raise NumericalError("synthetic failure")

        monkeypatch.setattr(cli_mod, "run_pipeline", boom)
        cfg = _write(tmp_path, GBM)
        assert cli_main(["classify", "--config", cfg, "--out", str(tmp_path)]) == 3
        assert "synthetic failure" in capsys.readouterr().err

    def test_diverged_paths_exit_numerical_failure(self, tmp_path, capsys):
        d = doc(
            mu={"atoms": [[0, 60]]},
            nu={"atoms": [[0, 3]]},
            numerical={"h": 0.01, "T": 10, "mc": {"paths": 64, "seed": 3, "workers": 1}},
        )
        cfg = _write(tmp_path, d)
        out = tmp_path / "out"
        assert cli_main(["simulate", "--config", cfg, "--out", str(out)]) == 3
        assert "64 of 64 Monte Carlo paths diverged" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_simulate_requires_mc_settings(self, tmp_path):
        cfg = _write(tmp_path, doc(numerical={"h": 0.01, "T": 1}))
        assert cli_main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 1

    def test_csv_determinism_across_runs(self, tmp_path):
        d = doc(numerical={"h": 0.01, "T": 1, "mc": {"paths": 200, "seed": 12, "workers": 1}})
        cfg = _write(tmp_path, d)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert cli_main(["simulate", "--config", cfg, "--out", str(out1)]) == 0
        assert cli_main(["simulate", "--config", cfg, "--out", str(out2)]) == 0
        assert (out1 / "meansq_mc.csv").read_bytes() == (out2 / "meansq_mc.csv").read_bytes()

    def test_installed_entry_point(self, tmp_path):
        cfg = _write(tmp_path, doc(numerical={"h": 0.01, "T": 2}))
        proc = subprocess.run(
            [sys.executable, "-m", "sdde_meansq.cli", "resolvent", "--config", cfg,
             "--out", str(tmp_path)],
            capture_output=True,
        )
        assert proc.returncode == 0
        assert (tmp_path / "resolvent.csv").exists()


class TestRunPipeline:
    def test_partial_artifacts_removed_on_failure(self, tmp_path, monkeypatch):
        spec = parse_config(json.dumps(doc(numerical={"h": 0.01, "T": 2})))
        import sdde_meansq.pipeline as pl

        def boom(analysis):
            raise NumericalError("forced")

        monkeypatch.setattr(pl, "renewal_mean_square", boom)
        with pytest.raises(NumericalError):
            run_pipeline(spec, {"classify", "meansquare"}, str(tmp_path))
        assert not (tmp_path / "report.json").exists()
        assert not (tmp_path / "meansq_renewal.csv").exists()

    def test_unknown_command_rejected(self, tmp_path):
        spec = parse_config(json.dumps(GBM))
        with pytest.raises(ValueError):
            run_pipeline(spec, {"frobnicate"}, str(tmp_path))
