import io
import json
import math
import os
import platform
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

import sdde_meansq.cli as cli_mod
from sdde_meansq import PhiSpec, SignedMeasure, parse_config, run_pipeline
from sdde_meansq._g17 import _E_MAX, _E_MIN
from sdde_meansq.cli import main as cli_main
from sdde_meansq.config import ProblemSpec, config_hash
from sdde_meansq.errors import ConfigurationError, NumericalError
from sdde_meansq.pipeline import _CSV_ROWS, COMMANDS, emit_csv

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
        with pytest.raises(ConfigurationError) as err:
            parse_config(json.dumps(doc(alpha=-1)))
        assert err.value.field == "alpha" and str(err.value) == "alpha: must be >= 0, got -1.0"
        with pytest.raises(ConfigurationError):
            parse_config("not json")

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_64_bits_rejected(self, seed):
        # a stream key holds the seed in 64 bits: these would draw as 2**64 - 1 and 0
        d = doc(numerical={"h": 0.01, "T": 1, "mc": {"paths": 16, "seed": seed}})
        with pytest.raises(ConfigurationError) as err:
            parse_config(json.dumps(d))
        assert err.value.code == "BAD_VALUE" and err.value.field == "numerical.mc.seed"
        d["numerical"]["mc"]["seed"] = seed % 2**64
        assert parse_config(json.dumps(d)).mc.master_seed == seed % 2**64

    def test_phi_samples_length_checked(self):
        bad = doc(phi={"samples": [1.0, 2.0, 3.0]})
        with pytest.raises(ConfigurationError) as err:
            parse_config(json.dumps(bad)).phi_segment()
        assert err.value.code == "PHI_SAMPLES_MISMATCH"

    def test_segment_is_built_with_the_problem(self):
        d = doc(phi={"samples": [1.0] * 1001})
        spec = parse_config(json.dumps(d))
        assert spec.phi_segment() is spec.phi_segment()
        assert spec.phi_segment().values.size == 1001

    def test_segment_values_must_be_finite(self):
        # phi(-1) = 1e308 e overflows to inf: an error when the config is read, and no warning
        with pytest.raises(ConfigurationError) as err:
            parse_config(json.dumps(doc(phi={"exponential": {"scale": 1e308, "rate": -1}})))
        assert err.value.code == "BAD_VALUE"
        assert str(err.value) == "phi.exponential: segment values must be finite"

    def test_exponential_with_an_overflowing_factor_parses(self):
        # e^(750 |u|) and e^(800 |u|) overflow; the segments they scale are finite
        seg = parse_config(json.dumps(doc(
            numerical={"h": 0.01, "T": 1}, phi={"exponential": {"scale": 1e-300, "rate": -750}},
        ))).phi_segment()
        assert seg.values[0] == pytest.approx(math.exp(750.0 + math.log(1e-300)), rel=1e-12)
        assert seg.values[-1] == 1e-300
        seg = parse_config(json.dumps(doc(
            numerical={"h": 0.01, "T": 1}, phi={"exponential": {"scale": 0, "rate": -800}},
        ))).phi_segment()
        assert not seg.values.any()

    def test_negative_scale_keeps_its_sign(self):
        spec = parse_config(json.dumps(doc(phi={"exponential": {"scale": -2, "rate": -1}})))
        assert spec.phi_segment().values[-1] == -2.0
        assert spec.phi_segment().values[0] == -2.0 * math.exp(1.0)

    def test_exponential_defaults_are_the_phi_spec_defaults(self):
        assert parse_config(json.dumps(doc(phi={"exponential": {}}))).phi == PhiSpec("exponential")
        spec = parse_config(json.dumps(doc(phi={"exponential": {"rate": -2}})))
        assert spec.phi == PhiSpec("exponential", rate=-2.0)


def _hash(d):
    return config_hash(parse_config(json.dumps(d)))


class TestConfigHash:
    BASE = doc(
        nu={"atoms": [[0, 0.5], [-1, 0.5]], "density": [[-0.5, 0.25], [0, 0.75]]},
        phi={"exponential": -0.3},
        numerical={"h": 0.01, "T": 2, "band": 0.002,
                   "mc": {"paths": 500, "seed": 3, "workers": 2}},
    )

    @pytest.mark.parametrize("one, other", [
        ({"phi": {"exponential": -1}}, {"phi": {"exponential": {"rate": -1, "scale": 1}}}),
        ({"alpha": 1}, {"alpha": 1.0}),
        ({"nu": {}}, {"nu": {"atoms": []}}),
        ({"numerical": {"h": 0.01, "T": 2, "mc": {}}},
         {"numerical": {"h": 0.01, "T": 2, "mc": {"paths": 1000, "seed": 0, "workers": 1}}}),
        ({"numerical": {"h": 0.01, "T": 2, "band": None}}, {"numerical": {"h": 0.01, "T": 2}}),
        ({"phi": {"constant": 1}}, {"phi": {"exponential": 0}}),
        ({"phi": {"constant": -2.5}}, {"phi": {"exponential": {"rate": -0.0, "scale": -2.5}}}),
    ], ids=["phi-shorthand", "int-alpha", "empty-measure", "mc-defaults", "null-band",
            "rate-0-exponential", "rate-0-exponential-scale"])
    def test_spellings_of_one_problem_hash_equal(self, one, other):
        assert _hash(doc(**one)) == _hash(doc(**other))

    @pytest.mark.parametrize("change", [
        {"numerical": {"h": 0.01, "T": 2, "band": 0.002,
                       "mc": {"paths": 500, "seed": 4, "workers": 2}}},
        {"phi": {"exponential": {"rate": -0.3, "scale": 2}}},
        {"numerical": {"h": 0.01, "T": 3, "band": 0.002,
                       "mc": {"paths": 500, "seed": 3, "workers": 2}}},
        {"nu": {"atoms": [[0, 0.5], [-1, 0.5]], "density": [[-0.5, 0.25], [0, 0.5]]}},
        {"phi": {"constant": 1}},
    ], ids=["seed", "scale", "T", "density", "phi-kind"])
    def test_a_changed_field_changes_the_hash(self, change):
        assert _hash(doc(**{**self.BASE, **change})) != _hash(self.BASE)

    def test_a_rate_0_exponential_is_the_constant(self):
        built = PhiSpec("exponential", value=-2.5, rate=0)
        assert built == PhiSpec("constant", value=-2.5)
        assert built.kind == "constant"
        u = np.linspace(-1.0, 0.0, 11)
        phi = built.sampler()(u)
        assert np.array_equal(phi.view(np.int64), np.full_like(u, -2.5).view(np.int64))

    def test_a_spec_built_directly_hashes_as_parsed(self):
        # ints and an array of samples are held as floats, as parse_config gives them
        d = doc(phi={"samples": [0.5] * 11}, numerical={"h": 0.1, "T": 1})
        spec = parse_config(json.dumps(d))
        built = ProblemSpec(
            alpha=1, mu=SignedMeasure(1, atoms=((0, -1),)), nu=SignedMeasure(1, atoms=((0, 1),)),
            phi=PhiSpec("samples", samples=np.full(11, 0.5)), h=0.1, T=1,
        )
        assert built == spec
        assert config_hash(built) == config_hash(spec)


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
        col = np.array([0.0, -0.0, 5e-324, 1.0 / 3.0, 1e300, -2.5e-8])
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

    @pytest.mark.parametrize("n_cols", [1, 2, 3, 4, 5])
    def test_bytes_match_savetxt(self, tmp_path, n_cols):
        # more rows than one write slice, so slice boundaries are covered
        n = 2 * _CSV_ROWS + 3
        special = np.array([-0.0, 5e-324, 1e300, -1e300, 2.0**53, 1.0 / 3.0])
        cols = [np.arange(n) * 0.001]
        for k in range(1, n_cols):
            col = np.random.default_rng(k).standard_normal(n) * 10.0**k
            if k % 2:
                col = np.round(col)  # integer-valued
            col[k : k + special.size] = special
            cols.append(col)
        header = [f"c{k}" for k in range(n_cols)]
        p = tmp_path / "out.csv"
        emit_csv(p, header, cols)
        ref = io.BytesIO()
        np.savetxt(ref, np.column_stack(cols), fmt="%.17g", delimiter=",",
                   header=",".join(header), comments="")
        body = p.read_bytes()
        assert body == ref.getvalue()
        assert b"\r" not in body

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_column_raises(self, tmp_path, bad):
        t = np.arange(5) * 0.25
        v = np.ones(5)
        v[3] = bad
        p = tmp_path / "bad.csv"
        with pytest.raises(NumericalError, match=r"column value .* t = 0\.75"):
            emit_csv(p, ["t", "value"], [t, v])
        assert not p.exists()


class TestEmitCsvDifferential:
    """Every byte of emit_csv against format(x, ".17g"), row by row."""

    @staticmethod
    def _assert_rows_match(tmp_path, *values):
        cols = [np.arange(values[0].size) * 0.5] + [np.asarray(v, dtype=float) for v in values]
        p = tmp_path / "digits.csv"
        emit_csv(p, [f"c{k}" for k in range(len(cols))], cols)
        lines = p.read_bytes().decode().split("\n")
        assert lines[-1] == "" and len(lines) == cols[0].size + 2
        for i, line in enumerate(lines[1:-1]):
            expected = ",".join(format(float(c[i]), ".17g") for c in cols)
            assert line == expected, f"row {i}"

    def test_random_bit_patterns(self, tmp_path):
        bits = np.random.default_rng(19).integers(0, 2**64, 2 * 10**5, dtype=np.uint64)
        x = bits.view(np.float64)
        x = x[np.isfinite(x)]
        assert (x < 0).sum() > 90_000 and (x > 0).sum() > 90_000
        self._assert_rows_match(tmp_path, x[: x.size // 2], x[x.size // 2 : 2 * (x.size // 2)])

    def test_powers_of_ten_and_their_neighbours(self, tmp_path):
        # log10 of a neighbour can round to the power's exponent
        p = np.array([float(f"1e{k}") for k in range(-323, 309)])
        below, above = np.nextafter(p, 0.0), np.nextafter(p, np.inf)
        self._assert_rows_match(tmp_path, p, below, above, -below)

    def test_exact_halfway_cases(self, tmp_path):
        # at E = 15 - j the 18th digit of N + odd / 2^(j + 2) is an exact 5,
        # which %.17g rounds half-even: 1e15 + 0.25 prints ...0.2
        rng = np.random.default_rng(23)
        ties = [1e15 + 0.25, 1e15 + 0.75, 2.0**50 + 0.25]
        for j in range(5):
            whole = rng.integers(10 ** (15 - j), 10 ** (16 - j), 2000).astype(float)
            odd = 2 * rng.integers(0, 2 ** (j + 1), 2000) + 1
            ties.extend(whole + odd / 2.0 ** (j + 2))
        ties = np.array(ties)
        self._assert_rows_match(tmp_path, ties, -ties)

    def test_notation_switch(self, tmp_path):
        # fixed notation for -4 <= E < 17, exponent notation outside
        rng = np.random.default_rng(29)
        x = np.concatenate([
            (1.0 + 9.0 * rng.random(500)) * 10.0**e for e in (-6, -5, -4, -3, 15, 16, 17, 18)
        ] + [np.array([1e-5, 1e-4, 9.9999e-5, 1e16, 1e17, 12345678901234567.0, 100.0, 0.5])])
        self._assert_rows_match(tmp_path, x, -x, np.round(x))

    def test_extremes(self, tmp_path):
        tiny = np.finfo(float).smallest_subnormal
        x = np.array([0.0, -0.0, tiny, -tiny, 2.0**-1022, np.nextafter(2.0**-1022, 0.0),
                      np.finfo(float).max, -np.finfo(float).max, 1e-300, 1e300, 1.0, -1.0])
        self._assert_rows_match(tmp_path, x, x[::-1])

    def test_row_order_holds_around_fallback_values(self, tmp_path):
        # every other value of the first column lies outside the fast path's
        # exponents (subnormal or near overflow) and is formatted by %
        rng = np.random.default_rng(31)
        n = 2 * _CSV_ROWS + 5
        slow = np.where(rng.random(n) < 0.5, 5e-324 * rng.integers(1, 2**40, n),
                        1e300 * (1.0 + rng.random(n)))
        fast = rng.standard_normal(n) * 10.0 ** rng.integers(-20, 20, n)
        mixed = np.where(np.arange(n) % 2 == 0, slow, fast)
        e = np.floor(np.log10(slow))
        assert ((e < _E_MIN) | (e > _E_MAX)).all()
        self._assert_rows_match(tmp_path, mixed, fast)


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
        d = doc(numerical={"h": 0.01, "T": 1, "mc": {"paths": 64, "seed": 6, "workers": 1}})
        cfg = _write(tmp_path, d)
        assert cli_main(["compare", "--config", cfg, "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "compare.csv").read_text().splitlines()
        assert lines[0] == "t,meansq_renewal,meansq_mc,mc_stderr,z"
        zs = [abs(float(l.split(",")[4])) for l in lines[2:]]
        assert max(zs) < 6.0

    def test_exit_code_config_error(self, tmp_path, capsys):
        cfg = _write(tmp_path, doc(numerical={"h": 0.0007, "T": 20}))
        assert cli_main(["classify", "--config", cfg, "--out", str(tmp_path)]) == 1
        assert "GRID_MISALIGNED" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("command", COMMANDS)
    @pytest.mark.parametrize("field", ["mu", "nu"])
    def test_one_knot_density_is_a_configuration_error(self, tmp_path, capsys, field, command):
        # one knot defines the zero density, so it is a mistake, not an atom of weight h * value
        d = doc(nu={"atoms": [[0, 0.5]]}, numerical={"h": 0.01, "T": 1, "mc": {"paths": 16}})
        d[field] = {**d[field], "density": [[-0.5, -2]]}
        out = tmp_path / "out"
        assert cli_main([command, "--config", _write(tmp_path, d), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"config error [BAD_VALUE]: {field}: a density needs at least two knots\n"
        )
        assert not out.exists()

    def test_exit_code_missing_file(self, tmp_path):
        assert cli_main(["classify", "--config", str(tmp_path / "nope.json")]) == 1

    def test_exit_code_uncertified(self, tmp_path):
        d = doc(mu={"atoms": [[0, 0.5]]}, numerical={"h": 0.01, "T": 10})
        cfg = _write(tmp_path, d)
        assert cli_main(["classify", "--config", cfg, "--out", str(tmp_path)]) == 2
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["classification"] == "UNCERTIFIED"
        assert report["truncation_error"] == math.inf

    def test_given_band_does_not_hide_the_truncation_error(self, tmp_path):
        # x' = -1.5 x(t - 1): the resolvent decays at rate 0.033, so T = 60
        # misses 1.9 % of the statistic, whose true value is 1.010.  The band
        # 0.001 leaves 0.9909 below it, but within three truncation errors.
        d = doc(
            mu={"atoms": [[-1, -1.5]]},
            nu={"atoms": [[0, 0.32757]]},
            numerical={"h": 0.01, "T": 60, "band": 0.001},
        )
        cfg = _write(tmp_path, d)
        assert cli_main(["classify", "--config", cfg, "--out", str(tmp_path)]) == 2
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["classification"] == "UNCERTIFIED"
        assert report["norm_sq_gr"] == pytest.approx(0.9909, abs=1e-4)
        assert 1e-3 < 1.0 - report["norm_sq_gr"] <= 1e-3 + 3.0 * report["truncation_error"]

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
        assert not out.exists()

    def test_infinite_z_exits_numerical_failure(self, tmp_path, capsys):
        # no noise: the Monte Carlo stderr is 0 while the two routes differ
        # by discretization, so z is undefined from the first step on; no
        # value overflowed, so no shorter horizon would help
        d = doc(
            mu={"atoms": [[0, -1]]},
            nu={"atoms": [[0, 0]]},
            numerical={"h": 0.01, "T": 1, "mc": {"paths": 64, "seed": 3}},
        )
        cfg = _write(tmp_path, d)
        out = tmp_path / "out"
        assert cli_main(["compare", "--config", cfg, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert (
            "the Monte Carlo standard error is 0 at t = 0.01 while the routes differ there, "
            "so z is undefined"
        ) in err
        assert "shorten the horizon" not in err
        assert not (out / "compare.csv").exists()
        assert not out.exists()

    def test_flags_do_not_leak_into_the_next_call(self, tmp_path):
        # one parser serves every call of the process, a refused one included
        d = doc(numerical={"h": 0.01, "T": 1, "mc": {"paths": 64, "seed": 5, "workers": 1}})
        cfg = _write(tmp_path, d)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        argv = ["simulate", "--config", cfg, "--out"]
        assert cli_main(argv + [str(out1), "--seed", "9", "--paths", "32"]) == 1
        assert cli_main(argv + [str(out2)]) == 0
        assert not out1.exists()
        meta = json.loads((out2 / "meansq_mc_meta.json").read_text())
        assert (meta["seed"], meta["paths"]) == (5, 64)

    @pytest.mark.parametrize("flag", [
        ["--seed", "1"], ["--paths", "64"], ["--step", "0.01"], ["--horizon", "1"],
        ["--step", "-inf"],
    ], ids=["seed", "paths", "step", "horizon", "step-minus-inf"])
    def test_config_fields_are_not_flags(self, tmp_path, capsys, flag):
        # the config file is the one source of a run's parameters
        cfg = _write(tmp_path, doc(numerical={"h": 0.01, "T": 1, "mc": {"paths": 16}}))
        out = tmp_path / "out"
        assert cli_main(["simulate", "--config", cfg, "--out", str(out), *flag]) == 1
        assert capsys.readouterr().err == (
            f"config error [USAGE]: unrecognized arguments: {' '.join(flag)} "
            "(see sdde-meansq --help)\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["frobnicate", "--config", "{cfg}"],
        ["classify"],
        ["classify", "--config", "{cfg}", "--paths", "ten"],
        ["classify", "--config", "{cfg}", "--colour"],
        [],
    ], ids=["unknown-command", "missing-config", "removed-flag", "unknown-flag", "empty"])
    def test_usage_error_is_a_configuration_error(self, tmp_path, capsys, argv):
        # exit code 2 is kept for an uncertified classification
        cfg = _write(tmp_path, GBM)
        assert cli_main([a.format(cfg=cfg) for a in argv]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error [USAGE]: ")
        assert err.count("\n") == 1

    def test_out_naming_a_file_is_a_configuration_error(self, tmp_path, capsys):
        cfg = _write(tmp_path, GBM)
        taken = tmp_path / "taken"
        taken.write_text("")
        assert cli_main(["classify", "--config", cfg, "--out", str(taken)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert taken.read_text() == ""

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "<command>" in out
        assert not any(flag in out for flag in ("--seed", "--paths", "--step", "--horizon"))

    @pytest.mark.parametrize("command", COMMANDS)
    @pytest.mark.parametrize("numerical, phi, error", [
        ({"mc": {"paths": 1}}, None, "BAD_VALUE]: numerical.mc.paths"),
        ({"mc": {"workers": 0}}, None, "BAD_VALUE]: numerical.mc.workers"),
        ({"mc": {"workers": -3}}, None, "BAD_VALUE]: numerical.mc.workers"),
        ({"T": 0}, None, "BAD_VALUE]: numerical.T"),
        ({"T": -1}, None, "BAD_VALUE]: numerical.T"),
        ({"h": 0}, None, "BAD_VALUE]: numerical.h"),
        ({"h": -0.01}, None, "BAD_VALUE]: numerical.h"),
        ({"band": 0}, None, "BAD_VALUE]: numerical.band"),
        # json writes these as the JSON extensions Infinity, -Infinity and NaN
        ({"h": math.inf}, None, "BAD_VALUE]: numerical.h"),
        ({"h": -math.inf}, None, "BAD_VALUE]: numerical.h"),
        ({"h": math.nan}, None, "BAD_VALUE]: numerical.h"),
        ({"T": math.inf}, None, "BAD_VALUE]: numerical.T"),
        ({"T": -math.inf}, None, "BAD_VALUE]: numerical.T"),
        ({"T": math.nan}, None, "BAD_VALUE]: numerical.T"),
        ({}, {"samples": [1, 2, 3]}, "PHI_SAMPLES_MISMATCH]: phi.samples"),
        # phi(-1) = e^800 overflows to inf
        ({}, {"exponential": -800}, "BAD_VALUE]: phi.exponential"),
    ], ids=["paths-1", "workers-0", "workers-minus-3", "T-0", "T-minus-1", "h-0", "h-minus-0.01",
            "band-0", "h-Infinity", "h-minus-Infinity", "h-NaN", "T-Infinity",
            "T-minus-Infinity", "T-NaN", "phi-3-samples", "phi-exponential-minus-800"])
    def test_mc_limits_fail_every_command(self, tmp_path, capsys, command, numerical, phi, error):
        # the numerical block, the mc block in it and the initial segment are
        # checked when the config is read, whatever the command; a
        # RuntimeWarning would fail the test (see pyproject.toml)
        mc = {"paths": 16, **numerical.get("mc", {})}
        d = doc(numerical={"h": 0.01, "T": 1, **numerical, "mc": mc})
        if phi is not None:
            d.update(phi=phi, nu={"atoms": [[0, 0.5]]})
        cfg = _write(tmp_path, d)
        out = tmp_path / "out"
        assert cli_main([command, "--config", cfg, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error [{error}: ")
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "compare"])
    @pytest.mark.parametrize("cap, rule", [
        ("abc", "must be an integer, got 'abc'"), ("2.5", "must be an integer, got '2.5'"),
        ("0", "must be at least 1, got 0"), ("-2", "must be at least 1, got -2"),
    ], ids=["abc", "2.5", "0", "minus-2"])
    def test_thread_cap_outside_its_rule_is_a_configuration_error(
        self, tmp_path, capsys, monkeypatch, command, cap, rule
    ):
        monkeypatch.setenv("SDDE_MEANSQ_THREADS", cap)
        cfg = _write(tmp_path, doc(numerical={"h": 0.01, "T": 1, "mc": {"paths": 16}}))
        out = tmp_path / "out"
        assert cli_main([command, "--config", cfg, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == f"config error [BAD_VALUE]: SDDE_MEANSQ_THREADS: {rule}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["classify", "meansquare", "compare"])
    def test_a_horizon_too_short_for_the_decay_fit_names_T(self, tmp_path, capsys, command):
        # T = 0.05 is five steps of h = 0.01; the decay fit needs seven
        cfg = _write(tmp_path, doc(numerical={"h": 0.01, "T": 0.05, "mc": {"paths": 16}}))
        out = tmp_path / "out"
        assert cli_main([command, "--config", cfg, "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "config error [BAD_VALUE]: numerical.T: the horizon must span at least 7 steps "
            "of h = 0.01, got 5\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("command", ["resolvent", "simulate"])
    def test_a_short_horizon_serves_the_commands_without_a_decay_fit(self, tmp_path, command):
        cfg = _write(tmp_path, doc(numerical={"h": 0.01, "T": 0.05, "mc": {"paths": 16}}))
        assert cli_main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 0

    @pytest.mark.parametrize("d, out_name, code", [
        (doc(mu={"atoms": [[0, 5]]}, numerical={"h": 0.01, "T": 200}), "out", 3),
        (doc(numerical={"h": 0.01, "T": 0.05}), "a/b", 1),
    ], ids=["numerical-failure", "nested-short-horizon"])
    def test_a_failed_call_leaves_no_directory_it_created(self, tmp_path, d, out_name, code):
        cfg = _write(tmp_path, d)
        assert cli_main(["meansquare", "--config", cfg, "--out", str(tmp_path / out_name)]) == code
        assert sorted(p.name for p in tmp_path.iterdir()) == ["prob.json"]

    def test_a_failed_call_keeps_an_out_directory_that_existed(self, tmp_path):
        cfg = _write(tmp_path, doc(mu={"atoms": [[0, 5]]}, numerical={"h": 0.01, "T": 200}))
        out = tmp_path / "out"
        out.mkdir()
        assert cli_main(["meansquare", "--config", cfg, "--out", str(out)]) == 3
        assert list(out.iterdir()) == []

    def test_meansquare_bytes_do_not_depend_on_the_blas_thread_count(self, tmp_path):
        # 40001 grid points: BLAS would split a dot product of the decay fits
        # over its threads, and the last bits of the CSV with it
        cfg = _write(tmp_path, doc(numerical={"h": 5e-4, "T": 20}))
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                       MKL_NUM_THREADS=threads)
            out = tmp_path / f"threads-{threads}"
            proc = subprocess.run(
                [sys.executable, "-m", "sdde_meansq.cli", "meansquare", "--config", cfg,
                 "--out", str(out)],
                env=env, capture_output=True,
            )
            assert proc.returncode == 0, proc.stderr.decode()
            outputs.append((out / "meansq_renewal.csv").read_bytes())
        assert outputs[0] == outputs[1]

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


def _glibc_mallopt():
    import ctypes

    if platform.libc_ver()[0] != "glibc":
        return False
    return hasattr(ctypes.CDLL(None), "mallopt")


class TestMallocThresholds:
    @pytest.fixture
    def unset(self):
        # the thresholds are set once per process; the test starts unset
        cli_mod._fix_malloc_thresholds.cache_clear()
        yield
        cli_mod._fix_malloc_thresholds.cache_clear()

    @pytest.mark.skipif(not _glibc_mallopt(), reason="needs glibc's mallopt")
    def test_repeated_meansquare_calls_reuse_their_temporaries(self, tmp_path):
        # glibc's dynamic thresholds unmap the freed temporaries of a
        # 40001-point call, and the next call faults them in again:
        # about 18000 minor faults over calls 2 and 3 without fixed thresholds
        cfg = _write(tmp_path, doc(numerical={"h": 5e-4, "T": 20}))
        script = (
            "import resource, sys\n"
            "from sdde_meansq.cli import main\n"
            "def call(i):\n"
            "    assert main(['meansquare', '--config', sys.argv[1],\n"
            "                 '--out', f'{sys.argv[2]}/{i}']) == 0\n"
            "call(0)\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "call(1)\n"
            "call(2)\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
        )
        proc = subprocess.run([sys.executable, "-c", script, cfg, str(tmp_path)],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stdout) < 1000

    def test_without_mallopt_the_cli_writes_the_same_bytes(self, tmp_path, monkeypatch, unset):
        import ctypes

        cfg = _write(tmp_path, doc(numerical={"h": 0.01, "T": 2}))
        argv = ["meansquare", "--config", cfg, "--out"]
        assert cli_main(argv + [str(tmp_path / "a")]) == 0
        cli_mod._fix_malloc_thresholds.cache_clear()
        monkeypatch.setattr(ctypes, "CDLL", lambda name: object())
        assert cli_main(argv + [str(tmp_path / "b")]) == 0
        name = "meansq_renewal.csv"
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_thresholds_are_set_once_per_process(self, tmp_path, monkeypatch, unset):
        import ctypes

        calls = []

        def mallopt(param, value):
            calls.append((param, value))
            return 1

        monkeypatch.setattr(ctypes, "CDLL", lambda name: SimpleNamespace(mallopt=mallopt))
        cfg = _write(tmp_path, doc(numerical={"h": 0.01, "T": 2}))
        for out in ("a", "b"):
            assert cli_main(["classify", "--config", cfg, "--out", str(tmp_path / out)]) == 0
        assert calls == [(-1, 32 << 20), (-3, 4 << 20)]

    def test_importing_the_package_sets_no_threshold(self):
        script = (
            "import sdde_meansq, sdde_meansq.cli as cli\n"
            "assert cli._fix_malloc_thresholds.cache_info().currsize == 0\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr


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
