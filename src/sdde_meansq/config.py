"""Problem configuration: JSON parsing, validation, canonical serialization.

Schema (all measures share the delay horizon alpha)::

    {
      "alpha": 1.0,
      "mu":  {"atoms": [[0, -1.0]], "density": [[-1.0, 0.5], [0, 0.5]]},
      "nu":  {"atoms": [[0, 1.0]]},
      "phi": {"constant": 1.0} | {"exponential": -1.0} | {"samples": [...]},
      "numerical": {
        "h": 0.001, "T": 20.0, "band": 0.001,
        "mc": {"paths": 10000, "seed": 1, "workers": 4}
      }
    }

Validation failures raise ConfigurationError with a machine-readable code
and the offending field path.
"""

import hashlib
import json
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    ALPHA_MISMATCH,
    BAD_VALUE,
    PHI_SAMPLES_MISMATCH,
    SCHEMA_INVALID,
    ConfigurationError,
)
from .measures import CompiledFunctional, Segment, SignedMeasure
from .quadrature import exact_divisions, require_match


@dataclass(frozen=True)
class PhiSpec:
    """Initial segment: a named generator or raw grid samples."""

    kind: str  # "constant" | "exponential" | "samples"
    value: float = 1.0
    rate: float = 0.0
    samples: tuple = ()

    def sampler(self):
        """Exact evaluator u -> phi(u), or None when only samples exist."""
        if self.kind == "constant":
            return lambda u: np.full_like(np.asarray(u, dtype=float), self.value)
        if self.kind == "exponential":
            return lambda u: self.value * np.exp(self.rate * np.asarray(u, dtype=float))
        return None

    def expand(self, alpha: float, h: float) -> Segment:
        n = exact_divisions(alpha, h, "alpha")
        fn = self.sampler()
        if fn is not None:
            u = -alpha + h * np.arange(n + 1)
            u[-1] = 0.0
            return Segment(alpha, h, fn(u))
        if len(self.samples) != n + 1:
            raise ConfigurationError(
                PHI_SAMPLES_MISMATCH,
                f"phi.samples has {len(self.samples)} entries; grid needs {n + 1}",
                field="phi.samples",
            )
        return Segment(alpha, h, np.array(self.samples, dtype=float))


@dataclass(frozen=True)
class McSettings:
    """Monte Carlo block of the config."""

    paths: int = 1000
    seed: int = 0
    workers: int = 1


@dataclass(frozen=True)
class ProblemSpec:
    """A fully validated problem instance plus numerical parameters."""

    alpha: float
    mu: SignedMeasure
    nu: SignedMeasure
    phi: PhiSpec
    h: float
    T: float
    band: float | None = None
    mc: McSettings | None = None

    def __post_init__(self):
        for m in (self.mu, self.nu):
            require_match(
                m.alpha, self.alpha, ALPHA_MISMATCH, "mu and nu must live on [-alpha, 0]",
                field="alpha",
            )
        exact_divisions(self.alpha, self.h, "alpha")
        exact_divisions(self.T, self.h, "horizon T")
        # surfaces off-grid atoms at parse time
        CompiledFunctional(self.mu, self.h)
        CompiledFunctional(self.nu, self.h)
        if self.band is not None and self.band <= 0.0:
            raise ConfigurationError(BAD_VALUE, "band must be positive", field="numerical.band")

    def phi_segment(self) -> Segment:
        return self.phi.expand(self.alpha, self.h)


def aligned_step(alpha: float, h_request: float) -> float:
    """Largest step <= ~h_request that divides alpha exactly."""
    if alpha <= 0.0:
        return h_request
    return alpha / max(1, round(alpha / h_request))


def aligned_horizon(T_request: float, h: float) -> float:
    """Smallest grid multiple of h at or above T_request."""
    return h * max(1, math.ceil(T_request / h - 1e-9))


def _fail(code: str, message: str, field: str):
    raise ConfigurationError(code, message, field=field)


def _number(obj, field: str) -> float:
    if isinstance(obj, bool) or not isinstance(obj, (int, float)):
        _fail(SCHEMA_INVALID, f"expected a number, got {type(obj).__name__}", field)
    if not math.isfinite(obj):
        _fail(BAD_VALUE, "must be finite", field)
    return float(obj)


def _integer(obj, field: str) -> int:
    if isinstance(obj, bool) or not isinstance(obj, int):
        _fail(SCHEMA_INVALID, f"expected an integer, got {type(obj).__name__}", field)
    return int(obj)


def _pairs(obj, field: str) -> tuple:
    if not isinstance(obj, list):
        _fail(SCHEMA_INVALID, "expected a list of [location, value] pairs", field)
    out = []
    for i, item in enumerate(obj):
        if not isinstance(item, list) or len(item) != 2:
            _fail(SCHEMA_INVALID, "expected a [location, value] pair", f"{field}[{i}]")
        out.append((_number(item[0], f"{field}[{i}][0]"), _number(item[1], f"{field}[{i}][1]")))
    return tuple(out)


def _measure(obj, alpha: float, field: str) -> SignedMeasure:
    if obj is None:
        obj = {}
    if not isinstance(obj, dict):
        _fail(SCHEMA_INVALID, "expected an object", field)
    unknown = set(obj) - {"atoms", "density"}
    if unknown:
        _fail(SCHEMA_INVALID, f"unknown keys {sorted(unknown)}", field)
    atoms = _pairs(obj.get("atoms", []), f"{field}.atoms")
    density = _pairs(obj.get("density", []), f"{field}.density")
    try:
        return SignedMeasure(alpha, atoms, density)
    except ConfigurationError as exc:
        raise ConfigurationError(exc.code, str(exc), field=field) from None


def _phi(obj, field: str) -> PhiSpec:
    if not isinstance(obj, dict) or len(obj) != 1:
        _fail(SCHEMA_INVALID, "expected exactly one of constant/exponential/samples", field)
    (kind, payload), = obj.items()
    if kind == "constant":
        return PhiSpec("constant", value=_number(payload, f"{field}.constant"))
    if kind == "exponential":
        if isinstance(payload, dict):
            unknown = set(payload) - {"rate", "scale"}
            if unknown:
                _fail(SCHEMA_INVALID, f"unknown keys {sorted(unknown)}", f"{field}.exponential")
            return PhiSpec(
                "exponential",
                value=_number(payload.get("scale", 1.0), f"{field}.exponential.scale"),
                rate=_number(payload.get("rate", 0.0), f"{field}.exponential.rate"),
            )
        return PhiSpec("exponential", value=1.0, rate=_number(payload, f"{field}.exponential"))
    if kind == "samples":
        if not isinstance(payload, list) or not payload:
            _fail(SCHEMA_INVALID, "expected a nonempty list", f"{field}.samples")
        return PhiSpec(
            "samples",
            samples=tuple(_number(v, f"{field}.samples[{i}]") for i, v in enumerate(payload)),
        )
    _fail(SCHEMA_INVALID, f"unknown phi generator {kind!r}", field)


def parse_config(text: str) -> ProblemSpec:
    """Parse and validate a JSON problem document."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(SCHEMA_INVALID, f"not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        _fail(SCHEMA_INVALID, "top level must be an object", "$")
    unknown = set(doc) - {"alpha", "mu", "nu", "phi", "numerical"}
    if unknown:
        _fail(SCHEMA_INVALID, f"unknown keys {sorted(unknown)}", "$")
    for key in ("alpha", "mu", "nu", "phi", "numerical"):
        if key not in doc:
            _fail(SCHEMA_INVALID, f"missing required key {key!r}", "$")
    alpha = _number(doc["alpha"], "alpha")
    num = doc["numerical"]
    if not isinstance(num, dict):
        _fail(SCHEMA_INVALID, "expected an object", "numerical")
    unknown = set(num) - {"h", "T", "band", "mc"}
    if unknown:
        _fail(SCHEMA_INVALID, f"unknown keys {sorted(unknown)}", "numerical")
    for key in ("h", "T"):
        if key not in num:
            _fail(SCHEMA_INVALID, f"missing required key {key!r}", "numerical")
    mc = None
    if num.get("mc") is not None:
        mcd = num["mc"]
        if not isinstance(mcd, dict):
            _fail(SCHEMA_INVALID, "expected an object", "numerical.mc")
        unknown = set(mcd) - {"paths", "seed", "workers"}
        if unknown:
            _fail(SCHEMA_INVALID, f"unknown keys {sorted(unknown)}", "numerical.mc")
        mc = McSettings(
            paths=_integer(mcd.get("paths", 1000), "numerical.mc.paths"),
            seed=_integer(mcd.get("seed", 0), "numerical.mc.seed"),
            workers=_integer(mcd.get("workers", 1), "numerical.mc.workers"),
        )
    return ProblemSpec(
        alpha=alpha,
        mu=_measure(doc["mu"], alpha, "mu"),
        nu=_measure(doc["nu"], alpha, "nu"),
        phi=_phi(doc["phi"], "phi"),
        h=_number(num["h"], "numerical.h"),
        T=_number(num["T"], "numerical.T"),
        band=None if num.get("band") is None else _number(num["band"], "numerical.band"),
        mc=mc,
    )


def serialize_spec(spec: ProblemSpec) -> dict:
    """Canonical dict form; parse_config(json.dumps(...)) round-trips."""
    def measure_dict(m: SignedMeasure) -> dict:
        out = {}
        if m.atoms:
            out["atoms"] = [[l, w] for l, w in m.atoms]
        if m.density:
            out["density"] = [[l, v] for l, v in m.density]
        return out

    if spec.phi.kind == "constant":
        phi = {"constant": spec.phi.value}
    elif spec.phi.kind == "exponential":
        if spec.phi.value == 1.0:
            phi = {"exponential": spec.phi.rate}
        else:
            phi = {"exponential": {"rate": spec.phi.rate, "scale": spec.phi.value}}
    else:
        phi = {"samples": list(spec.phi.samples)}
    numerical = {"h": spec.h, "T": spec.T}
    if spec.band is not None:
        numerical["band"] = spec.band
    if spec.mc is not None:
        numerical["mc"] = {
            "paths": spec.mc.paths,
            "seed": spec.mc.seed,
            "workers": spec.mc.workers,
        }
    return {
        "alpha": spec.alpha,
        "mu": measure_dict(spec.mu),
        "nu": measure_dict(spec.nu),
        "phi": phi,
        "numerical": numerical,
    }


def config_hash(spec: ProblemSpec) -> str:
    """SHA-256 of the canonical JSON form."""
    blob = json.dumps(serialize_spec(spec), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def with_overrides(
    spec: ProblemSpec,
    seed: int | None = None,
    paths: int | None = None,
    step: float | None = None,
    horizon: float | None = None,
) -> ProblemSpec:
    """Copy of the spec with CLI-style overrides applied."""
    out = spec
    if seed is not None or paths is not None:
        mc = spec.mc or McSettings()
        if seed is not None:
            mc = replace(mc, seed=seed)
        if paths is not None:
            mc = replace(mc, paths=paths)
        out = replace(out, mc=mc)
    if step is not None:
        out = replace(out, h=step)
    if horizon is not None:
        out = replace(out, T=horizon)
    return out
