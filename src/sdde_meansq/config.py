"""Problem configuration: JSON parsing, validation, and the config hash.

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
from dataclasses import dataclass, fields

import numpy as np

from .errors import ALPHA_MISMATCH, BAD_VALUE, SCHEMA_INVALID, ConfigurationError
from .measures import CompiledFunctional, Segment, SignedMeasure
from .montecarlo import McSettings
from .quadrature import exact_divisions, require_match, require_positive, times_exp


@dataclass(frozen=True)
class PhiSpec:
    """Initial segment: a generator value * e^(rate * u), or raw grid samples.

    A rate-0 exponential is the constant, so both spellings are one spec.
    """

    kind: str  # "constant" | "exponential" | "samples"
    value: float = 1.0
    rate: float = 0.0
    samples: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "value", float(self.value))
        object.__setattr__(self, "rate", float(self.rate) + 0.0)  # -0.0 becomes 0.0
        object.__setattr__(self, "samples", tuple(map(float, self.samples)))
        if self.kind == "exponential" and self.rate == 0.0:
            object.__setattr__(self, "kind", "constant")

    def sampler(self):
        """Exact evaluator u -> phi(u), or None when only samples exist."""
        if self.kind not in ("constant", "exponential"):
            return None
        # at rate 0, e^0 = 1 gives the constant bit for bit
        return lambda u: np.copysign(
            times_exp(abs(self.value), self.rate * np.asarray(u, dtype=float)), self.value
        )

    def expand(self, alpha: float, h: float) -> Segment:
        fn = self.sampler()
        return Segment(alpha, h, self.samples) if fn is None else Segment.sample(alpha, h, fn)


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
        # floats, so that a spec built with ints equals and hashes as its parsed twin
        for name in ("alpha", "h", "T") + (("band",) if self.band is not None else ()):
            object.__setattr__(self, name, float(getattr(self, name)))
        for m in (self.mu, self.nu):
            require_match(
                m.alpha, self.alpha, ALPHA_MISMATCH, "mu and nu must live on [-alpha, 0]",
                field="alpha",
            )
        require_positive(self.h, "numerical.h")
        require_positive(self.T, "numerical.T")
        if self.band is not None:
            require_positive(self.band, "numerical.band")
        # surfaces a step that does not divide alpha, and off-grid atoms, at parse time
        CompiledFunctional(self.mu, self.h)
        CompiledFunctional(self.nu, self.h)
        exact_divisions(self.T, self.h, "horizon T")
        # the segment is part of the problem
        segment = _named(f"phi.{self.phi.kind}", self.phi.expand, self.alpha, self.h)
        object.__setattr__(self, "_segment", segment)

    def phi_segment(self) -> Segment:
        return self._segment


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


def _object(obj, field: str, keys, required=()) -> dict:
    """``obj`` as a JSON object whose keys are among ``keys`` and include ``required``."""
    if not isinstance(obj, dict):
        what = "top level must be an object" if field == "$" else "expected an object"
        _fail(SCHEMA_INVALID, what, field)
    unknown = set(obj) - set(keys)
    if unknown:
        _fail(SCHEMA_INVALID, f"unknown keys {sorted(unknown)}", field)
    for key in required:
        if key not in obj:
            _fail(SCHEMA_INVALID, f"missing required key {key!r}", field)
    return obj


def _named(field: str, build, *args):
    """``build(*args)``, a ConfigurationError that names no field being given ``field``."""
    try:
        return build(*args)
    except ConfigurationError as exc:
        if exc.field is not None:
            raise
        raise ConfigurationError(exc.code, str(exc), field=field) from None


def _measure(obj, alpha: float, field: str) -> SignedMeasure:
    obj = _object({} if obj is None else obj, field, ("atoms", "density"))
    atoms = _pairs(obj.get("atoms", []), f"{field}.atoms")
    density = _pairs(obj.get("density", []), f"{field}.density")
    return _named(field, SignedMeasure, alpha, atoms, density)


def _phi(obj, field: str) -> PhiSpec:
    if not isinstance(obj, dict) or len(obj) != 1:
        _fail(SCHEMA_INVALID, "expected exactly one of constant/exponential/samples", field)
    (kind, payload), = obj.items()
    if kind == "constant":
        return PhiSpec("constant", value=_number(payload, f"{field}.constant"))
    if kind == "exponential":
        if isinstance(payload, dict):
            _object(payload, f"{field}.exponential", ("rate", "scale"))
            return PhiSpec(
                "exponential",
                value=_number(payload.get("scale", PhiSpec.value), f"{field}.exponential.scale"),
                rate=_number(payload.get("rate", PhiSpec.rate), f"{field}.exponential.rate"),
            )
        return PhiSpec("exponential", rate=_number(payload, f"{field}.exponential"))
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
    top = ("alpha", "mu", "nu", "phi", "numerical")
    doc = _object(doc, "$", top, required=top)
    alpha = _number(doc["alpha"], "alpha")
    num = _object(doc["numerical"], "numerical", ("h", "T", "band", "mc"), required=("h", "T"))
    mc = None
    if num.get("mc") is not None:
        mcd = _object(num["mc"], "numerical.mc", ("paths", "seed", "workers"))
        mc = McSettings(**{k: _integer(v, f"numerical.mc.{k}") for k, v in mcd.items()})
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


def _fields(obj) -> dict:
    return {f.name: getattr(obj, f.name) for f in fields(obj)}


def config_hash(spec: ProblemSpec) -> str:
    """SHA-256 of the spec's dataclass fields as sorted, compact JSON."""
    blob = json.dumps(spec, default=_fields, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()
