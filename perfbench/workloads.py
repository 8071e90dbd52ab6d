"""Seeded problem sets for the four benchmark workloads.

Each workload is a list of problems; a problem is one CLI command on one
generated JSON config, together with what the checks expect of its output.
The seed jitters coefficients inside ranges that keep every problem's
regime, and sets the Monte Carlo master seeds.  The expectations come from
closed forms computed here, never from the package under test.

``tiny=True`` shrinks grids, horizons and path counts so that the
benchmark's own tests run in seconds; the problem list stays the same.
"""

import math
import random
from dataclasses import dataclass, field

SUBCRITICAL = "SUBCRITICAL"
CRITICAL = "CRITICAL"
SUPERCRITICAL = "SUPERCRITICAL"
DEGENERATE = "DEGENERATE"

#: Monte Carlo workers per simulate call (the machine's core count when chosen)
WORKERS = 2
#: times at which Monte Carlo is compared with the renewal curve
Z_TIMES = (0.5, 1.0, 2.0)


@dataclass(frozen=True)
class Problem:
    name: str
    command: str
    doc: dict
    #: check inputs: "label", "formula" (closed-form statistic), "rate"
    #: (closed-form exponent of E|X|^2), "z_gate" (times gated at |z| <= 4)
    expect: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    dominant: str
    problems: tuple


def two_atom_statistic(b: float, c: float, d: float, alpha: float) -> float:
    """Closed-form statistic for drift b x(t), noise c x(t) + d x(t - alpha)."""
    return (c * c + d * d + 2.0 * c * d * math.exp(b * alpha)) / (-2.0 * b)


def _boundary_drift(c: float, d: float, alpha: float) -> float:
    """Drift at which the two-atom statistic equals one (c, d > 0)."""
    lo, hi = -(0.5 * (c + d) ** 2 + 1.0) * 2.0, -1e-9
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if two_atom_statistic(mid, c, d, alpha) < 1.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _r(x: float) -> float:
    return round(x, 6)


def _doc(alpha, mu, nu, phi, h, T, mc_seed=None, paths=None) -> dict:
    numerical = {"h": h, "T": T}
    if mc_seed is not None:
        numerical["mc"] = {"paths": paths, "seed": mc_seed, "workers": WORKERS}
    return {"alpha": alpha, "mu": mu, "nu": nu, "phi": phi, "numerical": numerical}


def _gbm(rng: random.Random, k: float, jitter_c: bool):
    """Drift b ~ -1 and noise c with c^2 = k |b| (statistic k / 2)."""
    b = -_r(rng.uniform(0.9, 1.1))
    c = math.sqrt(k * -b)
    if jitter_c:
        c = _r(c * rng.uniform(0.95, 1.05))
    return b, c


def _readme_density(rng: random.Random):
    """The README problem with its noise scaled by s in [0.95, 1]; SUBCRITICAL.

    Its statistic is 0.940 at s = 1 and scales with s^2.
    """
    s = _r(rng.uniform(0.95, 1.0))
    nu = {
        "atoms": [[0, s], [-1.0, _r(0.5 * s)]],
        "density": [[-1.0, 0.0], [0.0, _r(0.25 * s)]],
    }
    return {"atoms": [[0, -1.0]]}, nu


def classify_sweep(seed: int, tiny: bool) -> Workload:
    rng = random.Random(f"classify-sweep:{seed}")
    h, T = (1e-2, 10.0) if tiny else (1e-3, 20.0)
    probs = []
    c, d = _r(rng.uniform(0.9, 1.1)), _r(rng.uniform(0.9, 1.1))
    b0 = _boundary_drift(c, d, 1.0)
    for i, off in enumerate((-0.4, -0.25, -0.12, -0.04, 0.04, 0.12, 0.25, 0.4)):
        b = _r(b0 + off * rng.uniform(0.9, 1.1))
        stat = two_atom_statistic(b, c, d, 1.0)
        probs.append(Problem(
            f"sweep{i}", "classify",
            _doc(1.0, {"atoms": [[0, b]]}, {"atoms": [[0, c], [-1.0, d]]},
                 {"constant": 1.0}, h, T),
            {"label": SUBCRITICAL if stat < 1.0 else SUPERCRITICAL, "formula": stat},
        ))
    for name, k, label in (("gbm-sub", 1.0, SUBCRITICAL), ("gbm-crit", 2.0, CRITICAL),
                           ("gbm-super", 4.0, SUPERCRITICAL)):
        b, c_g = _gbm(rng, k, jitter_c=k != 2.0)
        probs.append(Problem(
            name, "classify",
            _doc(1.0, {"atoms": [[0, b]]}, {"atoms": [[0, c_g]]}, {"constant": 1.0}, h, T),
            {"label": label},
        ))
    mu, nu = _readme_density(rng)
    probs.append(Problem(
        "readme-density", "classify",
        _doc(1.0, mu, nu, {"constant": 1.0}, h, T), {"label": SUBCRITICAL},
    ))
    for i in range(4):
        b = -_r(rng.uniform(0.7, 1.5))
        dd = _r(rng.uniform(0.5, 1.5))
        probs.append(Problem(
            f"degenerate{i}", "classify",
            _doc(1.0, {"atoms": [[0, b]]},
                 {"atoms": [[0, -dd * math.exp(-b)], [-1.0, dd]]},
                 {"exponential": b}, h, T),
            {"label": DEGENERATE},
        ))
    return Workload(
        "classify-sweep",
        "resolvent and stability do all the work; a quarter degenerate calls put p90 "
        "inside the full-scan group",
        "resolvent+stability",
        tuple(probs),
    )


def meansquare_long(seed: int, tiny: bool) -> Workload:
    rng = random.Random(f"meansquare-long:{seed}")
    h, T = (1e-2, 5.0) if tiny else (5e-4, 20.0)
    probs = []
    for name, k in (("gbm-c1", 1.0), ("gbm-c1.41", 2.0), ("gbm-c2", 4.0)):
        b, c = _gbm(rng, k, jitter_c=False)
        probs.append(Problem(
            name, "meansquare",
            _doc(1.0, {"atoms": [[0, b]]}, {"atoms": [[0, c]]}, {"constant": 1.0}, h, T),
            {"rate": 2.0 * b + c * c},
        ))
    mu, nu = _readme_density(rng)
    probs.append(Problem("readme-density", "meansquare",
                         _doc(1.0, mu, nu, {"constant": 1.0}, h, T)))
    return Workload(
        "meansquare-long",
        "the O(n^2) renewal route does about 90% of the work at 40001 grid points",
        "renewal",
        tuple(probs),
    )


def _mc_sizes(tiny: bool, paths: int):
    return (1e-2, 2.0, 512) if tiny else (1e-3, 2.0, paths)


def simulate_atoms(seed: int, tiny: bool) -> Workload:
    rng = random.Random(f"simulate-atoms:{seed}")
    h, T, paths = _mc_sizes(tiny, 4096)
    b = -_r(rng.uniform(0.9, 1.1))
    c, d = _r(rng.uniform(0.45, 0.55)), _r(rng.uniform(0.45, 0.55))
    two = Problem(
        "two-atom", "simulate",
        _doc(1.0, {"atoms": [[0, b]]}, {"atoms": [[0, c], [-1.0, d]]}, {"constant": 1.0},
             h, T, mc_seed=1000 * seed + 1, paths=paths),
        {"z_gate": Z_TIMES},
    )
    b2, c2 = _gbm(rng, 4.0, jitter_c=False)
    gbm = Problem(
        "gbm-c2", "simulate",
        _doc(1.0, {"atoms": [[0, b2]]}, {"atoms": [[0, c2]]}, {"constant": 1.0},
             h, T, mc_seed=1000 * seed + 2, paths=paths),
        {"z_gate": ()},
    )
    return Workload(
        "simulate-atoms",
        "Monte Carlo with atom-only functionals: the RNG dominates, the functional is cheap",
        "montecarlo.rng",
        (two, gbm),
    )


def simulate_density(seed: int, tiny: bool) -> Workload:
    rng = random.Random(f"simulate-density:{seed}")
    h, T, paths = _mc_sizes(tiny, 4096)
    mu, nu = _readme_density(rng)
    prob = Problem(
        "readme-density", "simulate",
        _doc(1.0, mu, nu, {"constant": 1.0}, h, T, mc_seed=1000 * seed + 3, paths=paths),
        {"z_gate": (0.5,)},
    )
    return Workload(
        "simulate-density",
        "the same Monte Carlo layer dominated by the O(N) density functional instead of the RNG",
        "measures.value_vec",
        (prob,),
    )


BUILDERS = {
    "classify-sweep": classify_sweep,
    "meansquare-long": meansquare_long,
    "simulate-atoms": simulate_atoms,
    "simulate-density": simulate_density,
}


def build(name: str, seed: int, tiny: bool = False) -> Workload:
    return BUILDERS[name](seed, tiny)
