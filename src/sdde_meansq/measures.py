"""Signed measures on [-alpha, 0] and the linear functionals they induce.

A measure is represented as finitely many point masses plus a piecewise
linear density given by its knots.  Applying a measure to a sampled history
segment evaluates the induced functional: the point masses read single grid
values, the density part is integrated by the trapezoidal rule on the
segment grid.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ATOM_OFF_GRID, BAD_VALUE, PHI_SAMPLES_MISMATCH, ConfigurationError
from .quadrature import DIV_RTOL, convolve, exact_divisions

#: atoms must hit a grid node within this fraction of the step
ATOM_RTOL = 1e-9


@dataclass(frozen=True)
class SignedMeasure:
    """Finite point masses plus a piecewise-linear density on [-alpha, 0].

    ``atoms`` is a sequence of (location, weight) pairs with pairwise
    distinct locations; ``density`` is a sequence of (location, value) knots
    with strictly increasing locations, linearly interpolated in between and
    zero outside the knot range, so a density has no knot or at least two.
    The zero measure (no atoms, no density) is valid.
    """

    alpha: float
    atoms: tuple = ()
    density: tuple = ()

    def __post_init__(self):
        if not self.alpha >= 0.0:
            raise ConfigurationError(BAD_VALUE, f"must be >= 0, got {self.alpha}", field="alpha")
        object.__setattr__(self, "alpha", float(self.alpha))
        object.__setattr__(self, "atoms", tuple((float(l), float(w)) for l, w in self.atoms))
        object.__setattr__(self, "density", tuple((float(l), float(v)) for l, v in self.density))
        slack = DIV_RTOL * max(1.0, self.alpha)
        for what, pairs in (("atom location", self.atoms), ("density knot", self.density)):
            for l, _ in pairs:
                if l < -self.alpha - slack or l > slack:
                    raise ConfigurationError(BAD_VALUE, f"{what} {l} outside [-{self.alpha}, 0]")
        locs = [l for l, _ in self.atoms]
        if len(set(locs)) != len(locs):
            raise ConfigurationError(BAD_VALUE, "atom locations must be pairwise distinct")
        if len(self.density) == 1:
            raise ConfigurationError(BAD_VALUE, "a density needs at least two knots")
        dlocs = [l for l, _ in self.density]
        if any(b <= a for a, b in zip(dlocs, dlocs[1:])):
            raise ConfigurationError(BAD_VALUE, "density knots must be strictly increasing")


def _affine_runs(u: np.ndarray, locs: np.ndarray, rho: np.ndarray, h: float) -> tuple:
    """The grid offsets in each knot interval as (j0, L, c0, c1), weight c0 + c1 k at j0 + k.

    ``rho`` is the density sampled at the nodes ``u``.  A node on an inner
    knot belongs to the interval on its right and a node on the last knot
    to the interval on its left, as in ``np.interp``.  Runs of zero weight
    are left out.
    """
    last = locs.size - 1
    which = np.searchsorted(locs, u, side="right") - 1
    which = np.where(u > locs[-1], -1, np.minimum(which, last - 1))
    runs = []
    for i in range(last):
        js = np.flatnonzero(which == i)
        if js.size == 0:
            continue
        j0, L = int(js[0]), int(js[-1] - js[0])
        c0 = h * rho[j0]
        # with one node, S1 holds only rounding, which no slope may amplify
        c1 = h * (rho[j0 + L] - rho[j0]) / L if L else 0.0
        if c0 != 0.0 or c1 != 0.0:
            runs.append((j0, L, float(c0), float(c1)))
    return tuple(runs)


def segment_nodes(alpha: float, h: float) -> np.ndarray:
    """The segment grid -alpha + h k, k = 0 .. alpha / h, its last node exactly 0.

    ``-alpha + N h`` may round above 0, where a density knot at 0 reads 0.
    """
    u = -alpha + h * np.arange(exact_divisions(alpha, h, "alpha") + 1)
    u[-1] = 0.0
    return u


@dataclass(eq=False)
class Segment:
    """A function sampled on the uniform grid -alpha, -alpha+h, ..., 0: one finite value a node."""

    alpha: float
    step: float
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        n = exact_divisions(self.alpha, self.step, "alpha")
        if self.values.shape != (n + 1,):
            raise ConfigurationError(
                PHI_SAMPLES_MISMATCH,
                f"segment needs {n + 1} values for alpha={self.alpha}, h={self.step}; "
                f"got {self.values.size}",
            )
        if not np.isfinite(self.values).all():
            raise ConfigurationError(BAD_VALUE, "segment values must be finite")

    @classmethod
    def sample(cls, alpha: float, h: float, fn) -> "Segment":
        """The callable ``fn``, mapping an array of times in [-alpha, 0] to values, on the grid."""
        # an overflow reaches the finite rule above as inf or NaN, without a warning
        with np.errstate(over="ignore", invalid="ignore"):
            values = fn(segment_nodes(alpha, h))
        return cls(alpha, h, values)


class CompiledFunctional:
    """A measure bound to a fixed segment grid for repeated evaluation.

    Point masses become ``atom_at``, weight by segment offset in the order
    of the measure's atoms; the density is resampled onto the grid and
    folded with trapezoidal weights.  The evaluators take a zero-padded or
    history-padded trace array ``padded`` in which the segment of step
    ``n`` is ``padded[n : n + N + 1]``.

    ``jump_loss[j]`` is the density weight that offset ``j`` loses when the
    underlying function jumps from zero to its stored value at that node:
    the node keeps all of its weight at offset 0 (the jump lies at the
    segment's left end), none at offset N (the segment lies before the
    jump) and half in between.

    ``runs`` is the density as a piece table: (j0, L, c0, c1) says that the
    grid offsets j0 .. j0 + L lie in one knot interval, where the sampled
    weight h * density is affine, ``c0 + c1 * k`` at offset j0 + k.
    ``point_items`` holds the point masses, with a density's two trapezoid
    end halvings added as corrections at offsets 0 and N, so that the runs
    and the point items together give ``dens_weights`` up to rounding.
    """

    def __init__(self, measure: SignedMeasure, h: float):
        self.h = h
        self.n_intervals = exact_divisions(measure.alpha, h, "alpha")
        N = self.n_intervals
        atom_at: dict[int, float] = {}
        for loc, w in measure.atoms:
            off = round((loc + measure.alpha) / h)
            if off < 0 or off > N or abs(loc - (off * h - measure.alpha)) > ATOM_RTOL * h:
                raise ConfigurationError(
                    ATOM_OFF_GRID, f"atom at {loc} is off the grid (step {h}) beyond tolerance"
                )
            atom_at[off] = atom_at.get(off, 0.0) + w
        self.atom_at = atom_at
        self.dens_weights = None
        self.jump_loss = None
        self.runs = ()
        self.point_items = tuple(atom_at.items())
        if measure.density and N >= 1:
            u = segment_nodes(measure.alpha, h)
            locs = np.array([l for l, _ in measure.density])
            vals = np.array([v for _, v in measure.density])
            rho = np.interp(u, locs, vals, left=0.0, right=0.0)
            w = rho * h
            w[0] *= 0.5
            w[-1] *= 0.5
            if np.any(w != 0.0):
                self.dens_weights = w
                keep = np.full(N + 1, 0.5)
                keep[0] = 1.0
                keep[N] = 0.0
                self.jump_loss = (1.0 - keep) * w
                self.runs = _affine_runs(u, locs, rho, h)
                # the runs weigh the end nodes whole, the trapezoid halves them
                points = dict(atom_at)
                for j in (0, N):
                    if w[j] != 0.0:
                        points[j] = points.get(j, 0.0) - w[j]
                self.point_items = tuple(points.items())

    def value_vec(self, padded: np.ndarray, n: int) -> np.ndarray:
        """Evaluation at step ``n`` of a (time, ...) array; a 1-d ``padded`` gives one value.

        The dense reference for the Monte Carlo sums; the density sum is numpy's, not BLAS.
        """
        acc = np.zeros(padded.shape[1:])
        for off, w in self.atom_at.items():
            acc += w * padded[n + off]
        if self.dens_weights is not None:
            acc += np.einsum("i,i...->...", self.dens_weights, padded[n : n + self.n_intervals + 1])
        return acc

    def value_at_unit_jump(self, plain: np.ndarray, v0: float) -> tuple[np.ndarray, np.ndarray]:
        """Right- and left-limit values at every step of a trace that jumps at time 0.

        ``plain`` holds the plain evaluations (``trace``) of a function that
        is zero before time 0 and ``v0`` at time 0.  Where a segment holds
        the time-0 node, the density gives that node the fraction of its
        weight on the nonzero side of the jump (``jump_loss``), and point
        masses there read ``v0`` for the right limit and zero for the left.
        """
        N = self.n_intervals
        right = np.array(plain, dtype=float)
        if self.jump_loss is not None:
            right[: N + 1] -= (self.jump_loss[::-1] * v0)[: right.size]
        left = right.copy()
        for off, w in self.atom_at.items():
            if N - off < left.size:
                left[N - off] -= w * v0
        return right, left

    def trace(self, padded: np.ndarray) -> np.ndarray:
        """Plain evaluation at every step; returns len(padded) - N values."""
        N = self.n_intervals
        out_len = padded.size - N
        out = np.zeros(out_len)
        # each atom's product goes through one buffer, bit for bit w * x
        tmp = np.empty(out_len)
        for off, w in self.atom_at.items():
            out += np.multiply(w, padded[off : off + out_len], out=tmp)
        if self.dens_weights is not None:
            out += convolve(self.dens_weights[::-1], padded, padded.size)[N:]
        return out


def total_variation(m: SignedMeasure) -> float:
    """Sum of absolute atom weights plus the exact integral of |density|.

    The density is piecewise linear, so each knot interval integrates
    exactly after splitting at sign crossings.
    """
    tv = sum(abs(w) for _, w in m.atoms)
    for (u0, v0), (u1, v1) in zip(m.density, m.density[1:]):
        du = u1 - u0
        if v0 * v1 >= 0.0:
            tv += 0.5 * (abs(v0) + abs(v1)) * du
        else:
            uc = du * v0 / (v0 - v1)
            tv += 0.5 * (abs(v0) * uc + abs(v1) * (du - uc))
    return float(tv)
