"""Signed measures on [-alpha, 0] and the linear functionals they induce.

A measure is represented as finitely many point masses plus a piecewise
linear density given by its knots.  Applying a measure to a sampled history
segment evaluates the induced functional: the point masses read single grid
values, the density part is integrated by the trapezoidal rule on the
segment grid.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    ALPHA_MISMATCH,
    BAD_VALUE,
    AtomAlignmentError,
    ConfigurationError,
)
from .quadrature import DIV_RTOL, exact_divisions, require_match

#: atoms must hit a grid node within this fraction of the step
ATOM_RTOL = 1e-9


@dataclass(frozen=True)
class SignedMeasure:
    """Finite point masses plus a piecewise-linear density on [-alpha, 0].

    ``atoms`` is a sequence of (location, weight) pairs with pairwise
    distinct locations; ``density`` is a sequence of (location, value) knots
    with strictly increasing locations, linearly interpolated in between and
    zero outside the knot range.  The zero measure (no atoms, no density) is
    valid.
    """

    alpha: float
    atoms: tuple = ()
    density: tuple = ()

    def __post_init__(self):
        if self.alpha < 0.0:
            raise ConfigurationError(BAD_VALUE, f"alpha must be >= 0, got {self.alpha}")
        object.__setattr__(self, "atoms", tuple((float(l), float(w)) for l, w in self.atoms))
        object.__setattr__(self, "density", tuple((float(l), float(v)) for l, v in self.density))
        slack = DIV_RTOL * max(1.0, self.alpha)
        locs = [l for l, _ in self.atoms]
        for l in locs:
            if l < -self.alpha - slack or l > slack:
                raise ConfigurationError(
                    BAD_VALUE, f"atom location {l} outside [-{self.alpha}, 0]"
                )
        if len(set(locs)) != len(locs):
            raise ConfigurationError(BAD_VALUE, "atom locations must be pairwise distinct")
        dlocs = [l for l, _ in self.density]
        for l in dlocs:
            if l < -self.alpha - slack or l > slack:
                raise ConfigurationError(
                    BAD_VALUE, f"density knot {l} outside [-{self.alpha}, 0]"
                )
        if any(b <= a for a, b in zip(dlocs, dlocs[1:])):
            raise ConfigurationError(BAD_VALUE, "density knots must be strictly increasing")

    @property
    def is_zero(self) -> bool:
        return not self.atoms and all(v == 0.0 for _, v in self.density)

    def scaled(self, factor: float) -> "SignedMeasure":
        return SignedMeasure(
            self.alpha,
            tuple((l, factor * w) for l, w in self.atoms),
            tuple((l, factor * v) for l, v in self.density),
        )

    def __add__(self, other: "SignedMeasure") -> "SignedMeasure":
        require_match(
            self.alpha, other.alpha, ALPHA_MISMATCH, "cannot add measures with different alpha"
        )
        weights: dict[float, float] = {}
        for l, w in self.atoms + other.atoms:
            weights[l] = weights.get(l, 0.0) + w
        atoms = tuple(sorted(weights.items()))
        if not self.density:
            dens = other.density
        elif not other.density:
            dens = self.density
        else:
            knots = sorted({l for l, _ in self.density} | {l for l, _ in other.density})
            dens = tuple((u, _density_at(self.density, u) + _density_at(other.density, u))
                         for u in knots)
        return SignedMeasure(self.alpha, atoms, dens)


def _density_at(knots: tuple, u: float) -> float:
    locs = np.array([l for l, _ in knots])
    vals = np.array([v for _, v in knots])
    return float(np.interp(u, locs, vals, left=0.0, right=0.0))


@dataclass(eq=False)
class Segment:
    """A function sampled on the uniform grid -alpha, -alpha+h, ..., 0."""

    alpha: float
    step: float
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        n = exact_divisions(self.alpha, self.step, "alpha")
        if self.values.shape != (n + 1,):
            raise ConfigurationError(
                BAD_VALUE,
                f"segment needs {n + 1} values for alpha={self.alpha}, h={self.step}; "
                f"got {self.values.shape[0]}",
            )

    def times(self) -> np.ndarray:
        return -self.alpha + self.step * np.arange(self.values.size)


class CompiledFunctional:
    """A measure bound to a fixed segment grid for repeated evaluation.

    Point masses become (offset, weight) pairs into the segment; the density
    is resampled onto the grid and folded with trapezoidal weights.  All
    evaluators take a zero-padded or history-padded trace array ``padded``
    in which the segment of step ``n`` is ``padded[n : n + N + 1]``.

    ``jump_loss[j]`` is the density weight that offset ``j`` loses when the
    underlying function jumps from zero to its stored value at that node:
    the node keeps all of its weight at offset 0 (the jump lies at the
    segment's left end), none at offset N (the segment lies before the
    jump) and half in between.
    """

    def __init__(self, measure: SignedMeasure, h: float):
        self.measure = measure
        self.h = h
        self.n_intervals = exact_divisions(measure.alpha, h, "alpha")
        N = self.n_intervals
        atom_items = []
        atom_at: dict[int, float] = {}
        for loc, w in measure.atoms:
            off = round((loc + measure.alpha) / h)
            if off < 0 or off > N or abs(loc - (off * h - measure.alpha)) > ATOM_RTOL * h:
                raise AtomAlignmentError(
                    f"atom at {loc} is off the grid (step {h}) beyond tolerance"
                )
            atom_items.append((off, w))
            atom_at[off] = atom_at.get(off, 0.0) + w
        self.atom_items = tuple(atom_items)
        self.atom_at = atom_at
        self.dens_weights = None
        self.jump_loss = None
        if measure.density and N >= 1:
            u = -measure.alpha + h * np.arange(N + 1)
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

    def value(self, padded: np.ndarray, n: int) -> float:
        """Plain evaluation on the segment at step ``n``."""
        acc = 0.0
        for off, w in self.atom_items:
            acc += w * padded[n + off]
        if self.dens_weights is not None:
            acc += float(np.dot(self.dens_weights, padded[n : n + self.n_intervals + 1]))
        return float(acc)

    def value_vec(self, padded: np.ndarray, n: int) -> np.ndarray:
        """Evaluation on a (time, paths) array; returns one value per path."""
        acc = np.zeros(padded.shape[1])
        for off, w in self.atom_items:
            acc += w * padded[n + off]
        if self.dens_weights is not None:
            acc += self.dens_weights @ padded[n : n + self.n_intervals + 1]
        return acc

    def value_at_unit_jump(self, padded: np.ndarray, n: int, side: str) -> float:
        """Evaluation on a segment whose underlying function jumps at time 0.

        Used for impulse-started traces that are zero before time 0.  For
        steps whose segment still contains the time-0 node, point masses at
        that node take the right limit (the stored value) or the left limit
        (zero) according to ``side``, and the density integration gives the
        node the fraction of its weight on the nonzero side of the jump
        (``jump_loss``).
        """
        acc = self.value(padded, n)
        N = self.n_intervals
        if n <= N:
            j = N - n
            v0 = padded[N]
            if side == "left" and j in self.atom_at:
                acc -= self.atom_at[j] * v0
            if self.jump_loss is not None:
                acc -= self.jump_loss[j] * v0
        return float(acc)

    def trace(self, padded: np.ndarray) -> np.ndarray:
        """Plain evaluation at every step; returns len(padded) - N values."""
        N = self.n_intervals
        out_len = padded.size - N
        out = np.zeros(out_len)
        for off, w in self.atom_items:
            out += w * padded[off : off + out_len]
        if self.dens_weights is not None:
            out += np.correlate(padded, self.dens_weights, mode="valid")
        return out


def apply_functional(m: SignedMeasure, s: Segment) -> float:
    """Integrate the segment against the measure.

    Exact for atom-only measures on grid points; second-order accurate in
    the step for the density part.
    """
    require_match(m.alpha, s.alpha, ALPHA_MISMATCH, "measure alpha != segment alpha")
    return CompiledFunctional(m, s.step).value(s.values, 0)


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
