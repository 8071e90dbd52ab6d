"""Euler-Maruyama simulation of the stochastic delay equation.

Paths evolve as X(n+1) = X(n) + F(X_seg) h + G(X_seg) dW with history
segments read off the path's own grid (the step divides the delay horizon,
so no interpolation happens).  Every path owns a counter-based substream
keyed by (master seed, path index); normal increments come from the inverse
normal CDF applied to 53-bit counter draws.  Work is split into fixed-size
path chunks, run one after another, whose partial sums are combined in
chunk order.  With a thread budget of two or more, one helper thread turns
raw counter bits into increments while the calling thread steps; it writes
the same increments, so estimates are bit-identical at every budget.

The second moment is estimated by importance sampling with a constant-drift
Girsanov tilt: the chain is driven by dW = dW~ + lambda h with dW~ the
sampled N(0, h) increments, and each path is weighted by the likelihood
ratio w(t_n) = exp(-lambda W~(t_n) - lambda^2 t_n / 2) of those discrete
Gaussian increments, so the mean of w X^2 is unbiased for the
Euler-Maruyama chain.  lambda = 2 nu({0}) makes w X^2 deterministic for
geometric Brownian motion in continuous time, so the standard error of the
lognormal tail no longer lies; lambda = 0 is the plain mean of X^2, bit for
bit.  The tilted chain may grow far faster than sqrt(w) X: the equation is
linear, so a path that passes 2**512 has the history it still reads scaled
down by that power of two, and the weight undoes it.  A path is reported
diverged when sqrt(w) |X| passes 1e150 or the chain leaves the float range.

A chunk streams through its delay window: it keeps a ring of N + 1 + BLOCK
path rows, steps BLOCK steps at a time, and reduces each finished block at
once into the per-time sums, so its memory does not grow with the horizon.
One increment feed per call serves the chunks their blocks in order.  It
draws each block's bits two blocks ahead, across chunk boundaries, so the
next block's increments are made while a block is stepped, and a chunk's
first block is as ready as any other.  The feed holds two blocks of raw
bits, which double as the chunk's weighted-rows buffer, and two of
increments for the whole call.
"""

import math
import os
from contextlib import nullcontext
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, BAD_VALUE, GRID_MISALIGNED
from .measures import CompiledFunctional, Segment, SignedMeasure
from .quadrature import convolve, exact_divisions, require_match, require_positive
from .resolvent import HistoryTable

#: paths per work unit; fixed so reductions are scheduling-independent
CHUNK = 2048
#: a path whose weighted magnitude sqrt(w) |X| passes this is reported as diverged
DIVERGE_LIMIT = 1e150
#: a chain value past 2**RESCALE_BITS scales the path's live history down by
#: as much; looked for every RESCALE_STRIDE steps, which a path could only
#: outrun by growing 2**64-fold per step
RESCALE_BITS = 512
RESCALE_STRIDE = 8
#: steps a chunk draws, steps and reduces at a time; it keeps N + 1 + BLOCK path rows
BLOCK = 256

_U64 = (1 << 64) - 1


def _at_least(value: int, least: int, field: str) -> None:
    if value < least:
        raise ConfigurationError(BAD_VALUE, f"must be at least {least}, got {value}", field=field)


@dataclass(frozen=True)
class SimulationConfig:
    """The config's Monte Carlo block, ``numerical.mc``: the one home of its defaults and limits.

    A value past a limit is BAD_VALUE on its config field.  A path's stream
    key holds the seed in 64 bits, so any other seed would give the draws of
    the seed it wraps to.
    """

    path_count: int = 1000
    master_seed: int = 0
    worker_count: int = 1

    def __post_init__(self):
        _at_least(self.path_count, 2, "numerical.mc.paths")
        if not 0 <= self.master_seed < 2**64:
            raise ConfigurationError(
                BAD_VALUE, f"must lie in [0, 2**64), got {self.master_seed}", "numerical.mc.seed"
            )
        _at_least(self.worker_count, 1, "numerical.mc.workers")


@dataclass(eq=False)
class MomentEstimate:
    """Second-moment estimate with per-time standard errors.

    ``mean_sq`` is the path mean of w X^2 and ``stderr`` the standard error
    from the sample variance of w X^2, w being the likelihood ratio of the
    drift ``tilt`` (w = 1 when ``tilt`` is 0).  ``max_path_share`` is the
    largest share one path has of the sum of w X^2 at any time: near 1 the
    estimate rests on a single path and its standard error is no bound.
    It is a diagnostic and gates nothing.
    """

    step: float
    mean_sq: np.ndarray
    stderr: np.ndarray
    path_count: int
    master_seed: int
    diverged_paths: int
    tilt: float
    max_path_share: float

    @property
    def valid(self) -> bool:
        return self.diverged_paths == 0

    def times(self) -> np.ndarray:
        return self.step * np.arange(self.mean_sq.size)


@dataclass(eq=False)
class PathRecord:
    """One simulated path with the data needed to replay its integrals."""

    values: np.ndarray
    increments: np.ndarray
    noise_values: np.ndarray


def _path_key(master_seed: int, path_index: int) -> int:
    return ((master_seed & _U64) << 64) | (path_index & _U64)


def _path_streams(master_seed: int, lo: int, hi: int) -> list:
    """The counter streams of paths [lo, hi), each at its first draw."""
    return [np.random.Philox(key=_path_key(master_seed, i)) for i in range(lo, hi)]


def _rekey(streams: list, master_seed: int, lo: int) -> list:
    """``streams`` reset to the streams of paths lo, lo + 1, ..., each at its first draw.

    Setting a stream's state gives the same bits as ``_path_streams`` and
    costs a few microseconds; building a stream costs about 20.
    """
    state = np.random.Philox(key=_path_key(master_seed, lo)).state
    key = state["state"]["key"]
    for j, bits in enumerate(streams):
        key[0] = (lo + j) & _U64
        bits.state = state
    return streams


def _raw_bits(streams: list, out: np.ndarray) -> np.ndarray:
    """The next ``out.shape[1]`` raw 64-bit draws of each stream, one stream per row of ``out``."""
    for j, bits in enumerate(streams):
        out[j] = bits.random_raw(out.shape[1])
    return out


def _increments_from_bits(raw: np.ndarray, h: float, shift: float, out: np.ndarray) -> np.ndarray:
    """N(0, h) increments plus ``shift`` from (paths, steps) raw bits, into (steps, paths) ``out``.

    ``raw`` is overwritten.  Every value stays finite and away from the
    subnormals, so no floating-point flag is raised: the transform may run
    on a thread that does not share its caller's ``np.errstate``.
    """
    # imported here: scipy.special is most of the package's import time
    from scipy.special import ndtri

    # the top 53 bits: numpy's integers(0, 2**53) draws exactly these
    raw >>= 11
    out[...] = raw.T
    out += 0.5
    out *= 2.0**-53
    ndtri(out, out=out)
    out *= math.sqrt(h)
    out += shift
    return out


def _normal_increments(master_seed: int, lo: int, hi: int, n_steps: int, h: float) -> np.ndarray:
    """Increments for paths [lo, hi) as an (n_steps, paths) array.

    The Monte Carlo feed, ``_increment_blocks``, calls the two halves,
    ``_raw_bits`` and ``_increments_from_bits``, itself, so that they can
    run on two threads and draw ahead of the transform.
    """
    streams = _path_streams(master_seed, lo, hi)
    raw = _raw_bits(streams, np.empty((hi - lo, n_steps), dtype=np.uint64))
    return _increments_from_bits(raw, h, 0.0, np.empty((n_steps, hi - lo)))


class _WindowSums:
    """A functional on every path of a (time, paths) array, one step after another.

    Row k of the padded path is ``paths[k % len(paths)]``, so the array may
    be a ring that holds only the rows still read; the segment of step n is
    rows n .. n + N.  Point items read one row each.  Each density run keeps
    the sliding trapezoid moments S0 = sum_k x[n + j0 + k] and
    S1 = sum_k k x[n + j0 + k] over its L + 1 rows and contributes
    c0 S0 + c1 S1, so a step costs O(#runs) row operations instead of O(N).
    The moments are summed afresh from the window every N steps, which
    bounds their rounding drift.  Every operation is elementwise over
    paths, so a path's values do not depend on which other paths share the
    array.
    """

    def __init__(self, fn: CompiledFunctional, paths: np.ndarray):
        self.paths = paths
        self.points = fn.point_items
        self.n_intervals = fn.n_intervals
        m = paths.shape[1]
        self.runs = [(j0, L, c0, c1, np.empty(m), np.empty(m)) for j0, L, c0, c1 in fn.runs]
        self.anchor(0)

    def row(self, k: int) -> np.ndarray:
        return self.paths[k % self.paths.shape[0]]

    def anchor(self, n: int) -> None:
        """Sum the moments of step n directly from the window."""
        for j0, L, _, _, s0, s1 in self.runs:
            # suffix sums: S1 = sum over k >= 1 of sum_{i >= k} x[i]
            s0[:] = self.row(n + j0 + L)
            s1[:] = 0.0
            for k in range(n + j0 + L - 1, n + j0 - 1, -1):
                s1 += s0
                s0 += self.row(k)

    def value(self, n: int) -> np.ndarray:
        """The functional at step n, once the moments are those of step n."""
        acc = np.zeros(self.paths.shape[1])
        for off, w in self.points:
            acc += w * self.row(n + off)
        for _, _, c0, c1, s0, s1 in self.runs:
            acc += c0 * s0
            acc += c1 * s1
        return acc

    def advance(self, n: int) -> None:
        """Move the moments from step n to step n + 1; row n + N + 1 must be written."""
        if self.runs and (n + 1) % self.n_intervals == 0:
            self.anchor(n + 1)
            return
        for j0, L, _, _, s0, s1 in self.runs:
            new = self.row(n + j0 + L + 1)
            s0 += new
            s0 -= self.row(n + j0)
            s1 += (L + 1.0) * new
            s1 -= s0

    def scale(self, idx: np.ndarray, factor: float) -> None:
        """Follow a power-of-two rescale of the window rows of paths ``idx``."""
        for _, _, _, _, s0, s1 in self.runs:
            s0[idx] *= factor
            s1[idx] *= factor


def _thread_budget(workers: int) -> int:
    """``workers`` capped by SDDE_MEANSQ_THREADS, which when set obeys the rule of workers."""
    name = "SDDE_MEANSQ_THREADS"
    env = os.environ.get(name)
    if not env:
        return workers
    try:
        cap = int(env)
    except ValueError:
        raise ConfigurationError(BAD_VALUE, f"must be an integer, got {env!r}", name) from None
    _at_least(cap, 1, name)
    return min(workers, cap)


def _euler_maruyama(drift, noise, dw, h, n_hist, start=0):
    """Steps start, start + 1, ... of the chain, one per increment row of ``dw``.

    ``drift`` and ``noise`` are the ``_WindowSums`` of the drift and noise
    functionals on one (time, paths) array, carried from the step before
    ``start``; padded row k (n_hist history rows, then t_0, t_1, ...) is
    row k modulo the array's length, and step n writes row n + n_hist + 1.
    Returns the rescales (n, idx): step n scaled paths ``idx`` by
    2**-RESCALE_BITS from padded row n + 1 on, which is exact as the chain
    is linear.
    """
    paths = drift.paths
    rescaled = []
    for n in range(start, start + dw.shape[0]):
        row = drift.row(n + n_hist) + h * drift.value(n) + noise.value(n) * dw[n - start]
        paths[(n + n_hist + 1) % paths.shape[0]] = row
        drift.advance(n)
        noise.advance(n)
        if n % RESCALE_STRIDE:
            continue
        over = np.abs(row) > 2.0**RESCALE_BITS
        if over.any():
            idx = np.flatnonzero(over & np.isfinite(row))
            window = np.arange(n + 1, n + n_hist + 2) % paths.shape[0]
            paths[np.ix_(window, idx)] *= 2.0**-RESCALE_BITS
            drift.scale(idx, 2.0**-RESCALE_BITS)
            noise.scale(idx, 2.0**-RESCALE_BITS)
            rescaled.append((n, idx))
    return rescaled


def _reduce(x, bad, sum_sq, sum_q4, scale, max_sq):
    """Fold the rows of sqrt(w) X, one per time, into the per-time sums; ``x`` is overwritten.

    NaN fails the comparison, so a chain that left the float range marks
    its path in ``bad``.  The fourth powers are summed at the power-of-two
    scale 2**-scale of the row's sum, which is exact and keeps them in range.
    """
    np.abs(x, out=x)
    bad |= ~(x <= DIVERGE_LIMIT).all(axis=0)
    sq = np.square(x, out=x)
    sq.sum(axis=1, out=sum_sq)
    scale[:] = np.frexp(sum_sq)[1]
    np.ldexp(sq, -scale[:, None], out=sq)
    sq.max(axis=1, out=max_sq)
    np.square(sq, out=sq).sum(axis=1, out=sum_q4)


def _increment_blocks(master_seed, bounds, n_steps, h, shift, helper):
    """The increment blocks of the path chunks ``bounds``, in (chunk, block) order.

    Yields, for each block of ``min(BLOCK, n_steps)`` steps of each chunk,
    its (steps, paths) increments plus ``shift`` and a free (steps, paths)
    buffer for the chunk to use until it asks for the next block.  Blocks
    run through a pipeline that does not restart at a chunk boundary: while
    block i is stepped, the executor ``helper`` (one thread, or None to do
    everything on this thread) turns block i + 1's raw bits into
    increments, and once block i is done its buffer takes block i + 2's
    bits.  The streams are counter-based, so drawing ahead changes no bit.
    Two raw-bit blocks and two increment blocks, one allocation, serve the
    whole call.  The first chunk's streams are built when its first bits are
    drawn, and every later chunk re-keys them (``_rekey``).
    """
    block = min(BLOCK, n_steps)
    order = [
        (lo, hi, s0, min(s0 + block, n_steps) - s0)
        for lo, hi in bounds
        for s0 in range(0, n_steps, block)
    ]
    # block i draws its bits into slot i % 2, which is the free buffer once
    # they are transformed, and gets its increments in slot 2 + i % 2.  One
    # allocation that large is mapped on its own and handed back when freed.
    slots = np.empty((4, block * max(hi - lo for lo, hi in bounds)))
    streams = None

    def view(slot, i, dtype=np.float64):
        """Slot ``slot`` as block i's (steps, paths) array."""
        lo, hi, _, k = order[i]
        return slots[slot, : k * (hi - lo)].view(dtype).reshape(k, hi - lo)

    def raw(i):
        """Block i's (paths, steps) raw bits."""
        return view(i % 2, i, np.uint64).reshape(order[i][1] - order[i][0], -1)

    def draw(i):
        nonlocal streams
        lo, hi, s0, _ = order[i]
        if s0 == 0:
            # the chunk before has drawn its last bits; no later chunk is larger
            if streams is None:
                streams = _path_streams(master_seed, lo, hi)
            else:
                streams = _rekey(streams[: hi - lo], master_seed, lo)
        _raw_bits(streams, raw(i))

    def submit(i):
        """A future of block i's increments; its raw bits are free once it is done."""
        args = (raw(i), h, shift, view(2 + i % 2, i))
        if helper is not None:
            return helper.submit(_increments_from_bits, *args)
        done = Future()
        done.set_result(_increments_from_bits(*args))
        return done

    draw(0)
    pending = submit(0)
    if len(order) > 1:
        draw(1)
    for i in range(len(order)):
        inc = pending.result()
        if i + 1 < len(order):
            pending = submit(i + 1)
        yield inc, view(i % 2, i)
        if i + 2 < len(order):
            draw(i + 2)


def _simulate_chunk(f_mu, g_nu, phi_values, n_steps, h, tilt, lo, hi, feed):
    """Per-time sums of w X^2 over paths [lo, hi), streamed a block of steps at a time.

    ``feed`` is an ``_increment_blocks`` positioned at this chunk's first
    block; the chunk takes exactly its own blocks from it.
    """
    n_hist = phi_values.size - 1
    m = hi - lo
    block = min(BLOCK, n_steps)
    paths = np.empty((n_hist + 1 + block, m))
    paths[: n_hist + 1] = phi_values[:, None]
    sum_sq, sum_q4, max_sq = np.empty((3, n_steps + 1))
    scale = np.empty(n_steps + 1, dtype=np.intc)
    bad = np.zeros(m, dtype=bool)
    drift, noise = _WindowSums(f_mu, paths), _WindowSums(g_nu, paths)
    w_last = np.zeros(m)
    # rescales of each path in the blocks before, all of which cover later rows
    shifts = np.zeros(m, dtype=int)
    lift = 0.5 * RESCALE_BITS * math.log(2.0)
    with np.errstate(over="ignore", invalid="ignore"):
        # t = 0 carries no weight and comes before every rescale
        _reduce(paths[n_hist : n_hist + 1].copy(), bad, sum_sq[:1], sum_q4[:1], scale[:1],
                max_sq[:1])
        # zip asks the feed for no block past this chunk's last
        for s0, (inc, x) in zip(range(0, n_steps, block), feed):
            s1 = min(s0 + block, n_steps)
            rescaled = _euler_maruyama(drift, noise, inc, h, n_hist, s0)
            # row by row: np.cumsum(axis=0) walks the columns, several times slower
            inc[0] += w_last
            for i in range(1, s1 - s0):
                inc[i] += inc[i - 1]
            w_last[:] = inc[-1]
            # inc now holds the driving path W = W~ + tilt t at t_{s0+1} ..
            # t_{s1}; the log weight is -tilt W~ - tilt^2 t / 2 = tilt^2 t / 2
            # - tilt W.  x becomes sqrt(w) X with the rescales undone,
            # applied as two quarter factors so that one under- or overflows
            # only where sqrt(w) X itself does.  Rows reduced in earlier
            # blocks were whole when reduced and need nothing.
            inc *= -0.25 * tilt
            inc += (0.125 * tilt * tilt * h * np.arange(s0 + 1, s1 + 1))[:, None]
            for j in range(shifts.max()):
                inc[:, shifts > j] += lift
            for n, idx in rescaled:
                # a rescale at step n covers the rows of t_{n + 1 - n_hist} onwards
                inc[max(n - n_hist - s0, 0) :, idx] += lift
                shifts[idx] += 1
            np.exp(inc, out=inc)
            rows = np.arange(n_hist + s0 + 1, n_hist + s1 + 1)
            np.take(paths, rows, axis=0, out=x, mode="wrap")
            x *= inc
            x *= inc
            _reduce(x, bad, *(a[s0 + 1 : s1 + 1] for a in (sum_sq, sum_q4, scale, max_sq)))
    return sum_sq, sum_q4, scale, int(np.count_nonzero(bad)), max_sq


def simulate_mean_square(
    mu: SignedMeasure, nu: SignedMeasure, phi: Segment, cfg: SimulationConfig, T: float
) -> MomentEstimate:
    """Estimate E|X(t)|^2 on phi's grid over [0, T] by averaging weighted squared paths.

    The paths are tilted by the drift lambda = 2 nu({0}), twice the noise
    measure's atom at lag 0, and each X^2 is weighted by its likelihood
    ratio (see the module docstring); the standard error comes from the
    sample variance of the weighted squares.  With no atom at lag 0 the
    tilt is 0 and the estimate is the plain mean of X^2.

    Deterministic given (problem, cfg.master_seed).  The chunks run one
    after another on the calling thread, all fed by one increment feed
    whose pipeline runs on across chunk boundaries.  The thread budget,
    cfg.worker_count capped by SDDE_MEANSQ_THREADS, only decides whether
    one helper thread makes the increments (budget 2 or more) or the
    calling thread does (budget 1); it never changes the estimate.  A
    budget above 2 starts no further thread: the interpreter lock
    serializes the many small operations of stepping, so only the bulk
    normal transform gains from a second thread.
    Diverged paths, judged on sqrt(w) |X|, poison the estimate visibly
    (NaN/inf) and are counted.
    """
    phi.require_on(mu, nu)
    h = phi.step
    n_steps = exact_divisions(require_positive(T, "horizon"), h, "horizon")
    f_mu = CompiledFunctional(mu, h)
    g_nu = CompiledFunctional(nu, h)
    tilt = 2.0 * g_nu.atom_at.get(g_nu.n_intervals, 0.0)
    m_total = cfg.path_count
    bounds = [(lo, min(lo + CHUNK, m_total)) for lo in range(0, m_total, CHUNK)]

    budget = _thread_budget(cfg.worker_count)
    with ThreadPoolExecutor(max_workers=1) if budget > 1 else nullcontext() as helper:
        feed = _increment_blocks(cfg.master_seed, bounds, n_steps, h, tilt * h, helper)
        results = [
            _simulate_chunk(f_mu, g_nu, phi.values, n_steps, h, tilt, lo, hi, feed)
            for lo, hi in bounds
        ]

    total_sq = np.zeros(n_steps + 1)
    total_q4 = np.zeros(n_steps + 1)
    top = np.max([scale for _, _, scale, _, _ in results], axis=0)
    top_sq = np.zeros(n_steps + 1)
    diverged = 0
    for sum_sq, sum_q4, scale, bad, max_sq in results:
        total_sq += sum_sq
        total_q4 += np.ldexp(sum_q4, 2 * (scale - top))
        np.fmax(top_sq, np.ldexp(max_sq, scale - top), out=top_sq)
        diverged += bad
    mean_sq = total_sq / m_total
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        # the variance of the squares at the scale 2**(-2 top)
        scaled_sq = np.ldexp(total_sq, -top)
        var = (total_q4 - scaled_sq * scaled_sq / m_total) / (m_total - 1)
        stderr = np.ldexp(np.sqrt(np.maximum(var, 0.0) / m_total), top)
        share = np.where(scaled_sq == 0.0, 0.0, top_sq / scaled_sq)
    return MomentEstimate(
        h, mean_sq, stderr, m_total, cfg.master_seed, diverged, tilt,
        float(np.max(share)),
    )


def simulate_single_path(
    mu: SignedMeasure, nu: SignedMeasure, phi: Segment, increments: np.ndarray
) -> PathRecord:
    """One path on phi's grid driven by the given increments, one a step, with its noise terms."""
    phi.require_on(mu, nu)
    h = phi.step
    increments = np.asarray(increments, dtype=float)
    if increments.ndim != 1:
        raise ConfigurationError(BAD_VALUE, "increments must be a 1-d array")
    n_steps, n_hist = increments.size, phi.values.size - 1
    path = np.empty((n_hist + n_steps + 1, 1))
    path[: n_hist + 1, 0] = phi.values
    g_nu = CompiledFunctional(nu, h)
    drift = _WindowSums(CompiledFunctional(mu, h), path)
    # the chunks' stepper on one full-length column, with its rescales undone exactly
    for n, idx in _euler_maruyama(drift, _WindowSums(g_nu, path), increments[:, None], h, n_hist):
        path[n + 1 :, idx] *= 2.0**RESCALE_BITS
    noise_values = g_nu.trace(path[:, 0])[:n_steps]
    return PathRecord(path[n_hist:, 0], increments, noise_values)


def variation_of_constants_residual(
    record: PathRecord, r: HistoryTable, x: HistoryTable
) -> float:
    """Max defect of the path in the resolvent representation.

    Rebuilds x(t) + sum over n < m of r(t_m - t_n) G(X_at_t_n) dW_n from the
    recorded data and returns max_t |X(t) - rebuilt(t)|.
    """
    require_match(r.step, x.step, GRID_MISALIGNED, "resolvent step != solution step")
    g_dw = record.noise_values * record.increments
    n = g_dw.size
    xv = x.trace.values
    rebuilt = xv[1 : n + 1] + convolve(r.trace.values[1:], g_dw, n)
    gap = np.abs(record.values[1 : n + 1] - rebuilt)
    return float(gap.max(initial=abs(record.values[0] - xv[0])))
