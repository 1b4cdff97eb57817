"""Time integration of the two-species system on the moving domain.

The moving interval [g(t), h(t)] is mapped to the reference interval
[-1, 1] by x = (g+h)/2 + y*(h-g)/2.  In the mapped frame both species
gain an advection term zeta(t,y)*f_y from the mesh motion, and the local
diffusion of v picks up the factor xi(t) = (2/(h-g))^2.

One step is implicit-explicit Euler:

  1. front velocities from the current state; fronts advance explicitly;
  2. transform coefficients rebuilt on the new geometry;
  3. u-samples (w) advance explicitly: upwind advection, nonlocal
     operator on the mapped physical nodes as a banded Toeplitz
     convolution (kernels.apply_taps), reaction;
  4. v-samples (z) advance with the stiff d2*xi*z_yy term implicit
     (tridiagonal solve) and everything else explicit;
  5. each row accepts its step in one pass (_Row.commit): roundoff-scale
     negatives are clamped to zero and anything worse fails, as does a
     front that recedes, a non-finite value or a breach of k1 or k2.

u is only Lipschitz in x, so first order in time plus upwind advection
is the appropriate accuracy class; the upwind choice also preserves
positivity under the stability bound.

Runs are stepped in batches (run_batch): runs that share n, the kernel
and the RunControl advance together with their fields stacked in
(B, 2, n+1) arrays, and run() is a batch of one.  Each row first plans
its step on Python floats (_Row.plan: its dt, fronts, stability check
and v-solve coefficient); a failed plan ends that run before the array
work.  The batch then steps the planned rows (_Batch.step) with one numpy
call per elementwise stage (transform coefficients, reaction, kernel
taps, upwind assembly, tail masses, front fluxes, the min/max checks);
one convolution with the row's own taps, one tridiagonal solve, the
invariant checks, recording and the stop rule stay per row.  A row
leaves the batch when it stops or fails.  Every row is bit-identical to
its run stepped alone: an IEEE operation rounds each element by itself
whatever the array's shape, the convolution and the gtsv solve see
exactly the row's own operands, and the front fluxes are left-to-right
sums whose terms past the row's own kernel support are exact zeros.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Optional

import numpy as np
from numpy.linalg import LinAlgError

from . import _scipy
from .errors import SolverFailure
from .kernels import Kernel, apply_taps, kernel_taps, support_offsets, trapezoid_weights
from .model import Bounds, InitialData, ModelParams, field_bounds, reaction

# negatives above this floor are roundoff and are clamped to zero
_NEG_FLOOR = -1e-13
# multiplicative slack on the 0 <= w <= k1, 0 <= z <= k2 bound checks
_BOUND_SLACK = 1e-8
# safety factor in the stability bound dt <= 0.4*min(...)
_CFL = 0.4

# LAPACK's tridiagonal solver, bound once for every v-solve
_gtsv = _scipy.dgtsv

# per-sample trajectory columns, in the order they are recorded and written
TRAJECTORY_COLUMNS = ("t", "g", "h", "gdot", "hdot", "sup_u", "sup_v", "u_center", "v_center")


@lru_cache(maxsize=None)
def reference_grid(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Uniform nodes y_i on the reference interval [-1, 1] (n intervals,
    n+1 nodes) and their trapezoid weights.  The arrays are shared by
    every caller with the same n, so they are read-only."""
    if n < 8:
        raise ValueError(f"reference grid needs at least 8 intervals, got {n}")
    y = np.linspace(-1.0, 1.0, n + 1)
    wq = trapezoid_weights(n + 1, 2.0 / n)
    y.flags.writeable = False
    wq.flags.writeable = False
    return y, wq


@dataclass
class State:
    """Fields sampled on the reference nodes at one instant."""

    t: float
    g: float
    h: float
    w: np.ndarray  # u(t, x(t,y_i))
    z: np.ndarray  # v(t, x(t,y_i))


@dataclass
class Snapshot:
    t: float
    g: float
    h: float
    x: np.ndarray
    u: np.ndarray
    v: np.ndarray


@dataclass
class Trajectory:
    t: np.ndarray
    g: np.ndarray
    h: np.ndarray
    gdot: np.ndarray
    hdot: np.ndarray
    sup_u: np.ndarray
    sup_v: np.ndarray
    u_center: np.ndarray
    v_center: np.ndarray
    termination: str
    n: int  # reference-grid interval count of the producing run
    snapshots: list = field(default_factory=list)

    @property
    def length(self) -> np.ndarray:
        return self.h - self.g


@dataclass(frozen=True)
class RunControl:
    horizon: float
    n: int = 200
    dt: Optional[float] = None  # None: auto_dt chooses each step from the state
    record_every: int = 10
    snapshot_every: int = 0  # 0 disables field snapshots

    def __post_init__(self):
        if not (math.isfinite(self.horizon) and self.horizon > 0):
            raise ValueError(f"horizon must be positive and finite, got {self.horizon!r}")
        if self.n < 8:
            raise ValueError(f"n must be at least 8, got {self.n}")
        if self.record_every < 1:
            raise ValueError(f"record_every must be >= 1, got {self.record_every}")
        if self.snapshot_every < 0:
            raise ValueError(f"snapshot_every must be >= 0, got {self.snapshot_every}")
        if self.dt is not None and not (self.dt > 0):
            raise ValueError(f"dt must be positive, got {self.dt!r}")


@lru_cache(maxsize=None)
def _front_index(n: int, width: int) -> tuple[np.ndarray, np.ndarray]:
    """The width node indices inward from each front, from node n for h and
    from node 0 for g, as a (2, width) array, and the offsets j = 0..width-1
    of those nodes from their front, in node spacings."""
    idx = np.stack((np.arange(n, n - width, -1), np.arange(width)))
    return idx, np.arange(width, dtype=float)


def _columns(per_row: list[tuple]) -> tuple:
    """Per-row tuples of floats as one (B, 1) column per entry.  A batch of
    one gets the floats themselves: they broadcast over the (1, n+1)
    arrays as the columns would, on numpy's faster scalar path."""
    if len(per_row) == 1:
        return per_row[0]
    return tuple(np.array(per_row).T[:, :, None])


def _data_bounds(p: ModelParams, u0_max: float, v0_max: float) -> tuple[Bounds, float]:
    """field_bounds for initial maxima u0_max and v0_max, and the cap
    d1 + a + b*k2 + c*k1 + 1 those bounds put on the rates of the
    explicit terms."""
    bounds = field_bounds(p, u0_max, v0_max)
    return bounds, p.d1 + p.a + p.b * bounds.k2 + p.c * bounds.k1 + 1.0


def _dt_cap(safety: float, dy: float, zeta: float, rate_cap: float) -> float:
    """Stability bound safety*min(dy/zeta, 1/rate_cap) for advection
    speed zeta and explicit rates up to rate_cap."""
    return safety * min(dy / zeta if zeta > 0 else math.inf, 1.0 / rate_cap)


def solve_banded(alpha: float, b: np.ndarray) -> np.ndarray:
    """Solve the tridiagonal system with constant diagonals (-alpha,
    1 + 2*alpha, -alpha) for b by LAPACK dgtsv from _scipy: the call
    scipy.linalg.solve_banded makes on that band, so the same bits, without
    the wrapper's per-call validation, which costs several times the solve
    at the step's sizes.
    Raises LinAlgError on an exactly singular pivot."""
    # empty + fill: np.full's Python-level wrapper costs more than the fill
    off = np.empty(len(b) - 1)
    off.fill(-alpha)
    diag = np.empty(len(b))
    diag.fill(1.0 + 2.0 * alpha)
    x, info = _gtsv(off, diag, off, b)[3:]
    if info > 0:
        raise LinAlgError("singular matrix")
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of gtsv")
    return x


def boundary_velocities(b: _Batch) -> None:
    """Front law for every row of the batch b, stored as the row's gdot and hdot:
    h' = -mu*v_x(h) + rho*int tail(h-x)*u dx, and the mirrored expression
    at g, with v_x the one-sided second-order difference at each front.
    The inner dispersal integral is collapsed into the kernel's closed-form
    tail mass; the outer integral is trapezoid over the nodes inward from
    the front, the j-th at distance j*(h-g)/n, the offsets of the nonlocal
    taps.  One tail_mass call gives each row's table at the offsets below
    M = min(n+1, 2 + the largest support_offsets of the batch's rows), and
    both fronts of the row share it.  The flux terms of every front
    are summed by one left-to-right accumulation from the front inward.
    tail(s) is exactly 0 for s >= radius, so a row's terms past its own m
    are exact zeros that leave its sum as it is: each row gets the bits it
    gets stepped alone, whatever M.  Both fronts sum the same sequence, so
    mirror-symmetric states give gdot = -hdot exactly."""
    n, k, rows = b.n, b.k, b.rows
    half, spacing = b.geo
    width = min(n + 1, 2 + max(support_offsets(k, (row.h - row.g) / n, n + 1) for row in rows))
    idx, offsets = _front_index(n, width)
    # the weights are symmetric, so the first width serve both fronts
    table = b.wq_ref[:width] * half * k.tail_mass(offsets * spacing)
    terms = table[..., None, :] * b.wz[:, 0].take(idx, axis=-1)
    fluxes = np.add.accumulate(terms, axis=-1)[..., -1].tolist()
    z = b.wz[:, 1]
    z_right, z_left = z[:, :-4:-1].tolist(), z[:, :3].tolist()
    two_dy = 2.0 * b.dy
    for row, (flux_right, flux_left), (zn, zn1, zn2), (z0, z1, z2) in zip(rows, fluxes, z_right, z_left):
        scale = 2.0 / (row.h - row.g)
        # Dirichlet values z0 = zn = 0 are used explicitly
        vx_left = (-3.0 * z0 + 4.0 * z1 - z2) / two_dy * scale
        vx_right = (3.0 * zn - 4.0 * zn1 + zn2) / two_dy * scale
        p = row.p
        row.gdot, row.hdot = -p.mu * vx_left - p.rho * flux_left, -p.mu * vx_right + p.rho * flux_right


class _Row:
    """One run of a batch: its parameters and stop rule, the bounds its
    initial data set, its scalar state, its planned step and its record.
    Its field samples are a row of the batch's arrays."""

    __slots__ = ("p", "stop_rule", "index", "bounds", "rate_cap", "t", "g", "h", "gdot", "hdot", "sups",
                 "end", "last", "prev", "rec", "snapshots")

    def __init__(self, p: ModelParams, s0: State, stop_rule: Optional[Callable] = None, index: int = 0):
        self.p, self.stop_rule, self.index = p, stop_rule, index
        self.sups = (float(s0.w.max()), float(s0.z.max()))  # the fields' maxima, for the record and the bounds
        self.bounds, self.rate_cap = _data_bounds(p, *self.sups)
        self.t, self.g, self.h = s0.t, s0.g, s0.h
        self.gdot = self.hdot = 0.0
        self.end, self.last, self.prev = None, False, None
        self.rec = _Recorder()
        self.snapshots: list[Snapshot] = []

    def plan(self, dt: float, b: _Batch) -> tuple:
        """The row's step by dt with its start-of-step front velocities, as
        b.step takes it: the step's columns, the kernel's support offsets
        on the advanced grid and the v-solve's alpha; the advanced (t, g, h)
        is kept as end.  Raises SolverFailure on a degenerate domain or a
        dt above the stability bound."""
        n, dy = b.n, b.dy
        gdot, hdot = self.gdot, self.hdot
        g1, h1 = self.g + dt * gdot, self.h + dt * hdot
        length = h1 - g1
        if not (length > 0):
            raise SolverFailure(f"degenerate domain: g={g1}, h={h1}")
        # coefficients on the advanced geometry, start-of-step velocities:
        # xi = scale^2 and zeta(y) = scale * (mean + y/2 * spread); zeta is
        # affine in y and rounding is monotone, so |zeta| peaks at an end node
        scale = 2.0 / length
        mean, spread = 0.5 * (gdot + hdot), hdot - gdot
        zeta_max = max(abs(scale * (mean + -0.5 * spread)), abs(scale * (mean + 0.5 * spread)))
        dt_cap = _dt_cap(_CFL, dy, zeta_max, self.rate_cap)
        if dt > dt_cap:
            raise SolverFailure(
                f"stability bound violated at t={self.t}: dt={dt:.3e} > {dt_cap:.3e} "
                f"(max |zeta|={zeta_max:.3e}); rerun with a smaller dt"
            )
        self.end = (self.t + dt, g1, h1)
        spacing = length / n
        # the advanced habitat, the batch's next geo, then this step's own columns
        cols = (0.5 * length, spacing, dt, mean, spread, scale)
        return cols, support_offsets(b.k, spacing, n + 1), dt * self.p.d2 * (scale * scale) / (dy * dy)

    def commit(self, fields: np.ndarray, lows: list[float], highs: list[float]) -> None:
        """Advance the row to end, its planned step, or raise SolverFailure.
        fields is the row's (w, z) after the step, with minima lows and
        maxima highs; they are checked against the row's state before it."""
        t, g, h = self.end
        for f, low, name in zip(fields, lows, "uv"):
            if not low >= 0.0:  # a negative value or a NaN
                _clamp_roundoff(f, t, name)
        # For nonnegative fields the front law gives hdot >= 0 >= gdot; the
        # positions are compared non-strictly because dt*hdot can fall below
        # half an ulp of h, leaving h unchanged in floating point.
        if not (self.hdot >= 0.0 >= self.gdot and h >= self.h and g <= self.g):
            raise SolverFailure(
                f"front monotonicity violated at t={t}: h {self.h} -> {h}, g {self.g} -> {g}"
            )
        # a NaN anywhere makes the max NaN; an inf makes it inf
        wmax, zmax = highs
        if not (math.isfinite(wmax) and math.isfinite(zmax)):
            raise SolverFailure(f"non-finite field values at t={t}")
        if not (wmax <= self.bounds.k1 * (1.0 + _BOUND_SLACK)):
            raise SolverFailure(f"u bound breached at t={t}: max u={wmax} > k1={self.bounds.k1}")
        if not (zmax <= self.bounds.k2 * (1.0 + _BOUND_SLACK)):
            raise SolverFailure(f"v bound breached at t={t}: max v={zmax} > k2={self.bounds.k2}")
        self.t, self.g, self.h = self.end
        self.sups = (wmax, zmax)


class _Batch:
    """Rows sharing n and the kernel, stepped together.  wz[i] holds row
    i's (w, z) samples.  geo holds the rows' habitats as _columns():
    half the length and the node spacing (h-g)/n; d1 is a _column() too.
    rates and couplings are (B, 2, 1), so the batch serves as reaction()'s
    params."""

    def __init__(self, k: Kernel, rows: list[_Row], wz: np.ndarray):
        self.k = k
        self.n = wz.shape[-1] - 1
        y, self.wq_ref = reference_grid(self.n)  # weights scale by (h-g)/2
        self.yh = y * 0.5
        self.dy = 2.0 / self.n
        self._set(rows, wz)

    def _set(self, rows: list[_Row], wz: np.ndarray) -> None:
        self.rows, self.wz = rows, wz
        self.geo = _columns([(0.5 * (r.h - r.g), (r.h - r.g) / self.n) for r in rows])
        (self.d1,) = _columns([(r.p.d1,) for r in rows])
        self.rates = np.array([r.p.rates for r in rows])
        self.couplings = np.array([r.p.couplings for r in rows])

    def keep(self, alive: list[int]) -> None:
        """Keep the rows at the indices alive; the others leave the batch."""
        if not alive:
            self.rows = []
        elif len(alive) < len(self.rows):
            self._set([self.rows[i] for i in alive], self.wz[alive])

    def state(self, i: int) -> State:
        row = self.rows[i]
        return State(t=row.t, g=row.g, h=row.h, w=self.wz[i, 0], z=self.wz[i, 1])

    def step(self, plans: list[tuple]) -> list[tuple[_Row, SolverFailure]]:
        """Advance row i by plans[i], its _Row.plan.  The rows whose step
        fails leave the batch and are returned with their failure."""
        k, n, dy, rows = self.k, self.n, self.dy, self.rows
        cols, ms, alphas = zip(*plans)
        cols = _columns(cols)
        half, spacing, dt, mean, spread, scale = cols
        zeta = scale * (mean + self.yh * spread)
        w = self.wz[:, 0]
        # nonlocal operator on the mapped physical nodes, (h-g)/n apart: each
        # row convolved with its own 2m+1 taps, cut from the padded rows
        m_max = max(ms)
        taps = kernel_taps(k, spacing, m_max).reshape(len(ms), -1)
        fw = self.wq_ref * half * w  # trapezoid weights on the advanced habitats
        ku_w = np.empty((len(ms), n - 1))  # Ku - w at the interior nodes
        for i, m in enumerate(ms):
            np.subtract(apply_taps(fw[i], taps[i, m_max - m : m_max + m + 1])[1:-1], w[i, 1:-1], out=ku_w[i])

        # One pass for both fields over the interior nodes; the end values
        # are the Dirichlet zeros.  Field 0 becomes
        #   w1 = w + dt*(zeta*w_y + d1*(Ku - w) + f1),
        # field 1 the v-solve's right-hand side z + dt*(zeta*z_y + f2), and
        # then its solution.  The upwind derivative takes the forward
        # difference where zeta > 0 and the backward one elsewhere: both
        # are the node differences, shifted by one node.
        diff = self.wz[..., 1:] - self.wz[..., :-1]
        diff /= dy
        zeta_in = zeta[..., None, 1:-1]
        out = np.zeros(self.wz.shape)
        inner = out[..., 1:-1]
        np.multiply(zeta_in, np.where(zeta_in > 0.0, diff[..., 1:], diff[..., :-1]), out=inner)
        inner[:, 0] += self.d1 * ku_w
        inner += reaction(self, self.wz)[..., 1:-1]
        inner *= dt if len(ms) == 1 else dt[:, :, None]
        inner += self.wz[..., 1:-1]

        errors: dict[int, SolverFailure] = {}
        for i, alpha in enumerate(alphas):
            try:
                inner[i, 1] = solve_banded(alpha, inner[i, 1])
            except LinAlgError as exc:
                errors[i] = SolverFailure(f"tridiagonal solve failed at t={rows[i].t}: {exc}")
                errors[i].__cause__ = exc
        for i, (row, lows, highs) in enumerate(zip(rows, out.min(axis=2).tolist(), out.max(axis=2).tolist())):
            if i not in errors:
                try:
                    row.commit(out[i], lows, highs)
                except SolverFailure as exc:
                    errors[i] = exc
        self.wz, self.geo = out, cols[:2]
        if not errors:
            return []
        self.keep([i for i in range(len(rows)) if i not in errors])
        return [(rows[i], exc) for i, exc in errors.items()]


def _clamp_roundoff(f: np.ndarray, t: float, name: str) -> None:
    fmin = float(f.min())
    if fmin < _NEG_FLOOR:
        raise SolverFailure(
            f"{name} fell to {fmin:.3e} at t={t}, below the roundoff floor {_NEG_FLOOR}; "
            "the scheme has lost positivity"
        )
    if fmin < 0.0:
        np.clip(f, 0.0, None, out=f)


# shortest initial half-width a run takes: the mapped frame's factor
# (2/(h-g))^2 = 1/h0^2 overflows below about 7.5e-155, and the v-solve's
# product of it with d2, dt and n^2/4 overflows even above that; at 2^-480
# it is 2^960, which leaves 2^64 for the other factors
_MIN_H0 = 2.0**-480


def check_h0(h0: float) -> None:
    """Raise ValueError when no run can start from the half-width h0."""
    if not h0 >= _MIN_H0:
        raise ValueError(f"init.h0 = {h0!r} is below the floor 2^-480 (3.2e-145) a run needs")


def initial_state(init: InitialData, n: int) -> State:
    check_h0(init.h0)
    x = reference_grid(n)[0] * init.h0
    w = np.asarray(init.u0(x), dtype=float)
    z = np.asarray(init.v0(x), dtype=float)
    w[0] = w[-1] = 0.0
    z[0] = z[-1] = 0.0
    # NaN fails both tests; each step checks its own output for non-finite values
    if not (np.isfinite(w).all() and np.isfinite(z).all() and w.min() >= 0 and z.min() >= 0):
        raise ValueError("initial profiles must be finite and nonnegative")
    return State(t=0.0, g=-init.h0, h=init.h0, w=w, z=z)


# dt = auto: the front speeds may change by at most this fraction of their
# size in one step, and the first step takes this fraction of the stability bound
_SPEED_CHANGE = 0.1


def auto_dt(n: int, length: float, gdot: float, hdot: float, rate_cap: float, prev: Optional[tuple]) -> float:
    """Step size for numerics.dt = auto, from the state on a habitat of the
    given length sampled on n reference intervals: 0.9 of the _dt_cap
    bound at the current advection speed, and at most the dt over which the
    front speeds, changing as over the previous step prev = (gdot, hdot, dt),
    change by _SPEED_CHANGE of the larger speed.  The step checks stability
    on the longer advanced habitat, where the advection speed is no larger."""
    speed = max(abs(gdot), abs(hdot))
    dt = _dt_cap(0.9 * _CFL, 2.0 / n, 2.0 / length * speed, rate_cap)
    if prev is None:
        return _SPEED_CHANGE * dt
    gdot0, hdot0, dt0 = prev
    change = max(abs(gdot - gdot0), abs(hdot - hdot0))
    if change > 0.0:
        dt = min(dt, _SPEED_CHANGE * max(speed, abs(gdot0), abs(hdot0)) * dt0 / change)
    return dt


class _Recorder:
    """Trajectory samples accumulated during a run, one list per entry of
    TRAJECTORY_COLUMNS; handed to stop rules."""

    def __init__(self):
        for name in TRAJECTORY_COLUMNS:
            setattr(self, name, [])

    def add(self, s: State, gdot: float, hdot: float, sups: tuple[float, float]) -> None:
        """Record s with its front speeds and its fields' maxima sups = (sup_u, sup_v)."""
        # physical center x=0 pulled back to the reference frame, inside [-1, 1] as g < 0 < h
        y0 = -(s.g + s.h) / (s.h - s.g)
        y = reference_grid(len(s.w) - 1)[0]
        centers = (float(np.interp(y0, y, s.w)), float(np.interp(y0, y, s.z)))
        row = (s.t, s.g, s.h, gdot, hdot) + sups + centers
        for name, value in zip(TRAJECTORY_COLUMNS, row):
            getattr(self, name).append(value)

    def to_trajectory(self, termination: str, n: int, snapshots: list) -> Trajectory:
        columns = {name: np.asarray(getattr(self, name)) for name in TRAJECTORY_COLUMNS}
        return Trajectory(**columns, termination=termination, n=n, snapshots=snapshots)


def _snapshot(s: State) -> Snapshot:
    y = reference_grid(len(s.w) - 1)[0]
    x = 0.5 * (s.g + s.h) + y * 0.5 * (s.h - s.g)
    return Snapshot(t=s.t, g=s.g, h=s.h, x=x, u=s.w.copy(), v=s.z.copy())


def run_batch(jobs: list, k: Kernel, ctrl: RunControl) -> list:
    """Integrate every run of jobs, a list of (p, init, stop_rule) triples
    sharing the kernel k and ctrl, as one batch.  Returns, in job order,
    each run's Trajectory, or the exception that ended it: what run()
    returns or raises for that job alone, bit for bit.  A failing run
    leaves the others untouched."""
    results: list = [None] * len(jobs)
    rows, fields = [], []
    for index, (p, init, stop_rule) in enumerate(jobs):
        try:
            s0 = initial_state(init, ctrl.n)
            rows.append(_Row(p, s0, stop_rule, index))
        except Exception as exc:  # this job's own failure, for its caller to raise or report
            results[index] = exc
            continue
        fields.append((s0.w, s0.z))
    if not rows:
        return results
    batch = _Batch(k, rows, np.array(fields))
    n, horizon, record_every, snapshot_every = ctrl.n, ctrl.horizon, ctrl.record_every, ctrl.snapshot_every
    n_steps = None if ctrl.dt is None else max(1, math.ceil(horizon / ctrl.dt))

    istep = 0
    while True:
        boundary_velocities(batch)
        rows, alive, plans = batch.rows, [], []
        for i, row in enumerate(rows):
            last = row.last
            if last and n_steps is None:
                row.t = horizon  # t + (horizon - t) can round off the horizon
            # the initial state is recorded, and snapshotted when snapshots are on
            recorded = istep % record_every == 0 or last
            snapped = snapshot_every > 0 and (istep % snapshot_every == 0 or last)
            if recorded or snapped:
                s = batch.state(i)
                if recorded:
                    row.rec.add(s, row.gdot, row.hdot, row.sups)
                if snapped:
                    row.snapshots.append(_snapshot(s))
            termination = "horizon" if last else None
            if istep and recorded and row.stop_rule is not None:
                try:
                    reason = row.stop_rule(row.rec)
                except Exception as exc:  # this run's own failure, as above
                    results[row.index] = exc
                    continue
                if reason:
                    termination = f"stop:{reason}"
            if termination is not None:
                results[row.index] = row.rec.to_trajectory(termination, n, row.snapshots)
                continue
            # the next step's dt and its plan
            if n_steps is None:
                left = horizon - row.t
                dt = min(auto_dt(n, row.h - row.g, row.gdot, row.hdot, row.rate_cap, row.prev), left)
                row.last = dt == left
                row.prev = (row.gdot, row.hdot, dt)
            else:
                dt, row.last = ctrl.dt, istep + 1 == n_steps
            try:
                plans.append(row.plan(dt, batch))
            except SolverFailure as exc:  # this run's own failure, as above
                results[row.index] = exc
                continue
            alive.append(i)
        if len(alive) < len(rows):
            batch.keep(alive)
            if not batch.rows:
                return results
        for row, exc in batch.step(plans):
            results[row.index] = exc
        if not batch.rows:
            return results
        istep += 1


def run(
    p: ModelParams, init: InitialData, k: Kernel, ctrl: RunControl, stop_rule: Optional[Callable] = None
) -> Trajectory:
    """Integrate until the horizon or until the stop rule fires.

    An explicit ctrl.dt takes ceil(horizon/dt) steps of that dt; with
    ctrl.dt None, auto_dt chooses each dt from the state and the last step
    ends on the horizon exactly.  record_every counts steps.  stop_rule,
    when given, is called with the record at every record point and ends
    the run when it returns a reason.  Deterministic given inputs; the
    initial sample and the final state are always recorded.  A batch of
    one (run_batch).
    """
    result = run_batch([(p, init, stop_rule)], k, ctrl)[0]
    if isinstance(result, Exception):
        raise result
    return result
