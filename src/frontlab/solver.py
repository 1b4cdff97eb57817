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
  5. roundoff-scale negatives are clamped to zero, anything worse is a
     solver failure; state invariants are re-checked.

u is only Lipschitz in x, so first order in time plus upwind advection
is the appropriate accuracy class; the upwind choice also preserves
positivity under the stability bound.

Runs are stepped in batches (run_batch): runs that share n, the kernel
and the RunControl advance together with their fields stacked in
(B, 2, n+1) arrays, and run() is a batch of one.  Each elementwise stage
(transform coefficients, reaction, kernel taps, upwind assembly, tail
masses, the min/max checks) is one numpy call for the whole batch.  What
differs by row stays per row: the dt, and the stability, monotonicity and
bound checks on Python floats; one convolution with the row's own taps;
one tridiagonal solve; one fsum per front; recording and the stop rule.
A row leaves the batch when it stops or fails.  Every row is
bit-identical to its run stepped alone: an IEEE operation rounds each
element by itself whatever the array's shape, and the convolution, the
gtsv solve and the fsum see exactly the row's own operands.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Optional

import numpy as np
from scipy.linalg import LinAlgError, get_lapack_funcs

from .errors import SolverFailure
from .kernels import Kernel, apply_taps, kernel_taps, support_offsets, trapezoid_weights
from .model import Bounds, InitialData, ModelParams, field_bounds, reaction

# negatives above this floor are roundoff and are clamped to zero
_NEG_FLOOR = -1e-13
# multiplicative slack on the 0 <= w <= k1, 0 <= z <= k2 bound checks
_BOUND_SLACK = 1e-8
# safety factor in the stability bound dt <= 0.4*min(...)
_CFL = 0.4

# LAPACK's tridiagonal solver, fetched once for every v-solve
_gtsv = get_lapack_funcs("gtsv", dtype=np.float64)

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
        if not (self.horizon > 0):
            raise ValueError(f"horizon must be positive, got {self.horizon!r}")
        if self.n < 8:
            raise ValueError(f"n must be at least 8, got {self.n}")
        if self.record_every < 1:
            raise ValueError(f"record_every must be >= 1, got {self.record_every}")
        if self.dt is not None and not (self.dt > 0):
            raise ValueError(f"dt must be positive, got {self.dt!r}")


@lru_cache(maxsize=None)
def _front_nodes(n: int, width: int) -> tuple[np.ndarray, np.ndarray]:
    """y/2 and the reference trapezoid weights at the width nodes nearest
    h, ordered inward from node n, then at the width nodes nearest g,
    ordered inward from node 0."""
    idx = np.concatenate((np.arange(n, n - width, -1), np.arange(width)))
    y, wq_ref = reference_grid(n)
    return y[idx] * 0.5, wq_ref[idx]


def _columns(per_row: list[tuple]) -> tuple:
    """Per-row tuples of floats as one (B, 1) column per entry.  A batch of
    one gets the floats themselves: they broadcast over the (1, n+1)
    arrays as the columns would, on numpy's faster scalar path."""
    if len(per_row) == 1:
        return per_row[0]
    return tuple(np.array(per_row).T[:, :, None])


def _data_bounds(p: ModelParams, s: State) -> tuple[Bounds, float]:
    """field_bounds taking s as initial data on a habitat of half-width
    (h-g)/2, and the cap d1 + a + b*k2 + c*k1 + 1 those bounds put on
    the rates of the explicit terms."""
    n = len(s.w) - 1
    half = 0.5 * (s.h - s.g)
    slope = float(np.max(np.abs(np.diff(s.z)))) / (2.0 / n * half)
    bounds = field_bounds(p, half, float(s.w.max()), float(s.z.max()), slope)
    return bounds, p.d1 + p.a + p.b * bounds.k2 + p.c * bounds.k1 + 1.0


def _dt_cap(safety: float, dy: float, zeta: float, rate_cap: float) -> float:
    """Stability bound safety*min(dy/zeta, 1/rate_cap) for advection
    speed zeta and explicit rates up to rate_cap."""
    return safety * min(dy / zeta if zeta > 0 else math.inf, 1.0 / rate_cap)


def solve_banded(alpha: float, b: np.ndarray) -> np.ndarray:
    """Solve the tridiagonal system with constant diagonals (-alpha,
    1 + 2*alpha, -alpha) for b: the gtsv call scipy.linalg.solve_banded
    makes on that band, so the same bits, without the wrapper's per-call
    validation, which costs several times the solve at the step's sizes.
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


def boundary_velocities(b: _Batch) -> list[tuple[float, float]]:
    """Front law for every row of the batch b, as (gdot, hdot):
    h' = -mu*v_x(h) + rho*int tail(h-x)*u dx, and the mirrored expression
    at g, with v_x the one-sided second-order difference at each front.
    The inner dispersal integral is collapsed into the kernel's closed-form
    tail mass; the outer integral is trapezoid over the m nodes within a
    radius (plus one) of the front, as tail(s) is exactly 0 for
    s >= radius.  Positions, weights, tail masses and flux terms come from
    one call each on the 2M front nodes of every row only, M the largest
    m.  Each front's m terms are summed with one fsum: exactly rounded, so
    the layout cannot change the sum, and mirror-symmetric states give
    gdot = -hdot exactly."""
    n, radius, rows = b.n, b.k.radius, b.rows
    mid, length, half, h, g = b.geo
    ms = [int(min(n + 1.0, radius * n / (row.h - row.g) + 2.0)) for row in rows]
    width = max(max(ms), 3)  # at least the three nodes of each one-sided v_x
    yh, wq_ref = _front_nodes(n, width)
    # distances to the front: h - x for the nodes nearest h, x - g for those nearest g
    x = mid + yh * length
    dist = np.empty(x.shape)
    np.subtract(h, x[..., :width], out=dist[..., :width])
    np.subtract(x[..., width:], g, out=dist[..., width:])
    w, z = b.wz[:, 0], b.wz[:, 1]
    flux = wq_ref * half * b.k.tail_mass(dist) * np.concatenate((w[:, ::-1][:, :width], w[:, :width]), axis=1)
    z_right, z_left = z[:, :-4:-1].tolist(), z[:, :3].tolist()
    two_dy = 2.0 * b.dy
    out = []
    for row, m, terms, (zn, zn1, zn2), (z0, z1, z2) in zip(rows, ms, flux.tolist(), z_right, z_left):
        scale = 2.0 / (row.h - row.g)
        # Dirichlet values z0 = zn = 0 are used explicitly
        vx_left = (-3.0 * z0 + 4.0 * z1 - z2) / two_dy * scale
        vx_right = (3.0 * zn - 4.0 * zn1 + zn2) / two_dy * scale
        # fsum of a list: the same doubles, so the same sum, at half the cost
        flux_right, flux_left = math.fsum(terms[:m]), math.fsum(terms[width : width + m])
        p = row.p
        out.append((-p.mu * vx_left - p.rho * flux_left, -p.mu * vx_right + p.rho * flux_right))
    return out


class _Row:
    """One run of a batch: its parameters and stop rule, the bounds its
    initial data set, its scalar state and its record.  Its field samples
    are a row of the batch's arrays."""

    __slots__ = ("p", "stop_rule", "index", "bounds", "rate_cap", "t", "g", "h", "gdot", "hdot",
                 "last", "prev", "rec", "snapshots")

    def __init__(self, p: ModelParams, s0: State, stop_rule: Optional[Callable] = None, index: int = 0):
        self.p, self.stop_rule, self.index = p, stop_rule, index
        self.bounds, self.rate_cap = _data_bounds(p, s0)
        self.t, self.g, self.h = s0.t, s0.g, s0.h
        self.gdot = self.hdot = 0.0
        self.last, self.prev = False, None
        self.rec = _Recorder()
        self.snapshots: list[Snapshot] = []

    def check_invariants(self, t: float, g: float, h: float, wmax: float, zmax: float) -> None:
        """The state the step reached, at t on [g, h] with field maxima
        wmax and zmax, against the row's state before it."""
        # For nonnegative fields the front law gives hdot >= 0 >= gdot; the
        # positions are compared non-strictly because dt*hdot can fall below
        # half an ulp of h, leaving h unchanged in floating point.
        if not (self.hdot >= 0.0 >= self.gdot and h >= self.h and g <= self.g):
            raise SolverFailure(
                f"front monotonicity violated at t={t}: h {self.h} -> {h}, g {self.g} -> {g}"
            )
        # a NaN anywhere makes the max NaN; an inf makes it inf
        if not (math.isfinite(wmax) and math.isfinite(zmax)):
            raise SolverFailure(f"non-finite field values at t={t}")
        if not (wmax <= self.bounds.k1 * (1.0 + _BOUND_SLACK)):
            raise SolverFailure(f"u bound breached at t={t}: max u={wmax} > k1={self.bounds.k1}")
        if not (zmax <= self.bounds.k2 * (1.0 + _BOUND_SLACK)):
            raise SolverFailure(f"v bound breached at t={t}: max v={zmax} > k2={self.bounds.k2}")


class _Batch:
    """Rows sharing n and the kernel, stepped together.  wz[i] holds row
    i's (w, z) samples.  geo holds the rows' habitats as _columns():
    centre, length, half the length, h and g; d1 is a _column() too.
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
        self.geo = _columns([(0.5 * (r.g + r.h), r.h - r.g, 0.5 * (r.h - r.g), r.h, r.g) for r in rows])
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

    def step(self, dts: list[float]) -> list[tuple[_Row, SolverFailure]]:
        """Advance row i by dts[i] with its start-of-step front velocities.
        The rows whose step fails leave the batch and are returned with
        their failure."""
        k, n, dy = self.k, self.n, self.dy
        failed, alive, ms, alphas, ends, cols = [], [], [], [], [], []
        for i, (row, dt) in enumerate(zip(self.rows, dts)):
            gdot, hdot = row.gdot, row.hdot
            g1, h1 = row.g + dt * gdot, row.h + dt * hdot
            length = h1 - g1
            if not (length > 0):
                failed.append((row, SolverFailure(f"degenerate domain: g={g1}, h={h1}")))
                continue
            # coefficients on the advanced geometry, start-of-step velocities:
            # xi = scale^2 and zeta(y) = scale * (mean + y/2 * spread); zeta is
            # affine in y and rounding is monotone, so |zeta| peaks at an end node
            scale = 2.0 / length
            mean, spread = 0.5 * (gdot + hdot), hdot - gdot
            zeta_max = max(abs(scale * (mean + -0.5 * spread)), abs(scale * (mean + 0.5 * spread)))
            dt_cap = _dt_cap(_CFL, dy, zeta_max, row.rate_cap)
            if dt > dt_cap:
                failed.append((row, SolverFailure(
                    f"stability bound violated at t={row.t}: dt={dt:.3e} > {dt_cap:.3e} "
                    f"(max |zeta|={zeta_max:.3e}); rerun with a smaller dt"
                )))
                continue
            alive.append(i)
            spacing = length / n
            ms.append(support_offsets(k, spacing, n + 1))
            alphas.append(dt * row.p.d2 * (scale * scale) / (dy * dy))
            ends.append((row.t + dt, g1, h1))
            # the advanced habitat, the batch's next geo, then this step's own columns
            cols.append((0.5 * (g1 + h1), length, 0.5 * length, h1, g1, dt, mean, spread, scale, spacing))
        if failed:
            self.keep(alive)
            if not self.rows:
                return failed

        cols = _columns(cols)
        half, (dt, mean, spread, scale, spacing) = cols[2], cols[5:]
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

        rows = self.rows
        errors: dict[int, SolverFailure] = {}
        for i, alpha in enumerate(alphas):
            try:
                inner[i, 1] = solve_banded(alpha, inner[i, 1])
            except LinAlgError as exc:
                errors[i] = SolverFailure(f"tridiagonal solve failed at t={rows[i].t}: {exc}")
                errors[i].__cause__ = exc
        if not out.min() >= 0.0:  # a negative value or a NaN: check each field of each row
            for i, fmin in enumerate(out.reshape(len(rows), -1).min(axis=1).tolist()):
                if not fmin >= 0.0 and i not in errors:
                    try:
                        _clamp_roundoff(out[i, 0], ends[i][0], "u")
                        _clamp_roundoff(out[i, 1], ends[i][0], "v")
                    except SolverFailure as exc:
                        errors[i] = exc
        alive = []
        for i, (row, (t1, g1, h1), (wmax, zmax)) in enumerate(zip(rows, ends, out.max(axis=2).tolist())):
            if i not in errors:
                try:
                    row.check_invariants(t1, g1, h1, wmax, zmax)
                    row.t, row.g, row.h = t1, g1, h1
                    alive.append(i)
                    continue
                except SolverFailure as exc:
                    errors[i] = exc
            failed.append((row, errors[i]))
        self.wz, self.geo = out, cols[:5]
        if errors:
            self.keep(alive)
        return failed


def _clamp_roundoff(f: np.ndarray, t: float, name: str) -> None:
    fmin = float(f.min())
    if fmin < _NEG_FLOOR:
        raise SolverFailure(
            f"{name} fell to {fmin:.3e} at t={t}, below the roundoff floor {_NEG_FLOOR}; "
            "the scheme has lost positivity"
        )
    if fmin < 0.0:
        np.clip(f, 0.0, None, out=f)


def initial_state(init: InitialData, n: int) -> State:
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

    def add(self, s: State, gdot: float, hdot: float) -> None:
        # physical center x=0 pulled back to the reference frame
        y0 = -(s.g + s.h) / (s.h - s.g)
        if -1.0 <= y0 <= 1.0:
            y = reference_grid(len(s.w) - 1)[0]
            centers = (float(np.interp(y0, y, s.w)), float(np.interp(y0, y, s.z)))
        else:
            centers = (0.0, 0.0)
        row = (s.t, s.g, s.h, gdot, hdot, float(s.w.max()), float(s.z.max())) + centers
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
        rows = batch.rows
        for row, (gdot, hdot) in zip(rows, boundary_velocities(batch)):
            row.gdot, row.hdot = gdot, hdot
        alive, dts = [], []
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
                    row.rec.add(s, row.gdot, row.hdot)
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
            alive.append(i)
            # the next step's dt
            if n_steps is None:
                left = horizon - row.t
                dt = min(auto_dt(n, row.h - row.g, row.gdot, row.hdot, row.rate_cap, row.prev), left)
                row.last = dt == left
                row.prev = (row.gdot, row.hdot, dt)
            else:
                dt, row.last = ctrl.dt, istep + 1 == n_steps
            dts.append(dt)
        if len(alive) < len(rows):
            batch.keep(alive)
        if not batch.rows:
            return results
        for row, exc in batch.step(dts):
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
