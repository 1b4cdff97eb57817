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
     convolution (kernels.nonlocal_apply), reaction;
  4. v-samples (z) advance with the stiff d2*xi*z_yy term implicit
     (tridiagonal solve) and everything else explicit;
  5. roundoff-scale negatives are clamped to zero, anything worse is a
     solver failure; state invariants are re-checked.

u is only Lipschitz in x, so first order in time plus upwind advection
is the appropriate accuracy class; the upwind choice also preserves
positivity under the stability bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Optional

import numpy as np
from scipy.linalg import LinAlgError, get_lapack_funcs

from .errors import SolverFailure
from .kernels import Kernel, nonlocal_apply, trapezoid_weights
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


def transform_coefficients(g: float, h: float, gdot: float, hdot: float, n: int) -> tuple[float, np.ndarray]:
    """Mapped-frame coefficients on the habitat [g, h] with n reference
    intervals: xi = (2/(h-g))^2 and the per-node advection speed
    zeta_i = (2/(h-g)) * x_t(t, y_i)."""
    length = h - g
    if not (length > 0):
        raise SolverFailure(f"degenerate domain: g={g}, h={h}")
    y = reference_grid(n)[0]
    x_t = 0.5 * (gdot + hdot) + y * 0.5 * (hdot - gdot)
    scale = 2.0 / length
    return scale * scale, scale * x_t


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


def _front_slopes(z: np.ndarray, dy: float, length: float) -> tuple[float, float]:
    """One-sided second-order v_x at the left and right fronts (physical x)."""
    scale = 2.0 / length
    # Dirichlet values z[0] = z[-1] = 0 are used explicitly
    z0, z1, z2 = z[:3].tolist()
    zn2, zn1, zn = z[-3:].tolist()
    vx_left = (-3.0 * z0 + 4.0 * z1 - z2) / (2.0 * dy) * scale
    vx_right = (3.0 * zn - 4.0 * zn1 + zn2) / (2.0 * dy) * scale
    return vx_left, vx_right


def boundary_velocities(s: State, p: ModelParams, k: Kernel) -> tuple[float, float]:
    """Front law: h' = -mu*v_x(h) + rho*int tail(h-x)*u dx, and the
    mirrored expression at g.  The inner dispersal integral is collapsed
    into the kernel's closed-form tail mass; the outer integral is
    trapezoid over the m nodes within a radius (plus one) of the front, as
    tail(s) is exactly 0 for s >= radius.  The tail masses of both fronts
    come from one call on a (2, m) array of front distances, and each
    row is summed with one fsum: exactly rounded, so the row layout
    cannot change the sum, and mirror-symmetric states give gdot = -hdot
    exactly."""
    n = len(s.w) - 1
    y, wq_ref = reference_grid(n)
    length = s.h - s.g
    vx_left, vx_right = _front_slopes(s.z, 2.0 / n, length)
    m = int(min(n + 1.0, k.radius * n / length + 2.0))
    x = 0.5 * (s.g + s.h) + y * 0.5 * length
    wq = wq_ref * (0.5 * length)
    # row 0: the m nodes nearest h; row 1: the m nodes nearest g
    tail = k.tail_mass(np.array((s.h - x[-m:], x[:m] - s.g)))
    flux = np.array((wq[-m:], wq[:m])) * tail * np.array((s.w[-m:], s.w[:m]))
    # fsum of a list: the same doubles, so the same sum, at half the cost
    flux_right, flux_left = map(math.fsum, flux.tolist())
    hdot = -p.mu * vx_right + p.rho * flux_right
    gdot = -p.mu * vx_left - p.rho * flux_left
    return gdot, hdot


class _Stepper:
    """Carries the per-run immutable pieces so the hot loop only builds
    what the moving geometry forces it to rebuild.  The field bounds and
    the rate cap come from s0, taken as initial data."""

    def __init__(self, p: ModelParams, k: Kernel, s0: State):
        self.p = p
        self.k = k
        self.n = len(s0.w) - 1
        self.y, self.wq_ref = reference_grid(self.n)  # weights scale by (h-g)/2
        self.dy = 2.0 / self.n
        self.bounds, self.rate_cap = _data_bounds(p, s0)

    def step(self, s: State, dt: float, gdot: float, hdot: float) -> State:
        """Advance s by dt with the start-of-step front velocities."""
        p, k, n = self.p, self.k, self.n
        dy = self.dy

        g1 = s.g + dt * gdot
        h1 = s.h + dt * hdot
        # coefficients on the advanced geometry, start-of-step velocities
        xi, zeta = transform_coefficients(g1, h1, gdot, hdot, n)
        length = h1 - g1

        # zeta is affine in y and rounding is monotone, so |zeta| peaks at an end node
        zeta_max = float(max(abs(zeta[0]), abs(zeta[-1])))
        dt_cap = _dt_cap(_CFL, dy, zeta_max, self.rate_cap)
        if dt > dt_cap:
            raise SolverFailure(
                f"stability bound violated at t={s.t}: dt={dt:.3e} > {dt_cap:.3e} "
                f"(max |zeta|={zeta_max:.3e}); rerun with a smaller dt"
            )

        w, z = s.w, s.z
        f1, f2 = reaction(p, w, z)

        # nonlocal operator on the mapped physical nodes, (h-g)/n apart
        Ku = nonlocal_apply(k, length / n, self.wq_ref * (0.5 * length) * w)

        # One pass for both fields over the interior nodes; the end values
        # are the Dirichlet zeros.  Row 0 becomes
        #   w1 = w + dt*(zeta*w_y + d1*(Ku - w) + f1),
        # row 1 the v-solve's right-hand side z + dt*(zeta*z_y + f2), and
        # then its solution.  The upwind derivative takes the forward
        # difference where zeta > 0 and the backward one elsewhere: both
        # are the node differences, shifted by one node.
        wz = np.array((w, z))
        diff = wz[:, 1:] - wz[:, :-1]
        diff /= dy
        zeta_in = zeta[1:-1]
        out = np.zeros((2, n + 1))
        inner = out[:, 1:-1]
        np.multiply(zeta_in, np.where(zeta_in > 0.0, diff[:, 1:], diff[:, :-1]), out=inner)
        inner[0] += p.d1 * (Ku[1:-1] - w[1:-1])
        inner[0] += f1[1:-1]
        inner[1] += f2[1:-1]
        inner *= dt
        inner += wz[:, 1:-1]
        alpha = dt * p.d2 * xi / (dy * dy)
        try:
            inner[1] = solve_banded(alpha, inner[1])
        except LinAlgError as exc:
            raise SolverFailure(f"tridiagonal solve failed at t={s.t}: {exc}") from exc

        w1, z1 = out
        if not out.min() >= 0.0:  # a negative value or a NaN: check each field
            _clamp_roundoff(w1, s.t + dt, "u")
            _clamp_roundoff(z1, s.t + dt, "v")

        after = State(t=s.t + dt, g=g1, h=h1, w=w1, z=z1)
        self._check_invariants(s, after, gdot, hdot)
        return after

    def _check_invariants(self, before: State, after: State, gdot: float, hdot: float) -> None:
        # For nonnegative fields the front law gives hdot >= 0 >= gdot; the
        # positions are compared non-strictly because dt*hdot can fall below
        # half an ulp of h, leaving h unchanged in floating point.
        if not (hdot >= 0.0 >= gdot and after.h >= before.h and after.g <= before.g):
            raise SolverFailure(
                f"front monotonicity violated at t={after.t}: "
                f"h {before.h} -> {after.h}, g {before.g} -> {after.g}"
            )
        wmax = float(after.w.max())
        zmax = float(after.z.max())
        # a NaN anywhere makes the max NaN; an inf makes it inf
        if not (math.isfinite(wmax) and math.isfinite(zmax)):
            raise SolverFailure(f"non-finite field values at t={after.t}")
        if not (wmax <= self.bounds.k1 * (1.0 + _BOUND_SLACK)):
            raise SolverFailure(f"u bound breached at t={after.t}: max u={wmax} > k1={self.bounds.k1}")
        if not (zmax <= self.bounds.k2 * (1.0 + _BOUND_SLACK)):
            raise SolverFailure(f"v bound breached at t={after.t}: max v={zmax} > k2={self.bounds.k2}")


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


def auto_dt(s: State, gdot: float, hdot: float, rate_cap: float, prev: Optional[tuple]) -> float:
    """Step size for numerics.dt = auto, from the state: 0.9 of the _dt_cap
    bound at the current advection speed, and at most the dt over which the
    front speeds, changing as over the previous step prev = (gdot, hdot, dt),
    change by _SPEED_CHANGE of the larger speed.  The step checks stability
    on the longer advanced habitat, where the advection speed is no larger."""
    speed = max(abs(gdot), abs(hdot))
    dt = _dt_cap(0.9 * _CFL, 2.0 / (len(s.w) - 1), 2.0 / (s.h - s.g) * speed, rate_cap)
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


def run(
    p: ModelParams, init: InitialData, k: Kernel, ctrl: RunControl, stop_rule: Optional[Callable] = None
) -> Trajectory:
    """Integrate until the horizon or until the stop rule fires.

    An explicit ctrl.dt takes ceil(horizon/dt) steps of that dt; with
    ctrl.dt None, auto_dt chooses each dt from the state and the last step
    ends on the horizon exactly.  record_every counts steps.  stop_rule,
    when given, is called with the record at every record point and ends
    the run when it returns a reason.  Deterministic given inputs; the
    initial sample and the final state are always recorded.
    """
    state = initial_state(init, ctrl.n)
    stepper = _Stepper(p, k, state)
    n_steps = None if ctrl.dt is None else max(1, math.ceil(ctrl.horizon / ctrl.dt))

    rec = _Recorder()
    snapshots: list[Snapshot] = []
    termination = "horizon"

    def snap(s: State) -> None:
        x = 0.5 * (s.g + s.h) + stepper.y * 0.5 * (s.h - s.g)
        snapshots.append(Snapshot(t=s.t, g=s.g, h=s.h, x=x, u=s.w.copy(), v=s.z.copy()))

    gdot, hdot = boundary_velocities(state, p, k)
    rec.add(state, gdot, hdot)
    if ctrl.snapshot_every > 0:
        snap(state)

    istep, last, prev = 0, False, None
    while not last:
        istep += 1
        if n_steps is None:
            dt = min(auto_dt(state, gdot, hdot, stepper.rate_cap, prev), ctrl.horizon - state.t)
            last = dt == ctrl.horizon - state.t
            prev = (gdot, hdot, dt)
        else:
            dt, last = ctrl.dt, istep == n_steps
        state = stepper.step(state, dt, gdot, hdot)
        if last and n_steps is None:
            state.t = ctrl.horizon  # t + (horizon - t) can round off the horizon
        gdot, hdot = boundary_velocities(state, p, k)
        recorded = istep % ctrl.record_every == 0 or last
        if recorded:
            rec.add(state, gdot, hdot)
        if ctrl.snapshot_every > 0 and (istep % ctrl.snapshot_every == 0 or last):
            snap(state)
        if recorded and stop_rule is not None:
            reason = stop_rule(rec)
            if reason:
                termination = f"stop:{reason}"
                break

    return rec.to_trajectory(termination, ctrl.n, snapshots)
