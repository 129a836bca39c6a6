"""Sweep orchestration: families of (alpha, nu) runs against an Euler reference.

A sweep fixes the grid and the vortex case, walks a geometric list of alpha
values with nu = c * alpha**gamma, and measures sup-in-time L2 errors of the
regularized runs against the Euler solution from the same stream function.
For radial cases the Euler reference is the frozen initial state (any radial
vorticity is a steady Euler solution, and the discretization preserves that
exactly); otherwise a numerical Euler run at the same resolution serves as
reference, so errors conflate discretization error and only trends at fixed
grid are meaningful.

Also here: the error-energy audit, which re-evaluates the budget
  1/2 |w(T)|^2 - 1/2 |w(0)|^2 = I1 + I2 + I3 + I4,   w = u - u_euler,
from snapshots with the same discrete operators the solver uses, and the
bound-shape helpers for the convergence theorem
  sup_t |u - u_euler| <= K * (err0 + alpha*grad0 + alpha^(1/3)
                              + nu^(1/2) alpha^(-2/3)).
"""

from __future__ import annotations

import math
import os
import time as _time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np
from scipy.integrate import cumulative_trapezoid

from .boundary_layer import MIN_CELLS, collar_resolved
from .dynamics import (FlowState, ModelParams, RunConfig, Trajectory,
                       _diag_row, energy, run)
from .errors import (ConfigError, DegenerateFitError, DiskflowError,
                     NumericalFailure)
from .fields import (VectorField, advect_vector, curl_perp,
                     grad_transpose_apply, inner_l2, norm_l2, perp_grad,
                     seminorm_hk, vector_laplacian)
from .grid import GridSpec, build_grid, tail_weights
from .initial_data import InitialCase, canonical_psi, make_initial
from .ratefit import RateFit, check_geometric

# discrete vorticity mass of grid data is O(h^2), not zero; every Euler run
# from a stream function needs that much slack in the mode-0 guard
_EULER_MASS_TOL = 1e-3
_TIME_MATCH_TOL = 1e-12


@dataclass(frozen=True)
class SweepSettings:
    """The alpha list and the scaling laws nu(alpha) and delta(alpha)."""

    alphas: tuple[float, ...]
    nu_c: float = 0.0                # nu = nu_c * alpha**nu_gamma
    nu_gamma: float = 2.0
    delta_rule: float = 4.0 / 3.0    # delta = alpha**delta_rule

    def __post_init__(self):
        avals = tuple(float(a) for a in self.alphas)
        object.__setattr__(self, "alphas", avals)
        if not avals:
            raise ConfigError("alphas must be nonempty", key="alphas")
        for a in avals:
            if not 0.0 < a <= 0.5:
                raise ConfigError("alpha=%r outside (0, 0.5]" % (a,),
                                  key="alphas")
        if any(b >= a for a, b in zip(avals, avals[1:])):
            raise ConfigError("alphas must be strictly decreasing",
                              key="alphas")
        check_geometric(avals, "alphas")
        if self.nu_c < 0.0:
            raise ConfigError("nu_c=%r must be nonnegative" % (self.nu_c,),
                              key="nu_c")
        if not self.delta_rule > 0.0:
            raise ConfigError("delta_rule=%r must be positive"
                              % (self.delta_rule,), key="delta_rule")

    def nu_of(self, alpha: float) -> float:
        return self.nu_c * alpha ** self.nu_gamma


@dataclass(frozen=True, kw_only=True)
class SweepConfig(SweepSettings):
    """A sweep's settings plus the grid, case and solver keys of its runs."""

    grid: GridSpec
    t_final: float = 1.0
    case: InitialCase = InitialCase()
    snapshot_dt: float | None = None  # default t_final / 8
    dt: float | None = None           # fixed step override for the runs
    tail_threshold: float = RunConfig.tail_threshold

    def __post_init__(self):
        super().__post_init__()
        for a in self.alphas:
            if not collar_resolved(self.grid, a):
                raise ConfigError(
                    "collar of alpha=%r spans fewer than %d radial cells on "
                    "this grid" % (a, MIN_CELLS), key="alphas")
        if not self.t_final > 0.0:
            raise ConfigError("t_final=%r must be positive" % (self.t_final,),
                              key="t_final")
        self.run_config()   # range-checks the solver keys

    def run_config(self) -> RunConfig:
        """Solver settings of every regularized run in the sweep."""
        snap_dt = self.snapshot_dt if self.snapshot_dt is not None \
            else self.t_final / 8.0
        return RunConfig(snapshot_dt=snap_dt, dt=self.dt,
                         tail_threshold=self.tail_threshold)


@dataclass(frozen=True)
class SweepRecord:
    alpha: float
    nu: float
    delta: float
    sup_err_l2: float
    final_err_l2: float
    err0: float                  # |u0^a - u0|
    alpha_grad_u0: float         # alpha * |grad u0^a|
    apriori_max: tuple           # max_t alpha^k |D^k u|, k = 1, 2, 3
    energy_drift: float
    runtime_s: float
    status: str = "ok"

    def __post_init__(self):
        if self.status != "ok":
            return
        vals = (self.sup_err_l2, self.final_err_l2, self.err0,
                self.alpha_grad_u0, self.energy_drift) + self.apriori_max
        if not all(np.isfinite(v) for v in vals):
            raise DiskflowError("sweep record carries non-finite values")
        if not self.sup_err_l2 >= self.final_err_l2 >= 0.0:
            raise DiskflowError("sup error %r below final error %r"
                                % (self.sup_err_l2, self.final_err_l2))

    @property
    def theorem_scale(self) -> float:
        """alpha^(1/3) + nu^(1/2) alpha^(-2/3), the theorem's rate terms."""
        return (self.alpha ** (1.0 / 3.0)
                + math.sqrt(self.nu) * self.alpha ** (-2.0 / 3.0))


def theorem_rhs(rec: SweepRecord) -> float:
    """Unscaled right-hand side of the convergence bound for one record."""
    return rec.err0 + rec.alpha_grad_u0 + rec.theorem_scale


def fit_theorem_constant(records) -> float:
    """Constant anchored at the coarsest (first) successful record."""
    for rec in records:
        if rec.status == "ok":
            return rec.sup_err_l2 / theorem_rhs(rec)
    raise DegenerateFitError("no successful records to anchor the constant")


def bound_margins(records, constant: float):
    """sup_err / (constant * rhs) per successful record; <= 1 means bounded."""
    return [rec.sup_err_l2 / (constant * theorem_rhs(rec))
            for rec in records if rec.status == "ok"]


def _times(traj: Trajectory) -> np.ndarray:
    return np.array([s.time for s in traj.snapshots], dtype=float)


def _check_pair(traj_a: Trajectory, traj_b: Trajectory) -> np.ndarray:
    ga = traj_a.snapshots[0].u.grid.spec
    gb = traj_b.snapshots[0].u.grid.spec
    if ga != gb:
        raise ConfigError("trajectories live on different grids: %r vs %r"
                          % (ga, gb), key="trajectories")
    ta, tb = _times(traj_a), _times(traj_b)
    scale = max(1.0, float(ta[-1]) if ta.size else 1.0)
    if ta.size != tb.size or np.max(np.abs(ta - tb)) > _TIME_MATCH_TOL * scale:
        raise ConfigError("snapshot time grids do not match", key="trajectories")
    return ta


def sup_error(traj_a: Trajectory, traj_b: Trajectory) -> float:
    """max over shared snapshot times of |u_a(t) - u_b(t)| in L2."""
    _check_pair(traj_a, traj_b)
    return max(_snapshot_errors(traj_a, traj_b))


def _snapshot_errors(traj_a: Trajectory, traj_b: Trajectory):
    g = traj_a.snapshots[0].u.grid
    out = []
    for sa, sb in zip(traj_a.snapshots, traj_b.snapshots):
        d = VectorField(g, sa.u.u_r - sb.u.u_r, sa.u.u_theta - sb.u.u_theta)
        out.append(norm_l2(d))
    return out


def frozen_trajectory(state: FlowState, times) -> Trajectory:
    """A steady reference: the same state stamped at each snapshot time."""
    tvals = np.asarray(times, dtype=float)
    row = _diag_row(state, 0.0, tail_weights(state.u.grid))
    diag = {k: np.full(tvals.shape, v) for k, v in row.items()}
    diag["t"] = tvals.copy()
    return Trajectory(snapshots=[replace(state, time=float(t)) for t in tvals],
                      diagnostics=diag)


def euler_reference_state(psi0) -> FlowState:
    """Euler state assembled directly from the stream function (no solve)."""
    params = ModelParams(kind="euler", alpha=0.0, nu=0.0)
    u = perp_grad(psi0)
    u = VectorField(psi0.grid, u.u_r, u.u_theta, tag="non-penetration")
    w = curl_perp(u)
    return FlowState(time=0.0, q=w, w=w, phi=psi0, u=u, params=params)


def euler_run(psi0, t_final: float, config: RunConfig) -> Trajectory:
    """Plain Euler from the stream function, with the Euler mass slack."""
    return run(ModelParams(kind="euler"), euler_reference_state(psi0).u,
               t_final, replace(config, mass_tol=_EULER_MASS_TOL))


def euler_reference(case: InitialCase, psi0, t_final: float,
                    config: RunConfig):
    """The Euler solution that regularized runs from psi0 are measured by.

    Returns a function from a trajectory to the reference on its snapshot
    times.  Radial cases freeze the initial state (any radial vorticity is
    discretely steady); other cases run Euler once, with config.
    """
    if case.name == "radial_vortex":
        state = euler_reference_state(psi0)
        return lambda traj: frozen_trajectory(state, _times(traj))
    ref = euler_run(psi0, t_final, config)
    return lambda traj: ref


def _energy_drift(traj: Trajectory, nu: float) -> float:
    d = traj.diagnostics
    e = np.asarray(d["energy"], dtype=float)
    if nu > 0.0:
        gusq = np.asarray(d["grad_u_sq"], dtype=float)
        t = np.asarray(d["t"], dtype=float)
        e = e + 2.0 * nu * cumulative_trapezoid(gusq, t, initial=0.0)
    return float(np.max(np.abs(e - e[0])) / max(e[0], 1e-300))


def run_sweep(cfg: SweepConfig, threads: int = 0):
    """One SweepRecord per alpha, in input order; failures marked, not fatal."""
    grid = build_grid(cfg.grid)
    psi0 = canonical_psi(cfg.case, grid)
    u0 = perp_grad(psi0)
    run_cfg = cfg.run_config()
    reference = euler_reference(
        cfg.case, psi0, cfg.t_final,
        RunConfig(snapshot_dt=run_cfg.snapshot_dt))

    def one(alpha: float) -> SweepRecord:
        start = _time.perf_counter()
        nu = cfg.nu_of(alpha)
        delta = alpha ** cfg.delta_rule
        u0a = make_initial(psi0, alpha)
        d0 = VectorField(grid, u0a.u_r - u0.u_r, u0a.u_theta - u0.u_theta)
        err0 = norm_l2(d0)
        agrad0 = alpha * seminorm_hk(u0a, 1)
        params = ModelParams.regularized(alpha, nu)
        nan3 = (math.nan,) * 3
        try:
            traj = run(params, u0a, cfg.t_final, run_cfg)
        except NumericalFailure as exc:
            return SweepRecord(alpha=alpha, nu=nu, delta=delta,
                               sup_err_l2=math.nan, final_err_l2=math.nan,
                               err0=err0, alpha_grad_u0=agrad0,
                               apriori_max=nan3, energy_drift=math.nan,
                               runtime_s=_time.perf_counter() - start,
                               status=exc.kind)
        ref = reference(traj)
        _check_pair(traj, ref)
        errs = _snapshot_errors(traj, ref)
        apriori = tuple(
            max(alpha ** k * seminorm_hk(s.u, k) for s in traj.snapshots)
            for k in (1, 2, 3))
        return SweepRecord(alpha=alpha, nu=nu, delta=delta,
                           sup_err_l2=max(errs), final_err_l2=errs[-1],
                           err0=err0, alpha_grad_u0=agrad0,
                           apriori_max=apriori,
                           energy_drift=_energy_drift(traj, nu),
                           runtime_s=_time.perf_counter() - start)

    if threads == 0:
        threads = min(len(cfg.alphas), os.cpu_count() or 1)
    if threads <= 1 or len(cfg.alphas) == 1:
        return [one(a) for a in cfg.alphas]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(one, cfg.alphas))


_SWEEP_COLUMNS = ("alpha", "nu", "delta", "sup_err_l2", "final_err_l2",
                  "err0", "alpha_grad_u0", "apriori_max_1", "apriori_max_2",
                  "apriori_max_3", "energy_drift", "runtime_s", "status")


def write_sweep_csv(records, path) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(_SWEEP_COLUMNS) + "\n")
        for r in records:
            row = (r.alpha, r.nu, r.delta, r.sup_err_l2, r.final_err_l2,
                   r.err0, r.alpha_grad_u0) + r.apriori_max \
                + (r.energy_drift, r.runtime_s)
            fh.write(",".join("%.17g" % v for v in row))
            fh.write(",%s\n" % r.status)


def rate_entry(quantity: str, fit: RateFit) -> dict:
    return {"quantity": quantity, "slope": fit.slope, "constant": fit.constant,
            "residual": fit.residual, "points": [list(p) for p in fit.points]}


@dataclass(frozen=True)
class EnergyAudit:
    """Terms of the error-energy budget evaluated from snapshots."""

    i1: float          # nu * int <lap u, w>
    i2: float          # -int <(w . grad) u_euler, w>
    i3: float          # alpha^2 * int <d_t lap u, w>
    i4: float          # alpha^2 * int <(u . grad) lap u + (grad u)^T lap u, w>
    lhs: float         # 1/2 |w(T)|^2 - 1/2 |w(0)|^2
    residual: float    # |lhs - (i1 + i2 + i3 + i4)|
    rel_residual: float  # residual / max(|lhs|, E_alpha(0))
    g_shape: float     # (nu + a^2)(a^-2 delta^(1/2) + delta^-1) + a^2
    alpha: float
    nu: float
    delta: float
    n_times: int


def energy_audit(traj_sg: Trajectory, traj_euler: Trajectory,
                 delta: float) -> EnergyAudit:
    """Evaluate the four-term budget of the error energy between two runs."""
    if not 0.0 < delta < 1.0:
        raise ConfigError("delta=%r outside (0, 1)" % (delta,), key="delta")
    t = _check_pair(traj_sg, traj_euler)
    if t.size < 3:
        raise ConfigError("need at least 3 snapshots to estimate the time "
                          "derivative", key="trajectories")
    params = traj_sg.snapshots[0].params
    a, nu = params.alpha, params.nu
    g = traj_sg.snapshots[0].u.grid

    ws, laps = [], []
    f1 = np.empty(t.size)
    f2 = np.empty(t.size)
    f4 = np.empty(t.size)
    for i, (s, sref) in enumerate(zip(traj_sg.snapshots, traj_euler.snapshots)):
        w = VectorField(g, s.u.u_r - sref.u.u_r, s.u.u_theta - sref.u.u_theta)
        lap = vector_laplacian(s.u)
        ws.append(w)
        laps.append(lap)
        f1[i] = inner_l2(lap, w)
        f2[i] = inner_l2(advect_vector(w, sref.u), w)
        f4[i] = inner_l2(advect_vector(s.u, lap), w) \
            + inner_l2(grad_transpose_apply(s.u, lap), w)

    # d_t of the Laplacian snapshots: second order inside and at the ends
    dl_r = np.gradient(np.stack([l.u_r for l in laps]), t, axis=0,
                       edge_order=2)
    dl_t = np.gradient(np.stack([l.u_theta for l in laps]), t, axis=0,
                       edge_order=2)
    f3 = np.array([float(np.sum(g.weights * (dl_r[i] * ws[i].u_r
                                             + dl_t[i] * ws[i].u_theta)))
                   for i in range(t.size)])

    i1 = nu * float(np.trapezoid(f1, t))
    i2 = -float(np.trapezoid(f2, t))
    i3 = a * a * float(np.trapezoid(f3, t))
    i4 = a * a * float(np.trapezoid(f4, t))
    lhs = 0.5 * (norm_l2(ws[-1]) ** 2 - norm_l2(ws[0]) ** 2)
    residual = abs(lhs - (i1 + i2 + i3 + i4))
    e0 = energy(traj_sg.snapshots[0])
    g_shape = ((nu + a * a) * (delta ** 0.5 / (a * a) + 1.0 / delta)
               + a * a)
    return EnergyAudit(i1=i1, i2=i2, i3=i3, i4=i4, lhs=lhs, residual=residual,
                       rel_residual=residual / max(abs(lhs), e0),
                       g_shape=g_shape, alpha=a, nu=nu, delta=delta,
                       n_times=int(t.size))
