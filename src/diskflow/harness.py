"""Sweep orchestration: families of (alpha, nu) runs against an Euler reference.

A sweep fixes the grid and the vortex case, walks a geometric list of alpha
values with nu = c * alpha**gamma, and measures sup-in-time L2 errors of the
regularized runs against the Euler solution from the same stream function.
For radial cases the Euler reference is the frozen initial state (any radial
vorticity is a steady Euler solution, and the discretization preserves that
exactly); otherwise a numerical Euler run at the same resolution serves as
reference, so errors conflate discretization error and only trends at fixed
grid are meaningful.  EulerReference.follow is the one place where a run's
k-th snapshot meets the reference's k-th velocity and where a reference on
another grid or at other snapshot times is rejected; sweeps, the audit
study and the batch audit all pair through it.

Also here: the error-energy audit, which re-evaluates the budget
  1/2 |w(T)|^2 - 1/2 |w(0)|^2 = I1 + I2 + I3 + I4,   w = u - u_euler,
from snapshots with the same discrete operators the solver uses, one
snapshot at a time over a three-snapshot window, and the bound-shape
helpers for the convergence theorem
  sup_t |u - u_euler| <= K * (err0 + alpha*grad0 + alpha^(1/3)
                              + nu^(1/2) alpha^(-2/3)).
"""

from __future__ import annotations

import math
import os
import time as _time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .boundary_layer import MIN_CELLS, check_delta, collar_resolved
from .dynamics import (FlowState, ModelParams, RunConfig, Trajectory,
                       _diag_row, energy, run)
from .elliptic import release_factors
from .errors import (ConfigError, DegenerateFitError, DiskflowError,
                     NumericalFailure)
from .fields import (VectorField, _retag, advect_vector, curl_perp,
                     difference, grad_transpose_apply, inner_l2, norm_l2,
                     perp_grad, seminorm_hk, seminorms_hk, vector_laplacian,
                     weighted_total)
from .grid import GridSpec, build_grid, tail_weights
from .initial_data import (InitialCase, canonical_psi, check_alpha,
                           make_initial)
from .ratefit import RateFit, check_geometric

_TIME_MATCH_TOL = 1e-12


def snapshot_interval(snapshot_dt: float | None, t_final: float) -> float:
    """Snapshot spacing of sweeps and audits: t_final / 8 unless set."""
    return snapshot_dt if snapshot_dt is not None else t_final / 8.0


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
            check_alpha(a, key="alphas")
        if any(b >= a for a, b in zip(avals, avals[1:])):
            raise ConfigError("alphas must be strictly decreasing",
                              key="alphas")
        check_geometric(avals, "alphas")
        if not self.nu_c >= 0.0:
            raise ConfigError("nu_c=%r must be nonnegative" % (self.nu_c,),
                              key="nu_c")
        if not self.delta_rule > 0.0:
            raise ConfigError("delta_rule=%r must be positive"
                              % (self.delta_rule,), key="delta_rule")
        for a in avals:     # each run must get a finite nu and a valid delta
            try:
                nu = self.nu_of(a)
            except OverflowError:
                nu = math.inf
            if not nu < math.inf:
                raise ConfigError(
                    "nu = nu_c * alpha**nu_gamma is %r at alpha=%r" % (nu, a),
                    key="nu_c" if math.isinf(self.nu_c) else "nu_gamma")
            try:
                check_delta(a ** self.delta_rule)
            except ConfigError as exc:
                raise ConfigError("delta_rule=%r at alpha=%r: %s" % (
                    self.delta_rule, a, exc), key="delta_rule") from exc

    def nu_of(self, alpha: float) -> float:
        return self.nu_c * alpha ** self.nu_gamma


@dataclass(frozen=True, kw_only=True)
class SweepConfig(SweepSettings, RunConfig):
    """A sweep's settings plus the grid, case and solver keys of its runs."""

    grid: GridSpec
    t_final: float = 1.0
    case: InitialCase = InitialCase()

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
        RunConfig.__post_init__(self)  # super() stops at SweepSettings


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
    runtime_s: float             # CPU time of the thread that ran it
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
    u = _retag(perp_grad(psi0), "non-penetration")
    w = curl_perp(u)
    return FlowState(time=0.0, q=w, w=w, phi=psi0, u=u, params=params)


def euler_run(psi0, t_final: float, config: RunConfig,
              on_snapshot=None) -> Trajectory:
    """Plain Euler from the stream function's velocity."""
    return run(ModelParams(kind="euler"), euler_reference_state(psi0).u,
               t_final, config, on_snapshot=on_snapshot)


class EulerReference:
    """The Euler velocity each snapshot of a run is measured against.

    Either one frozen velocity, which stands for every snapshot time, or
    the (time, u) pairs of one Euler run, of which the k-th stands for the
    run's k-th snapshot.  Built by euler_reference, or from a held Euler
    trajectory by energy_audit.
    """

    def __init__(self, u_frozen: VectorField | None = None, pairs=None):
        self._u_frozen = u_frozen
        self._pairs = pairs

    def follow(self, measure):
        """(on_snapshot, done) for one run measured by this reference.

        on_snapshot(state) calls measure(state, u_ref) with the reference
        velocity of that snapshot, after checking on the first one that both
        live on one grid; a snapshot past the reference's last is only
        counted.  done() rejects a run whose snapshot times are not the
        reference's.  Both mismatches raise ConfigError(key="trajectories").
        """
        times = []

        def on_snapshot(state: FlowState) -> None:
            k = len(times)
            times.append(state.time)
            if self._pairs is None:
                u_ref = self._u_frozen
            elif k < len(self._pairs):
                u_ref = self._pairs[k][1]
            else:
                return              # done() rejects the run
            if k == 0 and state.u.grid.spec != u_ref.grid.spec:
                raise ConfigError(
                    "trajectories live on different grids: %r vs %r"
                    % (state.u.grid.spec, u_ref.grid.spec),
                    key="trajectories")
            measure(state, u_ref)

        def done() -> None:
            if self._pairs is None:
                return              # a frozen velocity fits every time
            ta = np.array(times, dtype=float)
            tb = np.array([t for t, _ in self._pairs], dtype=float)
            scale = max(1.0, float(ta[-1]) if ta.size else 1.0)
            if ta.size != tb.size or np.max(
                    np.abs(ta - tb), initial=0.0) > _TIME_MATCH_TOL * scale:
                raise ConfigError("snapshot time grids do not match",
                                  key="trajectories")

        return on_snapshot, done


def euler_reference(case: InitialCase, psi0, t_final: float,
                    config: RunConfig) -> EulerReference:
    """The Euler solution that regularized runs from psi0 are measured by.

    Radial cases get the frozen initial velocity, since any radial
    vorticity is discretely steady; other cases one Euler run with config,
    of which only (time, u) per snapshot is kept.
    """
    if case.name == "radial_vortex":
        return EulerReference(u_frozen=euler_reference_state(psi0).u)
    pairs = []
    euler_run(psi0, t_final, config,
              on_snapshot=lambda s: pairs.append((s.time, s.u)))
    return EulerReference(pairs=pairs)


def _energy_drift(traj: Trajectory, nu: float) -> float:
    d = traj.diagnostics
    e = np.asarray(d["energy"], dtype=float)
    if nu > 0.0:
        gusq = np.asarray(d["grad_u_sq"], dtype=float)
        t = np.asarray(d["t"], dtype=float)
        # scipy's cumulative_trapezoid(gusq, t, initial=0.0), same operation
        # order; scipy.integrate would add about 0.3 s to every CLI start
        dissipated = np.concatenate(
            ([0.0], np.cumsum(np.diff(t) * (gusq[1:] + gusq[:-1]) / 2.0)))
        e = e + 2.0 * nu * dissipated
    return float(np.max(np.abs(e - e[0])) / max(e[0], 1e-300))


def run_sweep(cfg: SweepConfig, threads: int = 0):
    """One SweepRecord per alpha, in input order; failures marked, not fatal.

    Each alpha run hands its snapshots, paired by EulerReference.follow,
    to a callback that keeps only the error and the seminorms of each, and
    the grid's factors are dropped as soon as no later run needs them: the
    Poisson factor after the Euler reference, each stream factor after its
    alpha's run.  Snapshots default to t_final / 8.
    """
    grid = build_grid(cfg.grid)
    psi0 = canonical_psi(cfg.case, grid)
    u0 = perp_grad(psi0)
    run_cfg = replace(cfg, snapshot_dt=snapshot_interval(cfg.snapshot_dt,
                                                         cfg.t_final))
    reference = euler_reference(cfg.case, psi0, cfg.t_final, run_cfg)
    release_factors(grid, "poisson")

    def one(alpha: float) -> SweepRecord:
        # CPU time of this run's thread: unlike wall time it does not grow
        # while other workers hold the cores
        start = _time.thread_time()
        nu = cfg.nu_of(alpha)
        delta = alpha ** cfg.delta_rule
        u0a = make_initial(psi0, alpha)
        err0 = norm_l2(difference(u0a, u0))
        agrad0 = alpha * seminorm_hk(u0a, 1)
        params = ModelParams.regularized(alpha, nu)
        errs, norms = [], []

        def measure(state: FlowState, u_ref: VectorField) -> None:
            errs.append(norm_l2(difference(state.u, u_ref)))
            norms.append(seminorms_hk(state.u, 3))

        on_snapshot, done = reference.follow(measure)

        def failed(kind: str) -> SweepRecord:
            return SweepRecord(alpha=alpha, nu=nu, delta=delta,
                               sup_err_l2=math.nan, final_err_l2=math.nan,
                               err0=err0, alpha_grad_u0=agrad0,
                               apriori_max=(math.nan,) * 3,
                               energy_drift=math.nan,
                               runtime_s=_time.thread_time() - start,
                               status=kind)

        try:
            traj = run(params, u0a, cfg.t_final, run_cfg,
                       on_snapshot=on_snapshot)
        except NumericalFailure as exc:
            return failed(exc.kind)
        finally:
            release_factors(grid, "stream", alpha)
        done()
        apriori = tuple(max(alpha ** k * n[k - 1] for n in norms)
                        for k in (1, 2, 3))
        return SweepRecord(alpha=alpha, nu=nu, delta=delta,
                           sup_err_l2=max(errs), final_err_l2=errs[-1],
                           err0=err0, alpha_grad_u0=agrad0,
                           apriori_max=apriori,
                           energy_drift=_energy_drift(traj, nu),
                           runtime_s=_time.thread_time() - start)

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


def _rate_dot(coef, h, l0r, l0t, l1r, l1t, l2r, l2t, w_r, w_t):
    """dl/dt . w node by node, dl/dt from three snapshots l0, l1, l2 by the
    weights coef, or by (l2 - l0) / (2 h) where coef is None."""
    if coef is None:
        dl_r = (l2r - l0r) / (2. * h)
        dl_t = (l2t - l0t) / (2. * h)
    else:
        a, b, c = coef
        dl_r = a * l0r + b * l1r + c * l2r
        dl_t = a * l0t + b * l1t + c * l2t
    return dl_r * w_r + dl_t * w_t


class EnergyBudget:
    """The error-energy budget of one run, fed one snapshot at a time.

    add() takes each snapshot of the regularized run with the Euler
    velocity it is measured against, as EulerReference.follow pairs them;
    finish() returns the EnergyAudit.  Only the Laplacian and w of the last
    three snapshots are held, because d_t of the Laplacian is np.gradient's
    three-point stencil with edge_order=2.  Each slice of it is evaluated
    with numpy's own coefficients and operation order, so every term equals
    the batch formula bit for bit.  numpy takes its uniform-spacing formulas
    iff every time step equals the first, so f3 is kept under both rules
    until one step differs from the first, and under the general rule alone
    from then on.
    """

    def __init__(self, delta: float):
        check_delta(delta)
        self.delta = delta
        self._snap_times = []
        self._f1, self._f2, self._f4 = [], [], []
        # f3 under each rule still in play, keyed by "times are uniform"
        self._f3 = {True: [], False: []}
        self._window = deque(maxlen=3)       # (lap, w) of the last snapshots

    def add(self, state: FlowState, u_ref: VectorField) -> None:
        u = state.u
        w = difference(u, u_ref)
        if not self._snap_times:
            self._params, self._grid = state.params, u.grid
            self._e0 = energy(state)
            self._w0_norm = norm_l2(w)
        lap = vector_laplacian(u)
        self._f1.append(inner_l2(lap, w))
        self._f2.append(inner_l2(advect_vector(w, u_ref), w))
        self._f4.append(inner_l2(advect_vector(u, lap), w)
                        + inner_l2(grad_transpose_apply(u, lap), w))
        t = self._snap_times
        t.append(state.time)
        if True in self._f3 and len(t) > 2 and t[-1] - t[-2] != t[1] - t[0]:
            del self._f3[True]
        self._window.append((lap, w))
        if len(self._snap_times) == 3:
            self._keep_slope(0)
        if len(self._snap_times) >= 3:
            self._keep_slope(1)

    def _keep_slope(self, k: int) -> None:
        for key, value in self._slope(k).items():
            self._f3[key].append(value)

    def _slope(self, k: int) -> dict:
        """f3 of window slice k (0 first, 1 interior, 2 last) under each
        rule still in play, keyed as self._f3 is."""
        (l0, _), (l1, _), (l2, _) = self._window
        t0, t1, t2 = self._snap_times[-3:]
        dx1, dx2 = t1 - t0, t2 - t1
        h = self._snap_times[1] - self._snap_times[0]  # numpy's uniform step
        if k == 0:
            uniform = (-1.5 / h, 2. / h, -0.5 / h)
            general = (-(2. * dx1 + dx2) / (dx1 * (dx1 + dx2)),
                       (dx1 + dx2) / (dx1 * dx2),
                       - dx1 / (dx2 * (dx1 + dx2)))
        elif k == 1:
            uniform = None                    # (f[i+1] - f[i-1]) / (2 h)
            general = (-(dx2) / (dx1 * (dx1 + dx2)),
                       (dx2 - dx1) / (dx1 * dx2),
                       dx1 / (dx2 * (dx1 + dx2)))
        else:
            uniform = (0.5 / h, -2. / h, 1.5 / h)
            general = (dx2 / (dx1 * (dx1 + dx2)),
                       - (dx2 + dx1) / (dx1 * dx2),
                       (2. * dx2 + dx1) / (dx2 * (dx1 + dx2)))
        w = self._window[k][1]
        return {key: weighted_total(
                    self._grid.weights,
                    partial(_rate_dot, uniform if key else general, h),
                    l0, l1, l2, w)
                for key in self._f3}

    def finish(self) -> EnergyAudit:
        """The audit of the snapshots added so far; the budget is left as
        it was, so more snapshots may follow."""
        t = np.array(self._snap_times, dtype=float)
        if t.size < 3:
            raise ConfigError("need at least 3 snapshots to estimate the time "
                              "derivative", key="trajectories")
        uniform = True in self._f3
        f3 = np.array(self._f3[uniform] + [self._slope(2)[uniform]])
        a, nu, delta = self._params.alpha, self._params.nu, self.delta
        i1 = nu * float(np.trapezoid(np.array(self._f1), t))
        i2 = -float(np.trapezoid(np.array(self._f2), t))
        i3 = a * a * float(np.trapezoid(f3, t))
        i4 = a * a * float(np.trapezoid(np.array(self._f4), t))
        lhs = 0.5 * (norm_l2(self._window[-1][1]) ** 2 - self._w0_norm ** 2)
        residual = abs(lhs - (i1 + i2 + i3 + i4))
        g_shape = ((nu + a * a) * (delta ** 0.5 / (a * a) + 1.0 / delta)
                   + a * a)
        return EnergyAudit(i1=i1, i2=i2, i3=i3, i4=i4, lhs=lhs,
                           residual=residual,
                           rel_residual=residual / max(abs(lhs), self._e0),
                           g_shape=g_shape, alpha=a, nu=nu, delta=delta,
                           n_times=int(t.size))


def energy_audit(traj_sg: Trajectory, traj_euler: Trajectory,
                 delta: float) -> EnergyAudit:
    """Evaluate the four-term budget of the error energy between two runs.

    The trajectories must share their grid and snapshot times, with at
    least 3 snapshots; EulerReference.follow pairs them and EnergyBudget
    does the sums.
    """
    budget = EnergyBudget(delta)
    reference = EulerReference(
        pairs=[(s.time, s.u) for s in traj_euler.snapshots])
    on_snapshot, done = reference.follow(budget.add)
    for s in traj_sg.snapshots:
        on_snapshot(s)
    done()
    return budget.finish()
