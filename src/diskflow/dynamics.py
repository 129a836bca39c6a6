"""Time evolution of the filtered vorticity q = w - alpha^2 Delta w.

The prognostic equation is dq/dt + u . grad q = nu Delta w, stepped with
classical four-stage Runge-Kutta.  Stages k2-k4 and the update recover the
velocity from q through the elliptic module; stage k1 uses the fields the
incoming state already holds, so a step costs four inversions, not five.
A stage forms only what its tendency reads: w = Delta phi only when nu > 0
(the update forms it always, since a full state carries it).  A failed
elliptic solve inside a step fails the run with kind 'solve'.
Diffusion is explicit: the regimes of interest have nu far below
alpha^{4/3}, and the diffusive dt bound guards the rest.
The inviscid filtered model sets nu = 0; the plain vorticity equation
(kind 'euler') identifies q with w and uses the Poisson solve instead, whose
mode-0 guard admits the fixed slack EULER_MASS_TOL.  RunConfig holds the
five solver keys of a run; the sweep and document configs extend it.

A run aborts, rather than silently polluting the far boundary condition,
when vorticity mass reaches the outer 10 percent of the annulus.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .errors import (ConfigError, EllipticSolveError, NonFiniteFieldError,
                     NumericalFailure)
from .fields import (ScalarField, VectorField, _retag, advect, grad_norm_l2,
                     laplacian, lincomb, norm_l2, perp_grad, transit_time,
                     weighted_total)
from .elliptic import recover_q, solve_poisson, solve_stream_helmholtz
from .grid import tail_weights

KINDS = ("second_grade", "euler_alpha", "euler")
MIN_DT = 1e-10                 # a smaller admissible step fails the run
# a run is at a scheduled time once within END_EPS * max(1, t_final) of it
END_EPS = 1e-9
CIRCULATION_TOL = 1e-8         # outer-ring witness, relative
# discrete vorticity mass of grid data is O(h^2), not zero; every Euler run
# from a stream function needs that much slack in the mode-0 guard
EULER_MASS_TOL = 1e-3


@dataclass(frozen=True)
class ModelParams:
    """Model selector with its two physical parameters."""

    kind: str
    alpha: float = 0.0
    nu: float = 0.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError("kind=%r not one of %r" % (self.kind, KINDS),
                              key="kind")
        if self.kind == "second_grade" and not (self.alpha > 0.0 and self.nu > 0.0):
            raise ConfigError("second_grade requires alpha > 0 and nu > 0",
                              key="kind")
        if self.kind == "euler_alpha" and not (self.alpha > 0.0 and self.nu == 0.0):
            raise ConfigError("euler_alpha requires alpha > 0 and nu = 0",
                              key="kind")
        if self.kind == "euler" and not (self.alpha == 0.0 and self.nu == 0.0):
            raise ConfigError("euler requires alpha = 0 and nu = 0", key="kind")

    @classmethod
    def regularized(cls, alpha: float, nu: float) -> ModelParams:
        """The filtered model at (alpha, nu): second_grade iff nu > 0."""
        kind = "second_grade" if nu > 0.0 else "euler_alpha"
        return cls(kind=kind, alpha=alpha, nu=nu)

    @property
    def boundary_tag(self) -> str:
        return "non-penetration" if self.kind == "euler" else "no-slip"


@dataclass(frozen=True)
class FlowState:
    """One time slice; all fields derived consistently from q.

    w is None only in the RK stage states of a filtered model with nu = 0,
    which step keeps to itself.
    """

    time: float
    q: ScalarField
    w: ScalarField
    phi: ScalarField
    u: VectorField
    params: ModelParams


@dataclass(frozen=True, kw_only=True)
class RunConfig:
    """The solver keys of a run, with their range checks.

    Sweep and document configs extend it, so run takes them as they are.
    """

    cfl: float = 0.5
    dt: float | None = None          # fixed step; None = adaptive
    dt_max: float = 0.05
    snapshot_dt: float | None = None
    tail_threshold: float = 1e-8     # relative to the initial |q|

    def __post_init__(self):
        if not 0.0 < self.cfl <= 1.0:
            raise ConfigError("cfl=%r outside (0, 1]" % (self.cfl,), key="cfl")
        for name in ("dt", "dt_max", "snapshot_dt", "tail_threshold"):
            v = getattr(self, name)
            if v is not None and not v > 0.0:
                raise ConfigError("%s=%r must be positive" % (name, v),
                                  key=name)


@dataclass
class Trajectory:
    """Strided snapshots plus per-step diagnostics arrays.

    snapshots is empty when run handed them to an on_snapshot callback.
    """

    snapshots: list
    diagnostics: dict


_DIAG_KEYS = ("t", "dt", "energy", "enstrophy", "tail_mass",
              "norm_u_sq", "grad_u_sq")


def make_state(params: ModelParams, q: ScalarField, time: float,
               with_w: bool = True) -> FlowState:
    """Derive (phi, w, u) from q; a filtered model forms w iff with_w."""
    if params.kind == "euler":
        w = q
        phi = solve_poisson(w, mass_tol=EULER_MASS_TOL)
        u = _retag(perp_grad(phi), "non-penetration")
    else:
        phi, w, u = solve_stream_helmholtz(q, params.alpha, with_w=with_w)
    return FlowState(time=time, q=q, w=w, phi=phi, u=u, params=params)


def initial_state(params: ModelParams, u0: VectorField) -> FlowState:
    """State at t=0 from a velocity field satisfying the boundary tag."""
    _retag(u0, params.boundary_tag)
    q0 = recover_q(u0, params.alpha)
    return make_state(params, q0, 0.0)


def rhs(state: FlowState) -> ScalarField:
    """-u . grad q + nu Delta w (q and w coincide for plain vorticity)."""
    terms = [(-1.0, advect(state.u, state.q))]
    if state.params.nu > 0.0:
        terms.append((state.params.nu, laplacian(state.w)))
    return lincomb(terms)


@contextmanager
def _fails_as(time: float, detail: str, where: str):
    """Fail the run for a non-finite field (kind 'nan') or a failed elliptic
    solve (kind 'solve') raised inside the block, at time with detail."""
    try:
        yield
    except NonFiniteFieldError as exc:   # overflow inside the block
        raise NumericalFailure("non-finite field %s: %s" % (where, exc),
                               kind="nan", time=time, detail=detail) from exc
    except EllipticSolveError as exc:
        raise NumericalFailure("elliptic solve failed %s: %s" % (where, exc),
                               kind="solve", time=time, detail=detail) from exc


def _stage(params: ModelParams, q: ScalarField, h: float, k: ScalarField,
           time: float, stage: str) -> ScalarField:
    """Tendency at the stage state q + h * k, formed as k * h with q added
    in place; its state has w only where rhs reads it."""
    with _fails_as(time, stage, "at stage " + stage):
        q_stage = lincomb([(h, k)], base=q)
        return rhs(make_state(params, q_stage, time, with_w=params.nu > 0.0))


def step(state: FlowState, dt: float,
         end_time: float | None = None) -> FlowState:
    """Classical RK4 update of q; returns a consistent new state.

    The state must come from initial_state, make_state or step: stage k1
    takes its (phi, w, u) as they are instead of recovering them from q
    again.  end_time, when given, stamps the new state in place of t + dt.
    A non-finite field or a failed elliptic solve fails the step with the
    stage it hit (k1-k4, or 'update' at time t).
    """
    params = state.params
    q = state.q
    t = state.time
    th = t + 0.5 * dt
    with _fails_as(t, "k1", "at stage k1"):
        k1 = rhs(state)
    k2 = _stage(params, q, 0.5 * dt, k1, th, "k2")
    k3 = _stage(params, q, 0.5 * dt, k2, th, "k3")
    k4 = _stage(params, q, dt, k3, t + dt, "k4")
    with _fails_as(t, "update", "after step"):
        # q + (dt / 6) (k1 + 2 k2 + 2 k3 + k4), summed in that order in place
        q_new = lincomb([(2.0, k2), (1.0, k1), (2.0, k3), (1.0, k4)],
                        scale=dt / 6.0, base=q)
        return make_state(params, q_new, t + dt if end_time is None
                          else end_time)


def cfl_dt(state: FlowState, cfl: float,
           dt_max: float = RunConfig.dt_max) -> float:
    """Advective bound over both directions, capped by diffusion and dt_max."""
    if not 0.0 < cfl <= 1.0:
        raise ConfigError("cfl=%r outside (0, 1]" % (cfl,), key="cfl")
    g = state.q.grid
    bound = cfl * transit_time(state.u)
    nu = state.params.nu
    if nu > 0.0:
        h_min = min(g.ds, g.dtheta)  # physical spacing is smallest on the ring
        bound = min(bound, h_min * h_min / (4.0 * nu))
    return min(bound, dt_max)


def energy(state: FlowState) -> float:
    """E_alpha = |u|^2 + alpha^2 |grad u|^2 (squared norms)."""
    a = state.params.alpha
    e = norm_l2(state.u) ** 2
    if a > 0.0:
        e += a * a * grad_norm_l2(state.u) ** 2
    return e


def outer_circulation(u: VectorField) -> float:
    """Line integral of u_theta around the outermost ring."""
    g = u.grid
    return float(g.spec.r_max * g.dtheta * np.sum(u.u_theta[-1]))


def _diag_row(state: FlowState, dt: float, tail_w: np.ndarray) -> dict:
    nusq = norm_l2(state.u) ** 2
    gusq = grad_norm_l2(state.u) ** 2
    a = state.params.alpha
    return {
        "t": state.time,
        "dt": dt,
        "energy": nusq + a * a * gusq,
        "enstrophy": norm_l2(state.w) ** 2,
        "tail_mass": float(np.sqrt(weighted_total(tail_w, np.square,
                                                   state.q))),
        "norm_u_sq": nusq,
        "grad_u_sq": gusq,
    }


def snapshot_times(t_final: float, snapshot_dt: float | None) -> tuple:
    """The times at which run keeps a snapshot: 0.0, each k * snapshot_dt
    (k = 1, 2, ...) more than END_EPS max(1, t_final) before t_final, and
    t_final."""
    eps = END_EPS * max(1.0, t_final)
    times, k = [0.0], 1
    while snapshot_dt is not None and k * snapshot_dt < t_final - eps:
        times.append(k * snapshot_dt)
        k += 1
    return tuple(times) + (t_final,)


def run(params: ModelParams, u0: VectorField, t_final: float,
        config: RunConfig = RunConfig(), on_snapshot=None,
        diagnostics_path: str | None = None) -> Trajectory:
    """Integrate to t_final with snapshots and per-step diagnostics.

    config is a RunConfig or any config that extends it; only its five
    solver keys are read.  run steps to each of the snapshot_times in turn
    and keeps a snapshot there: a step that would reach within END_EPS
    max(1, t_final) of the next one is cut to end on it.  When on_snapshot
    is given, it is called with each snapshot as it is taken and the
    returned snapshots list stays empty, so a caller can write or reduce
    snapshots without holding them; those taken before a failure have then
    been handed over.  diagnostics_path, when given, receives one CSV row
    per step as it is taken, so a failed run keeps every row up to the
    failure.
    """
    if not t_final > 0.0:
        raise ConfigError("t_final=%r must be positive" % (t_final,),
                          key="t_final")
    g = u0.grid
    # on u0 / max|u0|, so that no square overflows or underflows; an
    # all-zero field circulates nowhere
    umax = max(float(np.max(np.abs(c))) for c in (u0.u_r, u0.u_theta))
    if umax > 0.0:
        circ = abs(outer_circulation(u0)) / umax
        scale = float(np.sqrt(weighted_total(
            g.weights, lambda a, b: np.square(a / umax) + np.square(b / umax),
            u0)))
        if circ > CIRCULATION_TOL * scale:
            raise ConfigError(
                "outer-ring circulation of the initial velocity is %.3e of "
                "its L2 norm; vorticity support must stay inside the annulus"
                % (circ / scale), key="u0")
    with _fails_as(0.0, "initial", "in the initial state"):
        state = initial_state(params, u0)

    tail_w = tail_weights(g)
    q0_norm = max(norm_l2(state.q), 1e-30)
    tail_abs = config.tail_threshold * q0_norm
    eps = END_EPS * max(1.0, t_final)

    diags = {k: [] for k in _DIAG_KEYS}
    stream = None
    if diagnostics_path is not None:
        stream = open(diagnostics_path, "w")
        stream.write(",".join(_DIAG_KEYS) + "\n")

    def record(row):
        for k in _DIAG_KEYS:
            diags[k].append(row[k])
        if stream is not None:
            stream.write(",".join("%.17g" % row[k] for k in _DIAG_KEYS)
                         + "\n")

    try:
        record(_diag_row(state, 0.0, tail_w))
        snapshots = []
        keep = snapshots.append if on_snapshot is None else on_snapshot
        keep(state)
        for target in snapshot_times(t_final, config.snapshot_dt)[1:]:
            while state.time < target:
                dt = config.dt if config.dt is not None \
                    else cfl_dt(state, config.cfl, config.dt_max)
                if dt < MIN_DT:
                    raise NumericalFailure(
                        "admissible dt %.3e collapsed below %.0e"
                        % (dt, MIN_DT), kind="cfl", time=state.time,
                        detail=dt)
                end = None
                if state.time + dt >= target - eps:
                    dt, end = target - state.time, target
                state = step(state, dt, end_time=end)
                row = _diag_row(state, dt, tail_w)
                record(row)
                if row["tail_mass"] > tail_abs:
                    raise NumericalFailure(
                        "vorticity tail mass %.3e beyond 0.9 r_max exceeds "
                        "%.3e" % (row["tail_mass"], tail_abs),
                        kind="tail_mass", time=state.time,
                        detail=row["tail_mass"])
            keep(state)
    finally:
        if stream is not None:
            stream.close()

    return Trajectory(snapshots=snapshots,
                      diagnostics={k: np.asarray(v) for k, v in diags.items()})
