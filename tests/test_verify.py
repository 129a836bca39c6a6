"""The pinned verification studies behind the verify-* subcommands."""

import json
import tracemalloc
from dataclasses import asdict

import diskflow.verify as vf
from diskflow.dynamics import RunConfig
from diskflow.verify import (energy_audit_study, verify_corrector,
                             verify_elliptic, verify_initial_data)
from diskflow.grid import GridSpec
from diskflow.initial_data import InitialCase


def test_elliptic_verification_passes_and_serializes():
    rep = verify_elliptic()
    assert rep.passed and rep.order_ok and rep.chain_ok and rep.probe_ok
    assert abs(-rep.order_fit.slope - 2.0) <= 0.2
    assert all(rel <= 1e-9 for _, rel in rep.chain_rels)
    assert rep.probe_slope >= -2.1
    json.dumps(asdict(rep))


def test_elliptic_order_check_reads_its_pinned_window(monkeypatch):
    # no |order - 2| is <= -1; the study reads the window when called
    monkeypatch.setattr(vf, "ORDER_WINDOW", -1.0)
    rep = verify_elliptic()
    assert not rep.order_ok and not rep.passed
    assert rep.chain_ok  # other checks unaffected


def test_corrector_verification_passes(monkeypatch):
    rep = verify_corrector()
    assert rep.passed
    assert abs(rep.report.l2_fit.slope - 0.5) <= 0.05
    assert abs(rep.report.h1_fit.slope + 0.5) <= 0.05
    json.dumps(asdict(rep))
    monkeypatch.setattr(vf, "CORRECTOR_WINDOW", -1.0)
    assert not verify_corrector().passed


def test_initial_data_verification_passes():
    rep = verify_initial_data()
    assert rep.passed and rep.e0_ok and rep.d1_ok and rep.products_ok
    assert all(r.resolved for r in rep.report.rows)
    json.dumps(asdict(rep))


def test_audit_study_with_numerical_euler_reference():
    # non-radial case: the reference is an actual Euler run, snapshot times
    # must line up exactly for the budget to be evaluated at all
    audit = energy_audit_study(InitialCase(name="perturbed_vortex"),
                               GridSpec(65, 32, 8.0), alpha=0.3, nu=0.0,
                               t_final=0.05,
                               run_config=RunConfig(snapshot_dt=0.01))
    assert audit.n_times == 6
    assert audit.nu == 0.0 and audit.i1 == 0.0
    assert audit.i2 != 0.0  # genuine advective transfer between the runs


def test_audit_study_holds_a_window_not_the_trajectory():
    # 41 snapshots stream through a three-snapshot window; holding the
    # trajectory, with a w and a vector Laplacian per snapshot, peaked at
    # over 100 snapshots' worth of arrays on this grid
    spec = GridSpec(129, 32, 8.0)
    snapshot_bytes = 5 * spec.n_r * spec.n_theta * 8   # q, w, phi, u
    assert not tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        audit = energy_audit_study(InitialCase(), spec, alpha=0.2, nu=1e-4,
                                   t_final=0.4,
                                   run_config=RunConfig(snapshot_dt=0.01))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert audit.n_times == 41
    assert peak < 12 * snapshot_bytes


def test_audit_study_frees_the_poisson_factor_before_the_regularized_run(
        monkeypatch):
    # the numerical Euler reference factors the Poisson problem; the
    # regularized run only solves its stream pair, as in run_sweep
    real_reference, real_run, held = vf.euler_reference, vf.run, {}

    def reference(case, psi, t_final, config):
        ref = real_reference(case, psi, t_final, config)
        held["reference"] = set(psi.grid.solver_cache)
        return ref

    def run(params, u0, t_final, config, on_snapshot):
        def first(state):
            held.setdefault("first snapshot", set(u0.grid.solver_cache))
            on_snapshot(state)
        return real_run(params, u0, t_final, config, on_snapshot=first)

    monkeypatch.setattr(vf, "euler_reference", reference)
    monkeypatch.setattr(vf, "run", run)
    energy_audit_study(InitialCase(name="perturbed_vortex"),
                       GridSpec(65, 32, 8.0), alpha=0.3, nu=0.0, t_final=0.05,
                       run_config=RunConfig(snapshot_dt=0.01))
    assert ("poisson", None) in held["reference"]
    assert not any(kind == "poisson" for kind, _ in held["first snapshot"])
