"""Config schema, exit codes, and file emission of the command line."""

import json
import math
import os
import re
import subprocess
import sys
import threading

import numpy as np
import pytest

import diskflow
import diskflow.verify as vf
from diskflow.cli import (RunConfig, SweepSettings, _sweep_config,
                          config_document, main, parse_config,
                          serialize_config)
from diskflow.errors import ConfigError, EllipticSolveError
from diskflow.fields import (ScalarField, VectorField, read_snapshot,
                             write_snapshot)
from diskflow.grid import GridSpec, build_grid
from diskflow.harness import euler_run
from diskflow.initial_data import canonical_psi

MINIMAL = ('{"model": "euler_alpha", "alpha": 0.2, '
           '"grid": {"n_r": 64}, "t_final": 0.1}')

FULL = """
{
  "model": "second_grade", "alpha": 0.2, "nu": 0.04,
  "grid": {"n_r": 129, "n_theta": 16, "r_max": 10.0},
  "t_final": 0.25, "cfl": 0.4, "dt": 0.02, "dt_max": 0.1,
  "snapshot_dt": 0.05, "tail_threshold": 1e-5, "output_dir": "out",
  "case": {"name": "radial_vortex", "amplitude": 0.4, "r0": 1.0,
           "sigma": 1.5, "boundary_profile": "linear"},
  "sweep": {"alphas": [0.4, 0.2, 0.1], "nu_c": 1.0, "nu_gamma": 2.0},
  "audit": {"delta": 0.1}
}
"""


def write_config(tmp_path, text, name="cfg.json"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# ---------------------------------------------------------------- parsing

def test_minimal_document_fills_documented_defaults():
    cfg = parse_config(MINIMAL)
    assert cfg.model == "euler_alpha"
    assert cfg.alpha == 0.2 and cfg.nu == 0.0
    assert cfg.cfl == 0.5
    assert (cfg.grid.n_theta, cfg.grid.r_max) == (128, 8.0)
    assert cfg.case.name == "radial_vortex"
    assert cfg.dt is None and cfg.snapshot_dt is None
    assert cfg.sweep is None and cfg.audit_delta is None


def test_full_document_parses():
    cfg = parse_config(FULL)
    assert cfg.sweep == SweepSettings(alphas=(0.4, 0.2, 0.1), nu_c=1.0,
                                      nu_gamma=2.0)
    assert cfg.audit_delta == 0.1
    assert cfg.case.sigma == 1.5
    assert cfg.output_dir == "out"


@pytest.mark.parametrize("mutate, key", [
    ('"alpha": 0.2', None),                                # control row
    ('"alpha": -1', "alpha"),
    ('"alpha": 0.7', "alpha"),
    ('"alpha": true', "alpha"),
    ('"alpha": "x"', "alpha"),
])
def test_alpha_validation_names_the_key(mutate, key):
    text = MINIMAL.replace('"alpha": 0.2', mutate)
    if key is None:
        parse_config(text)
        return
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert err.value.key == key


def test_euler_takes_its_own_alpha_zero():
    cfg = parse_config('{"model": "euler", "alpha": 0.0, '
                       '"grid": {"n_r": 64}, "t_final": 0.1}')
    assert (cfg.model, cfg.alpha) == ("euler", 0.0)


@pytest.mark.parametrize("model, alpha, nu", [
    ("euler", -0.1, 0.0),
    ("euler", 0.7, 0.0),
    ("euler_alpha", 0.0, 0.0),
    ("second_grade", 0.0, 1e-4),
])
def test_alpha_outside_the_model_range_is_rejected(model, alpha, nu):
    doc = {"model": model, "alpha": alpha, "nu": nu,
           "grid": {"n_r": 64}, "t_final": 0.1}
    with pytest.raises(ConfigError) as err:
        parse_config(json.dumps(doc))
    assert err.value.key == "alpha"


@pytest.mark.parametrize("text, key", [
    ('{"model": "x", "alpha": 0.2, "grid": {"n_r": 64}, "t_final": 1}',
     "model"),
    ('{"model": "euler_alpha", "alpha": 0.2, "grid": {"n_r": 4}, '
     '"t_final": 1}', "grid.n_r"),
    ('{"model": "euler_alpha", "alpha": 0.2, "grid": {"n_r": 64.5}, '
     '"t_final": 1}', "grid.n_r"),
    ('{"model": "euler_alpha", "alpha": 0.2, "grid": {"n_r": 1%s}, '
     '"t_final": 1}' % ("0" * 21), "grid.n_r"),
    ('{"model": "euler_alpha", "alpha": 0.2, "grid": {"n_r": 64}, '
     '"t_final": 0}', "t_final"),
    ('{"model": "euler_alpha", "alpha": 0.2, "grid": {"n_r": 64}, '
     '"t_final": 1, "cfl": 1.5}', "cfl"),
    ('{"model": "euler_alpha", "alpha": 0.2, "grid": {"n_r": 64}, '
     '"t_final": 1, "nu": 0.1}', "nu"),
    ('{"model": "second_grade", "alpha": 0.2, "grid": {"n_r": 64}, '
     '"t_final": 1}', "nu"),
    ('{"model": "euler_alpha", "alpha": 0.2, "grid": {"n_r": 64}, '
     '"t_final": 1, "case": {"sigma": -1}}', "case.sigma"),
    ('{"model": "euler_alpha", "alpha": 0.2, "grid": {"n_r": 64}, '
     '"t_final": 1, "sweep": {"alphas": []}}', "sweep.alphas"),
    ('{"model": "euler_alpha", "alpha": 0.2, "grid": {"n_r": 64}, '
     '"t_final": 1, "sweep": {"alphas": [0.2, 0.4]}}', "sweep.alphas"),
    ('{"model": "euler_alpha", "alpha": 0.2, "grid": {"n_r": 64}, '
     '"t_final": 1, "audit": {"delta": 0}}', "audit.delta"),
    ('{"model": "euler_alpha", "alpha": 0.2, "grid": {"n_r": 64}, '
     '"t_final": 1, "audit": {"delta": 1.5}}', "audit.delta"),
    ('{"model": "euler_alpha", "alpha": 0.2, "grid": {"n_r": 64}, '
     '"t_final": 1, "tolerances": {"audit_rel": 0}}', "tolerances"),
    ('{"model": "euler_alpha", "alpha": 1%s, "grid": {"n_r": 64}, '
     '"t_final": 1}' % ("0" * 400), "alpha"),
    ('{"model": "euler_alpha", "alpha": 0.2, "grid": {"n_r": 64}, '
     '"t_final": 1%s}' % ("0" * 400), "t_final"),
])
def test_range_and_schema_errors_carry_key_paths(text, key):
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert err.value.key == key


def test_missing_required_key_is_named():
    with pytest.raises(ConfigError) as err:
        parse_config('{"model": "euler_alpha", "alpha": 0.2, '
                     '"grid": {"n_r": 64}}')
    assert err.value.key == "t_final"


@pytest.mark.parametrize("text, key", [
    (MINIMAL[:-1] + ', "alpha_": 1}', "alpha_"),
    (MINIMAL.replace('{"n_r": 64}', '{"n_r": 64, "n_rr": 1}'), "grid.n_rr"),
    (MINIMAL[:-1] + ', "sweep": {"alphas": [0.4, 0.2], "x": 1}}',
     "sweep.x"),
])
def test_unknown_keys_are_rejected(text, key):
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert err.value.key == key


def test_malformed_json_is_a_config_error():
    with pytest.raises(ConfigError):
        parse_config("{not json")
    with pytest.raises(ConfigError):
        parse_config("[1, 2]")


def test_sweep_alphas_checked_against_the_grid_at_parse_time():
    # ds = ln(8)/63: alpha = 0.05 spans int(log1p(.05)/ds) = 1 cell
    text = MINIMAL[:-1] + ', "sweep": {"alphas": [0.2, 0.1, 0.05]}}'
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert err.value.key == "sweep.alphas"


def test_sweep_runs_take_the_solver_keys():
    text = MINIMAL[:-1] + (', "cfl": 0.1, "dt_max": 0.001, '
                           '"tail_threshold": 1e-5, '
                           '"sweep": {"alphas": [0.4, 0.2]}}')
    cfg = parse_config(text)
    solver = _sweep_config(cfg)
    assert (solver.cfl, solver.dt_max, solver.tail_threshold) == \
        (0.1, 0.001, 1e-5)


def test_round_trip_minimal_and_full():
    for text in (MINIMAL, FULL):
        cfg = parse_config(text)
        again = parse_config(serialize_config(cfg))
        assert again == cfg
    doc = config_document(parse_config(FULL))
    assert doc["sweep"]["alphas"] == [0.4, 0.2, 0.1]


def test_document_keys_are_the_schema_keys():
    # the solver keys of dynamics.RunConfig are document keys; nothing else
    # of the solver is
    doc = config_document(parse_config(FULL))
    assert set(doc) == {"model", "alpha", "nu", "grid", "t_final", "cfl",
                        "dt", "dt_max", "snapshot_dt", "tail_threshold",
                        "output_dir", "case", "sweep", "audit"}


def test_config_type_is_value_comparable():
    a = parse_config(MINIMAL)
    b = parse_config(MINIMAL)
    assert a == b and isinstance(a, RunConfig)


# ---------------------------------------------------------------- dispatch

def test_simulate_writes_snapshots_and_diagnostics(tmp_path, capsys):
    cfg = write_config(tmp_path, MINIMAL)
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--output-dir", str(out)]) == 0
    assert "simulate" in capsys.readouterr().out
    names = sorted(os.listdir(out))
    assert "diagnostics.csv" in names
    assert "snapshot_0000.csv" in names
    header = (out / "diagnostics.csv").read_text().splitlines()[0]
    assert header == "t,dt,energy,enstrophy,tail_mass,norm_u_sq,grad_u_sq"


def test_simulate_output_is_deterministic(tmp_path):
    cfg = write_config(tmp_path, MINIMAL)
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", cfg, "--output-dir", str(a)]) == 0
    assert main(["simulate", "--config", cfg, "--output-dir", str(b)]) == 0
    for name in sorted(os.listdir(a)):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_simulate_euler_is_the_euler_run_of_the_stream_function(tmp_path):
    doc = {"model": "euler", "alpha": 0.2,
           "grid": {"n_r": 64, "n_theta": 16}, "t_final": 0.1,
           "snapshot_dt": 0.05, "case": {"name": "perturbed_vortex"}}
    cfg = write_config(tmp_path, json.dumps(doc))
    out = tmp_path / "o"
    assert main(["simulate", "--config", cfg, "--output-dir", str(out)]) == 0
    names = sorted(n for n in os.listdir(out) if n.startswith("snapshot_"))
    assert len(names) == 3
    parsed = parse_config(json.dumps(doc))
    grid = build_grid(parsed.grid)
    psi = canonical_psi(parsed.case, grid)
    traj = euler_run(psi, 0.1, parsed)
    rows = np.loadtxt(out / "diagnostics.csv", delimiter=",", skiprows=1)
    for j, key in enumerate(("t", "dt", "energy", "enstrophy", "tail_mass",
                             "norm_u_sq", "grad_u_sq")):
        assert np.array_equal(rows[:, j], traj.diagnostics[key]), key
    for name, want in zip(names, traj.snapshots, strict=True):
        field, meta = read_snapshot(out / name, grid)
        assert meta["time"] == want.time
        assert (meta["alpha"], meta["nu"]) == (0.0, 0.0)
        assert np.array_equal(field.values, want.q.values)


def test_exit_codes_for_config_errors(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    assert main(["simulate", "--config", missing]) == 2
    bad = write_config(tmp_path, MINIMAL.replace("0.2", "-1"), "bad.json")
    assert main(["simulate", "--config", bad]) == 2
    assert "alpha" in capsys.readouterr().err
    # the verify windows are pinned in code; no document can loosen them
    loose = write_config(tmp_path, MINIMAL[:-1]
                         + ', "tolerances": {"audit_rel": 1.0}}', "loose.json")
    assert main(["energy-audit", "--config", loose]) == 2
    assert ("config error (tolerances): unknown key 'tolerances'"
            in capsys.readouterr().err)
    with pytest.raises(SystemExit) as exc:  # argparse: --config is required
        main(["simulate"])
    assert exc.value.code == 2


def test_exit_code_numerical_failure(tmp_path, capsys):
    # amplitude 1e12 collapses the admissible step below min_dt immediately
    text = MINIMAL[:-1] + ', "case": {"amplitude": 1e12}}'
    cfg = write_config(tmp_path, text)
    code = main(["simulate", "--config", cfg,
                 "--output-dir", str(tmp_path / "o")])
    assert code == 3
    assert "cfl" in capsys.readouterr().err


# the overflow is the point: keep its warnings out of the test output
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("amplitude", [1e306, 1e308])
@pytest.mark.parametrize("command", ["simulate", "sweep", "energy-audit"])
def test_overflowing_initial_data_is_a_numerical_failure(tmp_path, capsys,
                                                         command, amplitude):
    # at 1e306 the initial state overflows inside run (for a sweep, that of
    # its Euler reference); at 1e308 make_initial overflows before any run
    doc = {"model": "second_grade", "alpha": 0.2, "nu": 1e-4,
           "grid": {"n_r": 64, "n_theta": 16}, "t_final": 0.1,
           "case": {"name": "perturbed_vortex", "amplitude": amplitude},
           "sweep": {"alphas": [0.4, 0.2]}}
    cfg = write_config(tmp_path, json.dumps(doc))
    argv = [command, "--config", cfg, "--output-dir", str(tmp_path / "o")]
    assert main(argv + ["--threads", "1"] * (command == "sweep")) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure (nan): ")
    assert ("initial state" in err) == (amplitude == 1e306)


@pytest.mark.parametrize("amplitude", [1e-200, 1e-100, 1.0, 1e150, 1e160,
                                       1e200])
def test_support_at_the_truncation_ring_is_a_config_error_at_any_amplitude(
        tmp_path, capsys, amplitude):
    # the tail guard sums the squares of psi over its largest value, so no
    # amplitude overflows them into a NaN or underflows them to zero
    doc = {"model": "euler_alpha", "alpha": 0.2,
           "grid": {"n_r": 64, "n_theta": 16, "r_max": 8.0},
           "t_final": 0.02, "dt": 0.01,
           "case": {"name": "radial_vortex", "r0": 7.9,
                    "amplitude": amplitude}}
    cfg = write_config(tmp_path, json.dumps(doc))
    assert main(["simulate", "--config", cfg,
                 "--output-dir", str(tmp_path / "o")]) == 2
    assert "config error (case): psi0 tail" in capsys.readouterr().err


@pytest.mark.parametrize("mode, code", [(10, 2), (8, 0)])
def test_a_perturbation_mode_the_grid_aliases_is_a_config_error(
        tmp_path, capsys, mode, code):
    # on 16 angles mode 10 would run as mode 6; mode 8 is the Nyquist mode
    doc = {"model": "euler_alpha", "alpha": 0.2,
           "grid": {"n_r": 64, "n_theta": 16}, "t_final": 0.02, "dt": 0.01,
           "case": {"name": "perturbed_vortex", "mode": mode}}
    cfg = write_config(tmp_path, json.dumps(doc))
    assert main(["simulate", "--config", cfg,
                 "--output-dir", str(tmp_path / "o")]) == code
    err = capsys.readouterr().err
    assert ("config error (case.mode)" in err) == (code == 2)


def test_failed_simulate_keeps_its_snapshots(tmp_path, capsys):
    # the stream solve's far-field closure trips tail_mass at t ~ 0.2
    doc = {"model": "second_grade", "alpha": 0.2, "nu": 1e-4,
           "grid": {"n_r": 65, "n_theta": 16}, "t_final": 0.5, "dt": 0.005,
           "snapshot_dt": 0.01,
           "case": {"name": "perturbed_vortex", "r0": 2.0, "sigma": 0.4,
                    "mode": 2, "eps": 0.1}}
    cfg = write_config(tmp_path, json.dumps(doc))
    out = tmp_path / "o"
    assert main(["simulate", "--config", cfg, "--output-dir", str(out)]) == 3
    assert "tail_mass" in capsys.readouterr().err
    t_fail = float((out / "diagnostics.csv").read_text().splitlines()[-1]
                   .split(",")[0])
    names = sorted(n for n in os.listdir(out) if n.startswith("snapshot_"))
    assert len(names) == math.floor(t_fail / 0.01 - 1e-9) + 1 > 3
    grid = build_grid(GridSpec(65, 16))
    for i, name in enumerate(names):
        assert name == "snapshot_%04d.csv" % i
        field, meta = read_snapshot(out / name, grid)
        assert meta["time"] == pytest.approx(0.01 * i, abs=1e-12)
    # the same bytes as a run that stops before the failure
    doc["t_final"] = meta["time"]
    ok = write_config(tmp_path, json.dumps(doc), "ok.json")
    assert main(["simulate", "--config", ok, "--output-dir",
                 str(tmp_path / "ok")]) == 0
    for name in names:
        assert (out / name).read_bytes() \
            == (tmp_path / "ok" / name).read_bytes()


def _failing_solves(monkeypatch, how, fails):
    """Make the stream solves fail through their own checks.

    fails(alpha, n) says whether the n-th stream solve (1-based) of the run
    at alpha fails: 'residual' through the residual gate, 'ring' through the
    no-slip ring check of the returned velocity.
    """
    import diskflow.dynamics as dynamics
    import diskflow.elliptic as elliptic
    real_solve = dynamics.solve_stream_helmholtz
    real_prefix = elliptic._solve_prefix
    real_perp = elliptic.perp_grad
    calls = {}
    broken = [False]

    def solve(q, alpha, **kwargs):
        calls[alpha] = calls.get(alpha, 0) + 1
        broken[0] = fails(alpha, calls[alpha])
        try:
            return real_solve(q, alpha, **kwargs)
        finally:
            broken[0] = False

    def solve_prefix(*args):
        k, x, res2, rhs2 = real_prefix(*args)
        return k, x, (1e6 * rhs2 if broken[0] else res2), rhs2

    def perp_grad(phi):
        u = real_perp(phi)
        if not broken[0]:
            return u
        ut = u.u_theta.copy()
        ut[0] += 1e-3
        return VectorField(phi.grid, u.u_r, ut)
    monkeypatch.setattr(dynamics, "solve_stream_helmholtz", solve)
    if how == "residual":
        monkeypatch.setattr(elliptic, "_solve_prefix", solve_prefix)
    else:
        monkeypatch.setattr(elliptic, "perp_grad", perp_grad)


@pytest.mark.parametrize("how", ["residual", "ring"])
def test_solver_failure_fails_one_sweep_row(monkeypatch, tmp_path, capsys,
                                            how):
    # alpha 0.2 fails mid-run (its initial state solves, its first k2 not)
    _failing_solves(monkeypatch, how, lambda alpha, n: alpha == 0.2 and n > 1)
    cfg = write_config(tmp_path, SWEEP_DOC_2)
    out = tmp_path / "sw"
    assert main(["sweep", "--config", cfg, "--output-dir", str(out),
                 "--threads", "1"]) == 3
    printed = capsys.readouterr().out
    assert "alpha=0.4 nu=0 sup_err_l2=" in printed
    assert "status=solve" in printed and "1 of 2 runs failed" in printed
    lines = (out / "sweep.csv").read_text().strip().splitlines()
    rows = [dict(zip(lines[0].split(","), line.split(",")))
            for line in lines[1:]]
    assert [(float(r["alpha"]), r["status"]) for r in rows] \
        == [(0.4, "ok"), (0.2, "solve")]
    assert math.isfinite(float(rows[0]["sup_err_l2"]))
    assert math.isnan(float(rows[1]["sup_err_l2"]))
    assert json.loads((out / "rates.json").read_text()) == []


@pytest.mark.parametrize("threads", ["1", "2"])
def test_failed_initial_solve_fails_one_sweep_row(monkeypatch, tmp_path,
                                                  capsys, threads):
    # run solves alpha 0.2's initial state outside step; that solve fails
    import diskflow.dynamics as dynamics
    real = dynamics.solve_stream_helmholtz
    calls, lock = {}, threading.Lock()

    def solve(q, alpha, **kwargs):
        with lock:
            calls[alpha] = calls.get(alpha, 0) + 1
            first = calls[alpha] == 1
        if alpha == 0.2 and first:
            raise EllipticSolveError("synthetic solver failure")
        return real(q, alpha, **kwargs)
    monkeypatch.setattr(dynamics, "solve_stream_helmholtz", solve)
    cfg = write_config(tmp_path, SWEEP_DOC_2)
    out = tmp_path / "sw"
    assert main(["sweep", "--config", cfg, "--output-dir", str(out),
                 "--threads", threads]) == 3
    printed = capsys.readouterr().out
    assert "status=solve" in printed and "1 of 2 runs failed" in printed
    lines = (out / "sweep.csv").read_text().strip().splitlines()
    rows = [dict(zip(lines[0].split(","), line.split(",")))
            for line in lines[1:]]
    assert [(float(r["alpha"]), r["status"]) for r in rows] \
        == [(0.4, "ok"), (0.2, "solve")]
    assert math.isfinite(float(rows[0]["sup_err_l2"]))
    assert math.isnan(float(rows[1]["sup_err_l2"]))
    assert calls[0.2] == 1


@pytest.mark.parametrize("how", ["residual", "ring"])
def test_solver_failure_fails_simulate_and_keeps_its_files(
        monkeypatch, tmp_path, capsys, how):
    doc = {"model": "euler_alpha", "alpha": 0.2,
           "grid": {"n_r": 65, "n_theta": 16}, "t_final": 0.1, "dt": 0.01,
           "snapshot_dt": 0.01,
           "case": {"name": "perturbed_vortex", "r0": 2.0, "sigma": 0.4,
                    "mode": 2, "eps": 0.1}}
    ok = write_config(tmp_path, json.dumps(dict(doc, t_final=0.02)), "ok.json")
    assert main(["simulate", "--config", ok, "--output-dir",
                 str(tmp_path / "ok")]) == 0
    # solve 1 is the initial state and each step makes four: the tenth is
    # stage k2 of the third step
    _failing_solves(monkeypatch, how, lambda alpha, n: n == 10)
    cfg = write_config(tmp_path, json.dumps(doc))
    out = tmp_path / "o"
    capsys.readouterr()
    assert main(["simulate", "--config", cfg, "--output-dir", str(out)]) == 3
    err = capsys.readouterr().err
    assert "numerical failure (solve)" in err and "stage k2" in err
    names = sorted(n for n in os.listdir(out) if n.startswith("snapshot_"))
    assert names == ["snapshot_0000.csv", "snapshot_0001.csv",
                     "snapshot_0002.csv"]
    for name in names + ["diagnostics.csv"]:
        assert (out / name).read_bytes() \
            == (tmp_path / "ok" / name).read_bytes()


def test_sweep_requires_sweep_section(tmp_path, capsys):
    cfg = write_config(tmp_path, MINIMAL)
    assert main(["sweep", "--config", cfg,
                 "--output-dir", str(tmp_path / "o")]) == 2
    assert "sweep" in capsys.readouterr().err


SWEEP_DOC = """
{"model": "euler_alpha", "alpha": 0.2,
 "grid": {"n_r": 129, "n_theta": 16, "r_max": 10.0}, "t_final": 0.1,
 "case": {"name": "radial_vortex", "amplitude": 0.4, "r0": 1.0,
          "sigma": 1.5, "boundary_profile": "linear"},
 "sweep": {"alphas": [0.4, 0.2, 0.1]}}
"""
SWEEP_DOC_2 = SWEEP_DOC.replace("[0.4, 0.2, 0.1]", "[0.4, 0.2]")


def test_perturbed_sweep_csv_is_the_same_at_one_and_two_threads(tmp_path):
    # non-radial data: each solve's prefix and the factor serving it depend
    # on what the grid's cache holds, and the rows must not depend on the
    # threads that share the grid
    doc = {"model": "euler_alpha", "alpha": 0.4,
           "grid": {"n_r": 65, "n_theta": 64, "r_max": 8.0},
           "t_final": 0.5,
           "case": {"name": "perturbed_vortex", "r0": 2.0, "sigma": 0.4,
                    "mode": 2, "eps": 0.1},
           "sweep": {"alphas": [0.4, 0.2]}}
    cfg = write_config(tmp_path, json.dumps(doc))
    rows = []
    for threads in ("1", "2"):
        out = tmp_path / ("t" + threads)
        assert main(["sweep", "--config", cfg, "--output-dir", str(out),
                     "--threads", threads]) == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        at = lines[0].split(",").index("runtime_s")
        rows.append([line.split(",")[:at] + line.split(",")[at + 1:]
                     for line in lines])
    assert rows[0] == rows[1]


def test_sweep_writes_csv_and_rates(tmp_path, capsys):
    cfg = write_config(tmp_path, SWEEP_DOC)
    out = tmp_path / "sw"
    assert main(["sweep", "--config", cfg, "--output-dir", str(out),
                 "--threads", "1"]) == 0
    assert "status=ok" in capsys.readouterr().out
    lines = (out / "sweep.csv").read_text().strip().splitlines()
    assert lines[0].startswith("alpha,nu,delta,sup_err_l2")
    assert len(lines) == 4
    rates = json.loads((out / "rates.json").read_text())
    assert {e["quantity"] for e in rates} == {"sup_err_l2", "final_err_l2"}
    for e in rates:
        assert set(e) == {"quantity", "slope", "constant", "residual",
                          "points"}


def _output_files(out):
    """Every output file's bytes by name; sweep.csv without runtime_s."""
    files = {}
    for name in sorted(os.listdir(out)):
        data = (out / name).read_bytes()
        if name == "sweep.csv":
            rows = [line.split(",") for line in data.decode().splitlines()]
            col = rows[0].index("runtime_s")
            data = [row[:col] + row[col + 1:] for row in rows]
        files[name] = data
    return files


@pytest.mark.parametrize("n_theta", [96, 128, 478])
def test_radial_outputs_equal_the_full_array_path(monkeypatch, tmp_path,
                                                  full_array_path, n_theta):
    # column-held radial fields write what full arrays write, byte for
    # byte, also where numpy sums a broadcast view in another order
    import diskflow.fields as fields
    doc = {"model": "second_grade", "alpha": 0.2, "nu": 1e-3,
           "grid": {"n_r": 65, "n_theta": n_theta, "r_max": 8.0},
           "t_final": 0.04, "snapshot_dt": 0.01,
           "case": {"name": "radial_vortex", "boundary_profile": "linear"},
           "sweep": {"alphas": [0.4, 0.2], "nu_c": 0.01}}
    cfg = write_config(tmp_path, json.dumps(doc))
    columns = []
    spread = [False]
    real_result = fields._result

    def result(a):
        if spread[0] and a.shape[1] == 1:
            a = np.repeat(a, n_theta, axis=1)
        out = real_result(a)
        columns.append(out.shape[1] == 1)
        return out
    monkeypatch.setattr(fields, "_result", result)

    def outputs(side):
        columns.clear()
        files = {}
        for command in ("simulate", "energy-audit", "sweep"):
            out = tmp_path / side / command
            argv = [command, "--config", cfg, "--output-dir", str(out)]
            if command == "sweep":
                argv += ["--threads", "1"]
            assert main(argv) == 0
            files[command] = _output_files(out)
        return files
    got = outputs("columns")
    assert any(columns)
    # the full-array path: every column spread to a full array and no
    # array held, with the angular derivatives of constant rows the exact
    # zeros they are (FFTs leave roundoff on constant rows at n_theta =
    # 478, and would solve the roundoff modes)
    spread[0] = True
    full_array_path()
    want = outputs("full")
    assert columns and not any(columns)
    assert got.keys() == want.keys()
    for command in got:
        assert got[command] and got[command].keys() == want[command].keys()
        for name in got[command]:
            assert got[command][name] == want[command][name], (command, name)


@pytest.mark.parametrize("law, value", [
    ("nu_gamma", -1000), ("delta_rule", 1000)])
def test_sweep_scaling_law_in_the_document_is_a_config_error(
        tmp_path, capsys, law, value):
    doc = json.loads(SWEEP_DOC)
    doc["sweep"][law] = value
    cfg = write_config(tmp_path, json.dumps(doc))
    assert main(["sweep", "--config", cfg,
                 "--output-dir", str(tmp_path / "sw")]) == 2
    assert "config error (sweep.%s)" % law in capsys.readouterr().err


def test_verify_corrector_passes(tmp_path, capsys):
    cfg = write_config(tmp_path, MINIMAL)
    out = tmp_path / "v"
    assert main(["verify-corrector", "--config", cfg,
                 "--output-dir", str(out)]) == 0
    assert "PASS" in capsys.readouterr().out
    report = json.loads((out / "verify_corrector.json").read_text())
    assert report["passed"] is True


AUDIT_DOC = """
{"model": "second_grade", "alpha": 0.2, "nu": 1e-4,
 "grid": {"n_r": 65, "n_theta": 16}, "t_final": 0.1,
 "snapshot_dt": 0.02}
"""


@pytest.mark.parametrize("command, window", [
    ("verify-elliptic", "ORDER_WINDOW"),
    ("verify-corrector", "CORRECTOR_WINDOW"),
    ("verify-initial-data", "HYPOTHESIS_WINDOW"),
    ("energy-audit", "AUDIT_REL")])
def test_a_pinned_window_out_of_reach_exits_4(tmp_path, capsys, monkeypatch,
                                              command, window):
    # no |slope - target| and no residual is <= -1
    monkeypatch.setattr(vf, window, -1.0)
    cfg = write_config(tmp_path, AUDIT_DOC)
    out = tmp_path / "v"
    assert main([command, "--config", cfg, "--output-dir", str(out)]) == 4
    assert "%s: FAIL" % command in capsys.readouterr().out
    report = json.loads((out / (command.replace("-", "_") + ".json"))
                        .read_text())
    assert report["passed"] is False


def test_energy_audit_subcommand(tmp_path, capsys):
    cfg = write_config(tmp_path, AUDIT_DOC)
    out = tmp_path / "au"
    assert main(["energy-audit", "--config", cfg,
                 "--output-dir", str(out)]) == 0
    assert "PASS" in capsys.readouterr().out
    report = json.loads((out / "energy_audit.json").read_text())
    assert report["passed"] is True
    assert report["n_times"] == 6
    # comparing Euler against itself is a config error, not a run
    euler = write_config(tmp_path, AUDIT_DOC
                         .replace('"second_grade"', '"euler"')
                         .replace('"nu": 1e-4', '"nu": 0'), "euler.json")
    assert main(["energy-audit", "--config", euler,
                 "--output-dir", str(out)]) == 2


@pytest.mark.parametrize("model", ["second_grade", "euler_alpha"])
def test_energy_audit_of_two_snapshots_exits_before_any_step(
        tmp_path, capsys, monkeypatch, model):
    # snapshot_dt = t_final schedules t = 0 and t_final only; euler_alpha
    # on perturbed data would first run a numerical Euler reference
    import diskflow.dynamics as dynamics

    def no_step(*args, **kwargs):
        raise AssertionError("a step was taken")
    monkeypatch.setattr(dynamics, "step", no_step)
    doc = {"model": model, "alpha": 0.2,
           "nu": 1e-4 if model == "second_grade" else 0.0,
           "grid": {"n_r": 65, "n_theta": 16}, "t_final": 0.1,
           "snapshot_dt": 0.1, "case": {"name": "perturbed_vortex"}}
    cfg = write_config(tmp_path, json.dumps(doc))
    assert main(["energy-audit", "--config", cfg,
                 "--output-dir", str(tmp_path / "o")]) == 2
    assert "config error (trajectories)" in capsys.readouterr().err


@pytest.mark.parametrize("case, code", [
    ({"amplitude": 1e-200}, 2), ({"name": "file"}, 2),
    ({"amplitude": 1e-150}, 0)])
def test_energy_audit_of_data_without_energy_is_a_config_error(
        tmp_path, capsys, monkeypatch, case, code):
    # the residual is relative to E_alpha(0): at amplitude 1e-200 its
    # squares underflow to 0, and all-zero data has none; 1e-150 still has
    import diskflow.dynamics as dynamics
    real_step, kinds = dynamics.step, []

    def step(state, dt, **kwargs):
        kinds.append(state.params.kind)
        return real_step(state, dt, **kwargs)

    monkeypatch.setattr(dynamics, "step", step)
    zero = tmp_path / "zero.csv"
    write_snapshot(ScalarField(build_grid(GridSpec(33, 16)),
                               np.zeros((33, 16))),
                   zero, time=0.0, alpha=0.0, nu=0.0)
    if case.get("name") == "file":
        case = dict(case, path=str(zero))
    doc = {"model": "euler_alpha", "alpha": 0.4,
           "grid": {"n_r": 33, "n_theta": 16}, "t_final": 0.1, "case": case}
    cfg = write_config(tmp_path, json.dumps(doc))
    assert main(["energy-audit", "--config", cfg,
                 "--output-dir", str(tmp_path / "o")]) == code
    captured = capsys.readouterr()
    if code == 2:
        assert "config error (case): E_alpha(0) = 0.0" in captured.err
        assert "euler_alpha" not in kinds  # the regularized run took no step
    else:
        assert "energy-audit: PASS" in captured.out
        assert "euler_alpha" in kinds


def test_threads_flag_must_be_nonnegative(tmp_path, capsys):
    cfg = write_config(tmp_path, MINIMAL)
    assert main(["sweep", "--config", cfg, "--threads", "-1"]) == 2
    assert "config error (threads)" in capsys.readouterr().err


def test_threads_flag_is_offered_by_sweep_only(tmp_path):
    cfg = write_config(tmp_path, MINIMAL)
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--config", cfg, "--threads", "1"])
    assert exc.value.code == 2      # argparse usage error


@pytest.mark.parametrize("flag", [
    ["--alphas", "0.4,0.2"], ["--nu-c", "1"], ["--nu-gamma", "2"],
    ["--strict"], ["--lenient"]])
def test_settings_come_from_the_document_only(tmp_path, flag):
    cfg = write_config(tmp_path, SWEEP_DOC)
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--config", cfg, "--output-dir", str(tmp_path / "o")]
             + flag)
    assert exc.value.code == 2      # argparse usage error


SUBCOMMANDS = ("simulate", "sweep", "verify-elliptic", "verify-corrector",
               "verify-initial-data", "energy-audit")


def _offered_options(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--help"])
    assert exc.value.code == 0
    return set(re.findall(r"(?<![\w-])--?[a-z][a-z-]*",
                          capsys.readouterr().out))


def test_each_subcommand_offers_only_paths_and_threads(capsys):
    for name in SUBCOMMANDS:
        want = {"-h", "--help", "--config", "--output-dir"}
        if name == "sweep":
            want.add("--threads")
        assert _offered_options(capsys, [name]) == want, name


def test_readme_command_line_section_names_exactly_the_offered_options(
        capsys):
    offered = _offered_options(capsys, [])
    for name in SUBCOMMANDS:
        offered |= _offered_options(capsys, [name])
    readme = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                          "README.md")
    with open(readme) as fh:
        text = fh.read()
    section = text.split("\n## Command line\n")[1].split("\n## ")[0]
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", section))
    assert named == {o for o in offered if o.startswith("--")}


def test_cli_import_leaves_scipy_integrate_out():
    # scipy.integrate pulls in scipy.optimize, about 0.3 s of every start;
    # scipy.special and scipy.fft would add tens of milliseconds more, and
    # numpy's FFT is as fast as scipy.fft at the grid sizes used here
    src = os.path.dirname(os.path.dirname(diskflow.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", "import sys, diskflow.cli; "
         "print(sorted(m for m in ('scipy.integrate', 'scipy.special', "
         "'scipy.fft') if m in sys.modules))"],
        env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
