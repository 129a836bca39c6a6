"""Config schema, exit codes, and file emission of the command line."""

import json
import os

import pytest

from diskflow.cli import (RunConfig, SweepSettings, Tolerances,
                          config_document, main, parse_config,
                          serialize_config)
from diskflow.errors import ConfigError

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
  "audit": {"delta": 0.1},
  "tolerances": {"audit_rel": 0.01}
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
    assert cfg.tolerances == Tolerances()


def test_full_document_parses():
    cfg = parse_config(FULL)
    assert cfg.sweep == SweepSettings(alphas=(0.4, 0.2, 0.1), nu_c=1.0,
                                      nu_gamma=2.0)
    assert cfg.audit_delta == 0.1
    assert cfg.tolerances.audit_rel == 0.01
    assert cfg.tolerances.order_window == 0.2  # untouched default
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


@pytest.mark.parametrize("text, key", [
    ('{"model": "x", "alpha": 0.2, "grid": {"n_r": 64}, "t_final": 1}',
     "model"),
    ('{"model": "euler_alpha", "alpha": 0.2, "grid": {"n_r": 4}, '
     '"t_final": 1}', "grid.n_r"),
    ('{"model": "euler_alpha", "alpha": 0.2, "grid": {"n_r": 64.5}, '
     '"t_final": 1}', "grid.n_r"),
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
     '"t_final": 1, "tolerances": {"audit_rel": 0}}',
     "tolerances.audit_rel"),
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
def test_strict_mode_rejects_unknown_keys(text, key):
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert err.value.key == key
    parse_config(text, strict=False)  # lenient mode ignores them


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


def test_round_trip_minimal_and_full():
    for text in (MINIMAL, FULL):
        cfg = parse_config(text)
        again = parse_config(serialize_config(cfg))
        assert again == cfg
    doc = config_document(parse_config(FULL))
    assert doc["sweep"]["alphas"] == [0.4, 0.2, 0.1]


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


def test_exit_codes_for_config_errors(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    assert main(["simulate", "--config", missing]) == 2
    bad = write_config(tmp_path, MINIMAL.replace("0.2", "-1"), "bad.json")
    assert main(["simulate", "--config", bad]) == 2
    assert "alpha" in capsys.readouterr().err
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


def test_sweep_alpha_override_trims_the_list(tmp_path):
    cfg = write_config(tmp_path, SWEEP_DOC)
    out = tmp_path / "sw"
    assert main(["sweep", "--config", cfg, "--output-dir", str(out),
                 "--threads", "1", "--alphas", "0.4,0.2"]) == 0
    lines = (out / "sweep.csv").read_text().strip().splitlines()
    assert len(lines) == 3  # header + two records
    # malformed override is a config error
    assert main(["sweep", "--config", cfg, "--output-dir", str(out),
                 "--alphas", "0.4,zz"]) == 2


def test_verify_corrector_pass_and_fail(tmp_path, capsys):
    cfg = write_config(tmp_path, MINIMAL)
    out = tmp_path / "v"
    assert main(["verify-corrector", "--config", cfg,
                 "--output-dir", str(out)]) == 0
    assert "PASS" in capsys.readouterr().out
    report = json.loads((out / "verify_corrector.json").read_text())
    assert report["passed"] is True
    # an unreachable window flips the exit code to 4
    tight = write_config(tmp_path, MINIMAL[:-1]
                         + ', "tolerances": {"corrector_window": 1e-4}}',
                         "tight.json")
    assert main(["verify-corrector", "--config", tight,
                 "--output-dir", str(out)]) == 4
    assert "FAIL" in capsys.readouterr().out


def test_energy_audit_subcommand(tmp_path, capsys):
    text = """
    {"model": "second_grade", "alpha": 0.2, "nu": 1e-4,
     "grid": {"n_r": 65, "n_theta": 16}, "t_final": 0.1,
     "snapshot_dt": 0.02}
    """
    cfg = write_config(tmp_path, text)
    out = tmp_path / "au"
    assert main(["energy-audit", "--config", cfg,
                 "--output-dir", str(out)]) == 0
    assert "PASS" in capsys.readouterr().out
    report = json.loads((out / "energy_audit.json").read_text())
    assert report["passed"] is True
    assert report["n_times"] == 6
    # comparing Euler against itself is a config error, not a run
    euler = write_config(tmp_path, text.replace('"second_grade"', '"euler"')
                         .replace('"alpha": 0.2', '"alpha": 0.2, "xnu": 0')
                         .replace('"nu": 1e-4', '"nu": 0'), "euler.json")
    assert main(["energy-audit", "--config", euler, "--lenient",
                 "--output-dir", str(out)]) == 2


def test_threads_flag_must_be_nonnegative(tmp_path):
    cfg = write_config(tmp_path, MINIMAL)
    assert main(["simulate", "--config", cfg, "--threads", "-1"]) == 2
