"""Properties of the config schema over generated documents."""

import json

import numpy as np
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from diskflow.cli import main, parse_config, serialize_config
from diskflow.errors import ConfigError
from diskflow.fields import ScalarField, write_snapshot
from diskflow.grid import GridSpec, build_grid

# derandomized: the same examples on every run, so the suite stays a gate
SETTINGS = settings(max_examples=150, deadline=None, derandomize=True,
                    suppress_health_check=[HealthCheck.too_slow])


def positive(hi=1e3):
    return st.floats(min_value=1e-9, max_value=hi)


@st.composite
def documents(draw):
    """Documents that are valid apart from, at most, the sweep's grid fit."""
    model = draw(st.sampled_from(["euler", "euler_alpha", "second_grade"]))
    doc = {"model": model,
           "alpha": draw(st.floats(min_value=1e-3, max_value=0.5)),
           "grid": {"n_r": draw(st.integers(8, 4096))},
           "t_final": draw(positive())}
    if model == "second_grade":
        doc["nu"] = draw(positive(1.0))
    optional = {
        "cfl": st.floats(min_value=1e-3, max_value=1.0),
        "dt": st.none() | positive(),
        "dt_max": positive(),
        "snapshot_dt": st.none() | positive(),
        "tail_threshold": positive(),
        "output_dir": st.text(max_size=8),
        "tolerances": st.fixed_dictionaries({}, optional={
            "order_window": positive(), "probe_floor": st.floats(-10, 10),
            "audit_rel": positive()}),
        "audit": st.none() | st.fixed_dictionaries(
            {}, optional={"delta": st.none() | positive(0.9)}),
        "case": st.fixed_dictionaries({}, optional={
            "name": st.sampled_from(["radial_vortex", "perturbed_vortex"]),
            "amplitude": st.floats(0.1, 10.0), "r0": st.floats(1.0, 4.0),
            "sigma": positive(2.0), "mode": st.integers(1, 8),
            "eps": st.floats(0.0, 1.0),
            "boundary_profile": st.sampled_from(["squared", "linear"])}),
    }
    for key, strategy in optional.items():
        if draw(st.booleans()):
            doc[key] = draw(strategy)
    if draw(st.booleans()):
        doc["grid"]["n_theta"] = 2 * draw(st.integers(4, 256))
    if draw(st.booleans()):
        doc["grid"]["r_max"] = draw(st.floats(1.5, 20.0))
    if draw(st.booleans()):
        a0 = draw(st.floats(0.1, 0.5))
        ratio = draw(st.floats(0.5, 0.9))
        doc["sweep"] = {"alphas": [a0 * ratio ** i
                                   for i in range(draw(st.integers(1, 4)))],
                        "nu_gamma": draw(st.floats(0.0, 4.0))}
    return doc


JSON = st.recursive(
    st.none() | st.booleans() | st.floats() | st.text(max_size=6)
    | st.integers() | st.sampled_from([10 ** 400, -10 ** 400, 2 ** 63]),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12)

SECTIONS = ("grid", "case", "sweep", "audit", "tolerances")


@SETTINGS
@given(documents())
def test_serialize_then_parse_is_the_identity(doc):
    try:
        cfg = parse_config(json.dumps(doc))
    except ConfigError as exc:
        # only the sweep's collar resolution depends on the grid drawn
        assert exc.key == "sweep.alphas"
        assume(False)
    assert parse_config(serialize_config(cfg)) == cfg


def _parses_or_names_a_key(doc, strict):
    try:
        parse_config(json.dumps(doc), strict=strict)
    except ConfigError as exc:
        assert isinstance(exc.key, str) and exc.key


@SETTINGS
@given(documents(), st.sampled_from(("",) + SECTIONS), st.text(max_size=12),
       JSON, st.booleans())
def test_any_value_at_any_key_parses_or_names_a_key(doc, section, key, value,
                                                    strict):
    target = doc
    if section:
        if not isinstance(doc.get(section), dict):
            doc[section] = {}
        target = doc[section]
    target[key] = value
    _parses_or_names_a_key(doc, strict)


@SETTINGS
@given(JSON, st.booleans())
def test_arbitrary_json_parses_or_names_a_key(doc, strict):
    _parses_or_names_a_key(doc, strict)


def test_malformed_file_case_exits_with_config_error(tmp_path, capsys):
    spec = GridSpec(n_r=16, n_theta=8)
    snap = tmp_path / "psi0.csv"
    write_snapshot(ScalarField(build_grid(spec), np.zeros((16, 8))), snap,
                   time=0.0, alpha=0.0, nu=0.0)
    header = snap.read_text().splitlines()[0]
    snap.write_text(header + "\n1,2,3\n")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "model": "euler_alpha", "alpha": 0.2, "t_final": 0.1,
        "grid": {"n_r": 16, "n_theta": 8},
        "case": {"name": "file", "path": str(snap)}}))
    assert main(["simulate", "--config", str(cfg),
                 "--output-dir", str(tmp_path / "out")]) == 2
    assert "config error (snapshot)" in capsys.readouterr().err
