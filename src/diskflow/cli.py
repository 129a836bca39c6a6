"""Command-line front end: config parsing, dispatch, files, exit codes.

One JSON document drives every subcommand.  Parsing is strict:
unknown keys are rejected with their dotted path, range violations name the
offending key.  Exit codes: 0 success, 2 config error, 3 numerical failure
(NaN / collapsed step / tail mass), 4 a verification check out of tolerance.

Everything here is randomness-free; identical configs produce identical
output bytes apart from the runtime_s column of sweep records.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import types
import typing
from dataclasses import dataclass, replace

from .boundary_layer import check_delta
from . import dynamics
from .dynamics import KINDS, ModelParams, run
from .errors import (ConfigError, DegenerateFitError, DiskflowError,
                     NonFiniteFieldError, NumericalFailure)
from .fields import write_snapshot
from .grid import GridSpec, build_grid
from .harness import (SweepConfig, SweepSettings, euler_reference_state,
                      rate_entry, run_sweep, write_sweep_csv)
from .initial_data import (InitialCase, canonical_psi, check_alpha,
                           make_initial)
from .ratefit import fit_rate
from .verify import (Tolerances, energy_audit_study, report_dict,
                     verify_corrector, verify_elliptic, verify_initial_data)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_VERIFY = 4


# ------------------------------------------------------------ config schema

@dataclass(frozen=True)
class AuditSettings:
    """The energy-audit section."""

    delta: float | None = None       # corrector width; None = alpha**(4/3)

    def __post_init__(self):
        if self.delta is not None:
            check_delta(self.delta)


@dataclass(frozen=True, kw_only=True)
class RunConfig(dynamics.RunConfig):
    """Fully validated configuration for any subcommand.

    The JSON document mirrors these fields, nested sections included; each
    section's dataclass holds its own defaults and range checks.  The solver
    keys come from dynamics.RunConfig, so run takes the document as it is.
    """

    model: str
    alpha: float
    nu: float = 0.0
    grid: GridSpec
    t_final: float
    output_dir: str = "."
    case: InitialCase = InitialCase()
    sweep: SweepSettings | None = None
    audit: AuditSettings | None = None
    tolerances: Tolerances = Tolerances()

    def __post_init__(self):
        if self.model not in KINDS:
            raise ConfigError("model=%r not one of %r" % (self.model, KINDS),
                              key="model")
        if not (self.model == "euler" and self.alpha == 0.0):
            check_alpha(self.alpha)     # Euler's own alpha is 0
        viscous = self.model == "second_grade"
        if self.nu < 0.0 or viscous != (self.nu > 0.0):
            raise ConfigError("nu=%r: model %r requires nu %s" % (
                self.nu, self.model, "> 0" if viscous else "= 0"), key="nu")
        if not self.t_final > 0.0:
            raise ConfigError("t_final=%r must be positive" % (self.t_final,),
                              key="t_final")
        super().__post_init__()
        if self.sweep is not None:
            _sweep_config(self)  # fail fast: validates alphas against the grid

    @property
    def audit_delta(self) -> float | None:
        return None if self.audit is None else self.audit.delta


def _type_name(v) -> str:
    return "null" if v is None else type(v).__name__


def _as_number(v, path: str) -> float:
    # JSON booleans arrive as Python bools, which are ints; reject them
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError("%s must be a number, got %s"
                          % (path, _type_name(v)), key=path)
    try:
        out = float(v)
    except OverflowError:       # an integer literal beyond float range
        out = math.inf
    if not math.isfinite(out):
        raise ConfigError("%s must be finite" % path, key=path)
    return out


def _coerce(v, hint, path: str):
    """The value v at dotted key path, checked against annotation hint."""
    if dataclasses.is_dataclass(hint):
        return _build(hint, v, path)
    if isinstance(hint, types.UnionType):       # X | None
        inner, = (a for a in typing.get_args(hint) if a is not type(None))
        return None if v is None else _coerce(v, inner, path)
    if typing.get_origin(hint) is tuple:        # tuple[float, ...]
        if not isinstance(v, list) or not v:
            raise ConfigError("%s must be a nonempty array" % path, key=path)
        return tuple(_as_number(x, path) for x in v)
    if hint is float:
        return _as_number(v, path)
    if hint is int:
        if isinstance(v, bool) or not isinstance(v, int):
            raise ConfigError("%s must be an integer, got %s"
                              % (path, _type_name(v)), key=path)
        _as_number(v, path)    # rejects integers beyond float range
        return v
    if hint is str:
        if not isinstance(v, str):
            raise ConfigError("%s must be a string, got %s"
                              % (path, _type_name(v)), key=path)
        return v
    raise TypeError("no JSON coercion for annotation %r" % (hint,))


def _build(cls, raw, path: str):
    """An instance of the dataclass cls from the JSON object raw at path.

    Missing keys take the field default; a ConfigError raised by the
    dataclass itself is re-keyed to its dotted path.
    """
    where = path or "document"
    if not isinstance(raw, dict):
        raise ConfigError("%s must be an object, got %s"
                          % (where, _type_name(raw)), key=where)
    prefix = path + "." if path else ""
    hints = typing.get_type_hints(cls)
    kw = {}
    for f in dataclasses.fields(cls):
        key = prefix + f.name
        if f.name in raw:
            kw[f.name] = _coerce(raw[f.name], hints[f.name], key)
        elif f.default is dataclasses.MISSING:
            raise ConfigError("missing required key %r" % key, key=key)
    unknown = sorted(set(raw) - set(kw))
    if unknown:
        key = prefix + unknown[0] if unknown[0] else where
        raise ConfigError("unknown key %r" % (prefix + unknown[0]), key=key)
    try:
        return cls(**kw)
    except ConfigError as exc:
        if not path:
            raise
        key = prefix + exc.key if exc.key else path
        raise ConfigError(str(exc), key=key) from exc


def parse_config(text: str) -> RunConfig:
    """Validate a JSON config document; errors carry the dotted key path."""
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ConfigError("config is not valid JSON: %s" % exc,
                          key="document") from exc
    return _build(RunConfig, doc, "")


def config_document(cfg: RunConfig) -> dict:
    """Plain-dict form of a config; parse(serialize(...)) round-trips."""
    doc = dataclasses.asdict(cfg)
    if cfg.sweep is not None:
        doc["sweep"]["alphas"] = list(cfg.sweep.alphas)
    return doc


def serialize_config(cfg: RunConfig) -> str:
    return json.dumps(config_document(cfg), indent=2, sort_keys=True) + "\n"


# --------------------------------------------------------------- subcommands

def _write_json(path, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _cmd_simulate(cfg: RunConfig, args, out: str) -> int:
    grid = build_grid(cfg.grid)
    psi = canonical_psi(cfg.case, grid)
    written = []

    def write(s):   # as each snapshot is taken: a failed run keeps them
        write_snapshot(s.q, os.path.join(out, "snapshot_%04d.csv"
                                         % len(written)),
                       time=s.time, alpha=s.params.alpha, nu=s.params.nu)
        written.append(s.time)

    if cfg.model == "euler":   # the document's alpha is not Euler's
        params, u0 = ModelParams(kind="euler"), euler_reference_state(psi).u
    else:
        params = ModelParams(kind=cfg.model, alpha=cfg.alpha, nu=cfg.nu)
        u0 = make_initial(psi, cfg.alpha)
    traj = run(params, u0, cfg.t_final, cfg, on_snapshot=write,
               diagnostics_path=os.path.join(out, "diagnostics.csv"))
    n_steps = len(traj.diagnostics["t"]) - 1
    print("simulate: %s to t=%g in %d steps, %d snapshots -> %s"
          % (cfg.model, cfg.t_final, n_steps, len(written), out))
    return EXIT_OK


def _sweep_config(cfg: RunConfig) -> SweepConfig:
    """The sweep of cfg: its section plus the grid, case and solver keys."""
    if cfg.sweep is None:
        raise ConfigError("the sweep subcommand needs a 'sweep' section",
                          key="sweep")
    section = dataclasses.asdict(cfg.sweep)
    solver = {f.name: getattr(cfg, f.name)
              for f in dataclasses.fields(dynamics.RunConfig)}
    try:
        return SweepConfig(**section, **solver, grid=cfg.grid,
                           t_final=cfg.t_final, case=cfg.case)
    except ConfigError as exc:
        if exc.key in section:
            raise ConfigError(str(exc), key="sweep." + exc.key) from exc
        raise


def _cmd_sweep(cfg: RunConfig, args, out: str) -> int:
    if args.threads < 0:
        raise ConfigError("threads=%r must be >= 0" % args.threads,
                          key="threads")
    records = run_sweep(_sweep_config(cfg), threads=args.threads)
    write_sweep_csv(records, os.path.join(out, "sweep.csv"))
    entries = []
    ok = [r for r in records if r.status == "ok"]
    if len(ok) >= 3:
        for qty in ("sup_err_l2", "final_err_l2"):
            try:
                fit = fit_rate([r.alpha for r in ok],
                               [getattr(r, qty) for r in ok])
            except DegenerateFitError:
                continue
            entries.append(rate_entry(qty, fit))
    _write_json(os.path.join(out, "rates.json"), entries)
    for r in records:
        print("sweep: alpha=%g nu=%g sup_err_l2=%g status=%s"
              % (r.alpha, r.nu, r.sup_err_l2, r.status))
    if len(ok) < len(records):
        print("sweep: %d of %d runs failed -> %s"
              % (len(records) - len(ok), len(records), out))
        return EXIT_NUMERICAL
    print("sweep: %d runs ok -> %s" % (len(records), out))
    return EXIT_OK


def _finish_verify(name: str, report, out: str) -> int:
    _write_json(os.path.join(out, name.replace("-", "_") + ".json"),
                report_dict(report))
    print("%s: %s" % (name, "PASS" if report.passed else "FAIL"))
    return EXIT_OK if report.passed else EXIT_VERIFY


def _cmd_verify_elliptic(cfg: RunConfig, args, out: str) -> int:
    tol = cfg.tolerances
    rep = verify_elliptic(tol)
    print("poisson order: %.4f (2 +- %g) %s"
          % (-rep.order_fit.slope, tol.order_window,
             "ok" if rep.order_ok else "FAIL"))
    print("inverse chain: max rel %.3e (tol %g) %s"
          % (max(rel for _, rel in rep.chain_rels), tol.chain_rel,
             "ok" if rep.chain_ok else "FAIL"))
    print("D3 probe slope: %.4f (floor %g) %s"
          % (rep.probe_slope, tol.probe_floor,
             "ok" if rep.probe_ok else "FAIL"))
    return _finish_verify("verify-elliptic", rep, out)


def _cmd_verify_corrector(cfg: RunConfig, args, out: str) -> int:
    tol = cfg.tolerances
    rep = verify_corrector(tol)
    print("corrector |u_b| slope: %.4f (0.5 +- %g) %s"
          % (rep.report.l2_fit.slope, tol.corrector_window,
             "ok" if rep.l2_ok else "FAIL"))
    print("corrector |grad u_b| slope: %.4f (-0.5 +- %g) %s"
          % (rep.report.h1_fit.slope, tol.corrector_window,
             "ok" if rep.h1_ok else "FAIL"))
    return _finish_verify("verify-corrector", rep, out)


def _cmd_verify_initial_data(cfg: RunConfig, args, out: str) -> int:
    tol = cfg.tolerances
    rep = verify_initial_data(tol)
    print("family |u0^a - u0| slope: %.4f (0.5 +- %g) %s"
          % (rep.report.e0_fit.slope, tol.hypothesis_window,
             "ok" if rep.e0_ok else "FAIL"))
    print("family |D1 u0^a| slope: %.4f (-0.5 +- %g) %s"
          % (rep.report.dk_fits[1].slope, tol.hypothesis_window,
             "ok" if rep.d1_ok else "FAIL"))
    print("family alpha^k |D^k| decreasing: %s"
          % ("ok" if rep.products_ok else "FAIL"))
    return _finish_verify("verify-initial-data", rep, out)


def _cmd_energy_audit(cfg: RunConfig, args, out: str) -> int:
    if cfg.model == "euler":
        raise ConfigError("energy-audit compares a regularized run against "
                          "Euler; model must be euler_alpha or second_grade",
                          key="model")
    audit = energy_audit_study(cfg.case, cfg.grid, cfg.alpha, cfg.nu,
                               cfg.t_final, cfg,
                               delta=cfg.audit_delta)
    passed = audit.rel_residual <= cfg.tolerances.audit_rel
    doc = report_dict(audit)
    doc["passed"] = passed
    doc["tolerance"] = cfg.tolerances.audit_rel
    _write_json(os.path.join(out, "energy_audit.json"), doc)
    print("budget terms: i1=%.6e i2=%.6e i3=%.6e i4=%.6e lhs=%.6e"
          % (audit.i1, audit.i2, audit.i3, audit.i4, audit.lhs))
    print("relative residual: %.3e (tol %g)"
          % (audit.rel_residual, cfg.tolerances.audit_rel))
    print("energy-audit: %s" % ("PASS" if passed else "FAIL"))
    return EXIT_OK if passed else EXIT_VERIFY


_DISPATCH = {
    "simulate": _cmd_simulate,
    "sweep": _cmd_sweep,
    "verify-elliptic": _cmd_verify_elliptic,
    "verify-corrector": _cmd_verify_corrector,
    "verify-initial-data": _cmd_verify_initial_data,
    "energy-audit": _cmd_energy_audit,
}


# ------------------------------------------------------------------- driver

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diskflow",
        description="Exterior-disk flow laboratory: simulate, sweep, verify.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
            ("simulate", "one run: snapshots plus a diagnostics CSV"),
            ("sweep", "alpha sweep against an Euler reference"),
            ("verify-elliptic", "solver order, inverse chain, D^3 probe"),
            ("verify-corrector", "boundary-layer corrector scalings"),
            ("verify-initial-data", "no-slip family rates"),
            ("energy-audit", "error-energy budget of one run")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, metavar="PATH",
                       help="JSON config document")
        p.add_argument("--output-dir", default=None, metavar="PATH",
                       help="replaces output_dir of the config")
        if name == "sweep":
            p.add_argument("--threads", type=int, default=0, metavar="N",
                           help="worker threads; 0 = auto")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        try:
            with open(args.config) as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError("cannot read config %r: %s"
                              % (args.config, exc), key="config") from exc
        cfg = parse_config(text)
        if args.output_dir is not None:
            cfg = replace(cfg, output_dir=args.output_dir)
        out = cfg.output_dir
        try:
            os.makedirs(out, exist_ok=True)
        except OSError as exc:
            raise ConfigError("cannot create output_dir %r: %s" % (out, exc),
                              key="output_dir") from exc
        if not os.access(out, os.W_OK):
            raise ConfigError("output_dir %r is not writable" % out,
                              key="output_dir")
        return _DISPATCH[args.command](cfg, args, out)
    except ConfigError as exc:
        print("config error (%s): %s" % (exc.key or "?", exc),
              file=sys.stderr)
        return EXIT_CONFIG
    except NumericalFailure as exc:
        print("numerical failure (%s): %s" % (exc.kind, exc), file=sys.stderr)
        return EXIT_NUMERICAL
    except NonFiniteFieldError as exc:  # overflow outside a run
        print("numerical failure (nan): %s" % exc, file=sys.stderr)
        return EXIT_NUMERICAL
    except DegenerateFitError as exc:
        print("numerical failure (degenerate fit): %s" % exc, file=sys.stderr)
        return EXIT_NUMERICAL
    except DiskflowError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
