"""The diskflow benchmark.

    python3 perfbench/run.py --workload radial_sweep --seed 0 --seconds 30 --trace 0

Runs one workload (or ``all``) as a closed loop of in-process calls to
``diskflow.cli.main`` from one process, checks every op's output, and prints
the metrics named in BENCHMARK.json: the end-to-end ones with ``--trace 0``,
the per-layer ones with ``--trace 1``.  The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics.  Each
run also appends a record (metrics, op digests, environment, configs) to
``results.jsonl`` under ``--out``; ``perfbench/compare.py`` reads those.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from hostref import ELASTICITY, NOMINAL_S, HostReference  # noqa: E402
from stats import median, tail  # noqa: E402
from workloads import CYCLES, PROBE, WORKLOADS  # noqa: E402

SETUP_REPEATS = 5
REF_SHARE = 0.25     # host reference time per unit of cycle time
REF_MIN_RUNS = 4     # kernel runs between two cycles, at least
MIN_TRACED_ROUNDS = 3


# ------------------------------------------------------------ environment

def _first_line(path: str, prefix: str):
    try:
        with open(path) as fh:
            for line in fh:
                if line.startswith(prefix):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _caches() -> dict:
    base = "/sys/devices/system/cpu/cpu0/cache"
    out = {}
    try:
        for d in sorted(os.listdir(base)):
            if d.startswith("index"):
                parts = []
                for key in ("level", "type", "size"):
                    with open(os.path.join(base, d, key)) as fh:
                        parts.append(fh.read().strip())
                out["L%s-%s" % (parts[0], parts[1])] = parts[2]
    except OSError:
        pass
    return out


def _git(*args):
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(("git",) + args, cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment() -> dict:
    import numpy
    import scipy
    status = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": _first_line("/proc/cpuinfo", "model name"),
        "caches": _caches(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
    }


# ----------------------------------------------------------------- set-up

def setup_once(runner, op) -> float:
    """Fresh interpreter through ``op``'s CLI call to its first step, in s."""
    out = os.path.join(runner.work_dir, "setup")
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_child.py"), str(SRC)]
        + runner.argv(op, out), capture_output=True, text=True, timeout=120)
    shutil.rmtree(out, ignore_errors=True)
    done = [line for line in proc.stdout.splitlines()
            if line.startswith("setup_done ")]
    if proc.returncode != 0 or not done:
        raise RuntimeError("set-up child failed: %s" % proc.stderr.strip())
    return float(done[-1].split()[1]) - start


# ------------------------------------------------------------- op loops

def run_cycle(runner, workload: str, tracer=None) -> list:
    out = []
    for op in CYCLES[workload]:
        if tracer is not None:
            tracer.op = runner.ops_run + 1
        out.append(runner.run(op))
    return out


def steps_rate(cycle) -> float:
    timed = [r for r in cycle if r.timed]
    return sum(r.steps for r in timed) / sum(r.wall_s for r in timed)


def op_walls(cycles) -> dict:
    """Median untraced wall per timed subcommand."""
    walls = {}
    for cycle in cycles:
        for r in cycle:
            if r.timed:
                walls.setdefault(r.command, []).append(r.wall_s)
    return {k: median(v) for k, v in walls.items()}


def measure(runner, workload: str, seconds: float, tracer=None,
            setup=None) -> dict:
    """Cycles back to back until the next would end past ``seconds``.

    ``setup`` is sampled SETUP_REPEATS times, spread evenly over the window
    so the samples see the same drift of the host as the cycles; its time
    is not part of the window.  It needs no tracer.  With a tracer, each
    round runs one untraced and one traced cycle, in alternating order, for
    the same reason; on a sweep workload an untraced sweep at the CLI's
    default thread count runs between the two, for
    harness.run_sweep.threads_speedup.  A traced measurement makes at least
    MIN_TRACED_ROUNDS rounds, so that ratio has as many samples on each
    side.  Without a tracer, the host reference kernel runs in a block after
    every cycle, for about REF_SHARE of the last cycle's time and
    REF_MIN_RUNS times at least, inside the window; each cycle's ``ref`` is
    the mean of the blocks around it (the first cycle has only the one
    after it).  A set-up sample is followed by a block of its own, outside
    the window, and paired the same way.
    """
    plain, traced, auto, setups, ref = [], [], [], [], []
    # made after the first cycle, like the first set-up sample, so that
    # peak_rss_mb sees the program's heap and not the kernel's
    host = before = None
    first = CYCLES[workload][0]
    sweep = first if first.command == "sweep" and runner.has_threads \
        else None
    rss_mb = None
    busy = 0.0
    rounds = 0

    def sample_setup():
        nonlocal before
        took = setup()
        after = host.block(REF_MIN_RUNS)
        setups.append((took, 0.5 * (before + after)))
        before = after

    while True:
        if setup is not None and len(setups) < SETUP_REPEATS \
                and busy > len(setups) * seconds / SETUP_REPEATS:
            sample_setup()
        t0 = time.perf_counter()
        if tracer is None:
            plain.append(run_cycle(runner, workload))
            if host is None:
                rss_mb = peak_rss_mb()
                host = HostReference()
            after = host.block(max(REF_MIN_RUNS, round(
                REF_SHARE * (time.perf_counter() - t0) / NOMINAL_S)))
            ref.append(after if before is None else 0.5 * (before + after))
            before = after
        else:
            order = ("plain", "auto", "traced")
            for kind in order if rounds % 2 == 0 else order[::-1]:
                if kind == "plain":
                    plain.append(run_cycle(runner, workload))
                elif kind == "auto":
                    if sweep is not None:
                        auto.append(runner.run(sweep, threads=0))
                else:
                    tracer.install()
                    try:
                        traced.append(run_cycle(runner, workload, tracer))
                    finally:
                        tracer.uninstall()
        if rss_mb is None:
            rss_mb = peak_rss_mb()
        rounds += 1
        last = time.perf_counter() - t0
        busy += last
        if busy + last > seconds and (tracer is None
                                      or rounds >= MIN_TRACED_ROUNDS):
            break
    while setup is not None and len(setups) < SETUP_REPEATS:
        sample_setup()
    return {"plain": plain, "traced": traced, "auto": auto,
            "setups": setups, "ref": ref, "rss_mb": rss_mb}


# --------------------------------------------------------------- metrics

def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def host_factor(ref: float) -> float:
    """How much slower than nominal the host ran, from the reference
    kernel's time ``ref`` around a sample (hostref.py)."""
    return (ref / NOMINAL_S) ** ELASTICITY


def end_to_end(runs) -> dict:
    # each sample at the host speed that runs the reference kernel in
    # NOMINAL_S; medians over the run's samples
    return {
        "setup_s": median([s / host_factor(r) for s, r in runs["setups"]]),
        "norm_steps_per_s": median([steps_rate(c) * host_factor(r)
                                    for c, r in zip(runs["plain"],
                                                    runs["ref"])]),
        # after the first cycle: later cycles add allocator growth that
        # depends on how many cycles fit in the window, not on the program
        "peak_rss_mb": runs["rss_mb"],
    }


_LAYERS = ("cli", "harness", "dynamics", "elliptic", "fields", "grid",
           "initial_data", "boundary_layer", "ratefit", "verify")


def per_layer(agg: dict, n_traced: int, plain, traced) -> dict:
    names = agg["names"]
    m = {}
    for name, s in names.items():
        ms = [1e3 * d for d in s["durations"]]
        m[name + ".calls"] = s["calls"] / n_traced
        m[name + ".self_s"] = s["self_s"] / n_traced
        m[name + ".ms_p50"] = median(ms)
        m[name + ".ms_tail"] = tail(ms)
    for layer in _LAYERS:
        m["layer.%s.self_s" % layer] = sum(
            s["self_s"] for n, s in names.items()
            if n.split(".")[0] == layer) / n_traced
    for layer in ("elliptic", "fields"):
        calls, nbytes = agg["fft"].get(layer, (0, 0))
        m[layer + ".fft.calls"] = calls / n_traced
        m[layer + ".fft.mb"] = nbytes / 1e6 / n_traced
    m["elliptic.factor.count"] = agg["factor_count"] / n_traced
    m["fields.write_snapshot.mb"] = agg["snapshot_mb"] / n_traced
    if agg["held"]:
        m["harness.snapshots_held"] = median([h[0] for h in agg["held"]])
        m["harness.snapshot_mb"] = median([h[1] for h in agg["held"]])
    m["trace.spans"] = len(agg["spans"]) / n_traced
    m["trace.overhead_s"] = (median([sum(r.wall_s for r in c) for c in traced])
                             - median([sum(r.wall_s for r in c)
                                       for c in plain]))
    walls = op_walls(plain)
    for key, command in (("op.sweep_s", "sweep"),
                         ("op.simulate_s", "simulate"),
                         ("op.audit_s", "energy-audit")):
        if command in walls:
            m[key] = walls[command]
    return m


# ------------------------------------------------------------------ main

def _spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def _select(metrics: dict, listed: list) -> dict:
    """The listed metrics with their units; an absent layer reads 0."""
    return {e["name"]: {"value": float(metrics.get(e["name"], 0.0)),
                        "unit": e["unit"]} for e in listed}


def run_workload(args) -> dict:
    from workloads import Runner
    from spans import Tracer

    out_dir = Path(args.out) if args.out else ROOT / ".perfbench_out"
    work = ROOT / ".perfbench_work" / ("%s-%d" % (args.workload, os.getpid()))
    out_dir.mkdir(parents=True, exist_ok=True)
    load_before = os.getloadavg()
    runner = Runner(str(work), args.seed)
    try:
        first = CYCLES[args.workload][0]
        tracer = Tracer() if args.trace else None
        runs = measure(runner, args.workload, args.seconds, tracer,
                       None if args.trace
                       else lambda: setup_once(runner, first))
        ops = [r for c in runs["plain"] + runs["traced"] for r in c]
        ops += runs["auto"]
        if args.trace:
            from micro import micro_metrics, run_micro
            agg = tracer.take()
            metrics = per_layer(agg, len(runs["traced"]), runs["plain"],
                                runs["traced"])
            if runs["auto"]:
                # ratio of medians: threads=1 sweeps over default-thread ones
                metrics["harness.run_sweep.threads_speedup"] = (
                    metrics["op.sweep_s"]
                    / median([r.wall_s for r in runs["auto"]]))
                metrics["harness.run_sweep.threads_speedup_n"] = len(
                    runs["auto"])
            metrics.update(micro_metrics(run_micro(str(work))))
        else:
            metrics = end_to_end(runs)
        probe = None
        if args.workload == "perturbed_sweep":
            probe = runner.run(PROBE)
            metrics["probe.failed"] = 0 if probe.ok else 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    spec = _spec()
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds,
        "correct": all(r.ok for r in ops), "attempted": len(ops),
        "failed": sum(not r.ok for r in ops),
        "metrics": _select(metrics, listed),
        "setup_samples": [s for s, _ in runs["setups"]],
        "setup_refs": [r for _, r in runs["setups"]],
        "op_walls": op_walls(runs["plain"]),
        "cycle_rates": [steps_rate(c) for c in runs["plain"]],
        "cycle_refs": runs["ref"],
        "cycles": {"plain": len(runs["plain"]),
                   "traced": len(runs["traced"])},
        "digests": sorted({"%s %s" % (r.command, r.digest) for r in ops}),
        "checks": sorted({"%s: %s" % (r.command, r.detail) for r in ops}),
        "probe": None if probe is None else {
            "exit_code": probe.exit_code, "kind": probe.failure_kind,
            "wall_s": probe.wall_s, "ok": probe.ok},
        "env": dict(environment(), load_before=load_before,
                    load_after=os.getloadavg()),
        "configs": runner.docs,
    }
    with open(out_dir / "results.jsonl", "a") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")
    if args.trace:
        path = out_dir / ("spans_%s_seed%d.jsonl" % (args.workload, args.seed))
        with open(path, "w") as fh:
            for rec in agg["spans"]:
                fh.write(json.dumps(rec) + "\n")
    return record


def report(record: dict) -> None:
    """The human-readable account; the JSON line follows it."""
    w = record["workload"]
    print("workload %s  seed %d  trace %d  cycles %s"
          % (w, record["seed"], record["trace"], record["cycles"]))
    for name, m in sorted(record["metrics"].items()):
        print("  %-48s %14.6g %s" % (name, m["value"], m["unit"]))
    if not record["trace"]:
        for command, wall in sorted(record["op_walls"].items()):
            key = {"energy-audit": "audit_s"}.get(command, command + "_s")
            print("  %-48s %14.6g s" % (key, wall))
        print("  %-48s %14.6g s" % ("setup_s (wall clock)",
                                   median(record["setup_samples"])))
        print("  %-48s %14.6g steps/s" % ("steps_per_s (wall clock)",
                                         median(record["cycle_rates"])))
        print("  %-48s %14.6g ms (nominal %g)"
              % ("host reference kernel", 1e3 * median(record["cycle_refs"]),
                 1e3 * NOMINAL_S))
    probe = record["probe"]
    failed = record["failed"] + (probe is not None and not probe["ok"])
    attempted = record["attempted"] + (probe is not None)
    print("  %-48s %14d count" % ("ops_attempted", attempted))
    print("  %-48s %14d count" % ("ops_failed", failed))
    if probe is not None:
        print("  probe (far-field defect, not in the JSON counts): exit %d %s"
              % (probe["exit_code"], probe["kind"] or "ok"))
    for line in record["checks"]:
        print("  check   " + line)
    for line in record["digests"]:
        print("  sha256  " + line)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=float(_spec()["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None,
                        help="directory for results.jsonl and span files")
    args = parser.parse_args(argv)
    if not (SRC / "diskflow" / "__init__.py").is_file():
        print("perfbench: no diskflow package under %s" % SRC,
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    record = run_workload(args)
    report(record)
    print(json.dumps({k: record[k] for k in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS stays per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in WORKLOADS:
        argv = [sys.executable, str(HERE / "run.py"), "--workload", w,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        if args.out:
            argv += ["--out", args.out]
        proc = subprocess.run(argv, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        res = json.loads(lines[-1])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for name, m in res["metrics"].items():
            combined["metrics"]["%s.%s" % (w, name)] = m
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
