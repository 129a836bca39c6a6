"""Compare two result sets of the benchmark.

    python3 perfbench/compare.py BASE CHANGE

BASE and CHANGE are ``results.jsonl`` files written by ``run.py`` (or the
directories holding them).  For every workload and end-to-end metric it
prints both sides' quartiles, the share of pairs the change won (runs are
paired by seed; ties count for neither side) and a verdict:

* better      the change wins at least 9 in 10 pairs and the medians differ
              by more than the base's own quartile distance;
* unresolved  the run-to-run spread of either side is wider than the
              metric's bound, unless every change run beats every base run;
* worse       the change's median is worse than the base's by more than
              the bound fixed in BENCHMARK.json;
* unchanged   otherwise.

Exit status 1 when any pairing is worse; 2 when the untraced runs of the
two sets do not all share one ``--seconds``, because a shorter window reads
different figures.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from stats import quartiles  # noqa: E402

WIN_SHARE = 0.9


def load(path: str) -> list:
    p = Path(path)
    if p.is_dir():
        p = p / "results.jsonl"
    with open(p) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def values(records, workload: str, metric: str) -> dict:
    """seed -> values of the untraced runs, in file order."""
    out = {}
    for r in records:
        if not r["trace"] and r["workload"] == workload \
                and metric in r["metrics"]:
            out.setdefault(r["seed"], []).append(r["metrics"][metric]["value"])
    return out


def pairs(base: dict, change: dict) -> list:
    out = []
    for seed in sorted(set(base) & set(change)):
        out.extend(zip(base[seed], change[seed]))
    return out


def verdict(b: list, c: list, paired: list, lower: bool, bound: float):
    def better(x, y):   # x better than y
        return x < y if lower else x > y

    b1, bm, b3 = quartiles(b)
    c1, cm, c3 = quartiles(c)
    wins = sum(better(y, x) for x, y in paired)
    share = wins / len(paired) if paired else 0.0
    worse_by = (cm - bm) / bm if lower else (bm - cm) / bm
    spread = max((b3 - b1) / bm, (c3 - c1) / cm)
    if share >= WIN_SHARE and better(cm, bm) and abs(cm - bm) > b3 - b1:
        v = "better"
    elif spread > bound and not all(better(y, x) for x in b for y in c):
        v = "unresolved"
    elif worse_by > bound:
        v = "worse"
    else:
        v = "unchanged"
    return (b1, bm, b3), (c1, cm, c3), share, -worse_by, v


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, change = load(argv[0]), load(argv[1])
    lengths = sorted({r["seconds"] for r in base + change if not r["trace"]})
    if len(lengths) > 1:
        print("compare: the result sets mix run lengths %s s; compare runs "
              "made with one --seconds" % lengths, file=sys.stderr)
        return 2
    with open(HERE.parent / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    worse = 0
    print("%-16s %-12s %-29s %-29s %6s %8s  %s" % (
        "workload", "metric", "base q1/median/q3", "change q1/median/q3",
        "won", "gain", "verdict"))
    for w in (x["name"] for x in spec["workloads"]):
        for m in spec["end_to_end"]:
            vb = values(base, w, m["name"])
            vc = values(change, w, m["name"])
            if not vb or not vc:
                continue
            b = [x for xs in vb.values() for x in xs]
            c = [x for xs in vc.values() for x in xs]
            qb, qc, share, gain, v = verdict(
                b, c, pairs(vb, vc), m["better"] == "lower", m["bound"])
            worse += v == "worse"
            print("%-16s %-12s %9.4g/%9.4g/%9.4g %9.4g/%9.4g/%9.4g %5.0f%% "
                  "%+7.1f%%  %s  (n=%d/%d, bound %g)" % (
                      w, m["name"], *qb, *qc, 100 * share, 100 * gain, v,
                      len(b), len(c), m["bound"]))
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
