"""Run the benchmark over several seeds and report each metric's median and
quartile spread (IQR / median), one workload after another:

    python3 perfbench/spread.py --seeds 1-10 [--workload NAME ...] [--trace 1] [--out FILE]

Spreads of end-to-end metrics are flagged when they reach a third of their
bound in BENCHMARK.json.  ``--out`` writes the per-run results with the
summary, e.g. as a baseline.  Runs are sequential; each one's process is
waited for.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    meta = next(json.loads(l[5:]) for l in lines if l.startswith("meta "))
    return {"meta": meta, **json.loads(lines[-1])}


def summarize(runs: list[dict]) -> dict:
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        out[name] = {
            "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None,
            "unit": runs[0]["metrics"][name]["unit"],
        }
    return out


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workload", action="append")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out")
    args = ap.parse_args()
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {}
    for wl in workloads:
        runs = [run_once(wl, s, spec["run_seconds"], args.trace)
                for s in seed_range(args.seeds)]
        summary = summarize(runs)
        report[wl] = {"summary": summary, "runs": runs}
        for name, s in summary.items():
            bound = bounds.get(name)
            line = f"{wl:20s} {name:24s} median {s['median']:.6g} {s['unit']:5s}"
            if s["spread"] is not None:
                line += f" spread {s['spread']:.4f}"
            if bound is not None:
                line += f" (bound {bound})"
                if s["spread"] >= bound / 3:
                    line += "  <-- spread >= bound/3"
            print(line, flush=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
