#!/usr/bin/env python3
"""Measure two or more commits with perfbench/run.py in one session and
write one BENCH_<label>.json per commit:

    python3 scripts/bench_trajectory.py --pairs 10 --seconds 20 --seed 9601 15=71d5924 16=HEAD

Each commit is unpacked from ``git archive`` into a temporary directory, so
neither the work tree nor ``.git`` is written.  Pair i runs every workload
once on every commit, all with seed ``--seed + i``, one process at a time;
the commits take turns going first, so that drift of the host falls on all
of them alike.  For each workload and end-to-end metric a file holds every
run's value, their median and quartiles, and the number of pairs in which
the commit read strictly best of all the commits (a tie is a win for none).
The files of one invocation share a ``session`` id: only files with the same
session were measured side by side, so only they can be compared.  Each file
also records ``src_tree``, the hash of the commit's ``src/`` tree, so that a
file measured on one commit can be tied to another commit with the same
library code (a scratch commit and the one merged from it).
"""
from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
import uuid

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def resolve(repo: str, rev: str) -> str:
    """The full SHA of the object ``rev`` names in ``repo``: a commit as
    ``<rev>^{commit}``, a tree as ``<commit>:<path>``."""
    return subprocess.run(
        ["git", "-C", repo, "rev-parse", "--verify", rev],
        check=True, capture_output=True, text=True).stdout.strip()


def unpack(repo: str, sha: str, dest: str) -> None:
    tar = subprocess.run(["git", "-C", repo, "archive", "--format=tar", sha],
                         check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as fh:
        fh.extractall(dest)


def run_once(tree: str, workload: str, seed: int, seconds: float) -> dict:
    """The last line of one ``perfbench/run.py`` run in ``tree``."""
    cmd = [sys.executable, os.path.join(tree, "perfbench", "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True,
                          timeout=300 + 10 * seconds)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def summarize(runs: dict, better: dict) -> dict:
    """label -> workload -> verdicts and per-metric summary, from ``runs``:
    label -> workload -> the run results of each pair, in pair order."""
    labels = list(runs)
    out = {label: {} for label in labels}
    for wl in runs[labels[0]]:
        for label in labels:
            results = runs[label][wl]
            out[label][wl] = {
                "correct": all(r["correct"] is True for r in results),
                "attempted": sum(r["attempted"] for r in results),
                "failed": sum(r["failed"] for r in results),
                "metrics": {},
            }
        for name, sign in better.items():
            # sign * value is larger for the better reading
            values = {label: [r["metrics"][name]["value"] for r in runs[label][wl]]
                      for label in labels}
            for label in labels:
                wins = sum(
                    all(sign * v > sign * values[other][i]
                        for other in labels if other != label)
                    for i, v in enumerate(values[label]))
                q1, med, q3 = quartiles(values[label])
                out[label][wl]["metrics"][name] = {
                    "unit": runs[label][wl][0]["metrics"][name]["unit"],
                    "better": "higher" if sign > 0 else "lower",
                    "median": med, "q1": q1, "q3": q3, "wins": wins,
                    "runs": values[label],
                }
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("commits", nargs="+", metavar="LABEL=REV")
    ap.add_argument("--repo", default=ROOT)
    ap.add_argument("--out", default=ROOT, help="directory of the BENCH_*.json files")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, required=True, help="seed of the first pair")
    ap.add_argument("--seconds", type=float, default=None,
                    help="run length (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--workload", action="append", help="default: every workload")
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    better = {m["name"]: 1 if m["better"] == "higher" else -1 for m in spec["end_to_end"]}
    if any("=" not in c for c in args.commits):
        ap.error("commits are given as LABEL=REV")
    commits = dict(c.split("=", 1) for c in args.commits)
    if len(commits) < 2 or len(commits) < len(args.commits):
        ap.error("give two or more commits with distinct labels")
    shas = {label: resolve(args.repo, f"{rev}^{{commit}}") for label, rev in commits.items()}
    session = f"{time.strftime('%Y%m%dT%H%M%SZ', time.gmtime())}-{uuid.uuid4().hex[:8]}"
    labels = list(shas)
    seeds = [args.seed + i for i in range(args.pairs)]
    runs = {label: {wl: [] for wl in workloads} for label in labels}
    with tempfile.TemporaryDirectory(prefix="bench-trajectory-") as tmp:
        trees = {}
        for label, sha in shas.items():
            trees[label] = os.path.join(tmp, label)
            unpack(args.repo, sha, trees[label])
        for i, seed in enumerate(seeds):
            turn = labels[i % len(labels):] + labels[:i % len(labels)]
            for wl in workloads:
                for label in turn:
                    res = run_once(trees[label], wl, seed, seconds)
                    runs[label][wl].append(res)
                    print(f"pair {i + 1}/{len(seeds)} {wl} {label}: "
                          + " ".join(f"{k}={res['metrics'][k]['value']:.6g}" for k in better)
                          + f" failed={res['failed']}", flush=True)
    summary = summarize(runs, better)
    os.makedirs(args.out, exist_ok=True)
    for label in labels:
        doc = {
            "label": label, "sha": shas[label], "session": session,
            "src_tree": resolve(args.repo, f"{shas[label]}:src"),
            "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
            "machine": platform.machine(), "seconds": seconds, "seeds": seeds,
            "against": [other for other in labels if other != label],
            "workloads": summary[label],
        }
        with open(os.path.join(args.out, f"BENCH_{label}.json"), "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0 if all(w["correct"] for s in summary.values() for w in s.values()) else 1


if __name__ == "__main__":
    raise SystemExit(main())
