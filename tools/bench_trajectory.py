"""Run every benchmark workload over several seeds and write BENCH_<n>.json.

    python3 tools/bench_trajectory.py --n 6 --seeds 1,2,3,4,5

Run from anywhere; the file lands at the repository root.  Each (seed,
workload) pair is one ``perfbench/run.py --trace 0 --seconds 15`` process
followed by one ``--trace 1`` process of the same length, run one after
another, seed by seed; every file uses the same run length, so files stay
comparable.  The file holds, per workload, the median of every end-to-end
metric over the untraced runs, the median number of queries those runs
attempted (the runner keeps some state per query, so ``peak_rss_mb`` is read
against it), the seeds and whether every run was correct, and ``layers``,
the medians over the traced runs of each target's share of the summed
``self_s``, of ``polycore.poly_mul.pairs``, of those pairs per query (a
faster engine runs more queries, so the run total alone can rise as the work
per query falls) and of ``trace_overhead_frac``, so a change can show which
layer it moved.  ``meta`` holds the Python version, nproc, commit and
``src/`` line count, taken from the runs' own metadata lines, which must all
agree.  Successive files form the benchmark trajectory of the repository.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
META_KEYS = ("python", "nproc", "commit", "src_lines")
SECONDS = 15  # query seconds per run
LAYER_KEYS = ("polycore.poly_mul.pairs", "trace_overhead_frac")


def parse_run(stdout: str) -> tuple[dict, dict]:
    """(meta, result) from the last two stdout lines of one ``perfbench/run.py``."""
    lines = stdout.strip().splitlines()
    if len(lines) < 2:
        raise ValueError("a run printed no metadata and result lines")
    return json.loads(lines[-2])["meta"], json.loads(lines[-1])


def self_s_shares(result: dict) -> dict[str, float]:
    """Each target's share of the summed ``self_s`` of one traced run."""
    self_s = {name.removesuffix(".self_s"): entry["value"]
              for name, entry in result["metrics"].items() if name.endswith(".self_s")}
    total = sum(self_s.values())
    return {target: value / total if total else 0.0 for target, value in self_s.items()}


def layers(traced: list[dict]) -> dict:
    """Per-layer medians over the traced runs of one workload."""
    shares = [self_s_shares(result) for result in traced]
    return {
        "self_s_share": {target: statistics.median(share[target] for share in shares) for target in shares[0]},
        **{key: statistics.median(result["metrics"][key]["value"] for result in traced) for key in LAYER_KEYS},
        "polycore.poly_mul.pairs_per_query": statistics.median(
            result["metrics"]["polycore.poly_mul.pairs"]["value"] / result["attempted"] for result in traced),
    }


def assemble(runs: dict[str, list[tuple[dict, dict]]], traced: dict[str, list[tuple[dict, dict]]]) -> dict:
    """The BENCH document from the parsed untraced and traced runs of each workload."""
    everything = [pair for pairs in (*runs.values(), *traced.values()) for pair in pairs]
    metas = {tuple(meta[k] for k in META_KEYS) for meta, _ in everything}
    if len(metas) != 1:
        raise ValueError(f"runs disagree on {', '.join(META_KEYS)}: {sorted(metas, key=str)}")
    workloads = {}
    for name, pairs in runs.items():
        results = [result for _, result in pairs]
        traced_results = [result for _, result in traced[name]]
        workloads[name] = {
            "seeds": [meta["seed"] for meta, _ in pairs],
            "attempted": statistics.median(result["attempted"] for result in results),
            "correct": all(result["correct"] for result in results + traced_results),
            "layers": layers(traced_results),
            "metrics": {
                metric: {
                    "median": statistics.median(result["metrics"][metric]["value"] for result in results),
                    "unit": entry["unit"],
                }
                for metric, entry in results[0]["metrics"].items()
            },
        }
    return {"meta": dict(zip(META_KEYS, metas.pop())), "workloads": workloads}


def run_one(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(SECONDS),
            "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv[1:])} exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    return parse_run(proc.stdout)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--n", type=int, required=True, help="number in the file name BENCH_<n>.json")
    p.add_argument("--seeds", required=True, help="comma-separated seeds, e.g. 1,2,3")
    args = p.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    names = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    runs: dict[str, list[tuple[dict, dict]]] = {name: [] for name in names}
    traced: dict[str, list[tuple[dict, dict]]] = {name: [] for name in names}
    for seed in seeds:
        for name in names:
            runs[name].append(run_one(name, seed, 0))
            traced[name].append(run_one(name, seed, 1))
            print(f"{name} seed {seed} done", file=sys.stderr)
    out = ROOT / f"BENCH_{args.n}.json"
    out.write_text(json.dumps(assemble(runs, traced), indent=2, sort_keys=True) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
