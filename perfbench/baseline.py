"""Run every workload over several seeds and record the medians and spreads.

    python3 perfbench/baseline.py --seeds 1-10 [--workloads desk-train,score-nmr] [--trace-seed 1]

Run from the root of a checkout. Each run is one ``run.py`` process at the
``run_seconds`` of ``BENCHMARK.json``, one after another. For each
end-to-end metric the record holds the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread, the
distance between the quartiles as a share of the median, which is the
figure each metric's ``bound`` is checked against. With ``--trace-seed``
one traced run per workload adds its per-layer metrics. Writes
``perfbench/baseline.json`` (or ``--out``) and prints a summary table.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(lines[-2]), json.loads(lines[-1])


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "values": values}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--workloads", default=None, help="comma-separated; default: all")
    p.add_argument("--trace-seed", type=int, default=None)
    p.add_argument("--out", default=str(BENCH_DIR / "baseline.json"))
    args = p.parse_args(argv)

    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = seed_list(args.seeds)
    record = {"run_seconds": spec["run_seconds"], "seeds": seeds, "workloads": {}}
    for name in names:
        values: dict[str, list[float]] = {}
        env = None
        for seed in seeds:
            detail, result = run_once(name, seed, spec["run_seconds"], 0)
            env = env or {k: v for k, v in detail["environment"].items() if k != "seed"}
            for metric, m in result["metrics"].items():
                values.setdefault(metric, []).append(m["value"])
            print(f"{name} seed {seed}: " + ", ".join(
                f"{k} {m['value']:.4g}" for k, m in result["metrics"].items()), flush=True)
        entry = {"environment": env,
                 "end_to_end": {k: spread(v) for k, v in values.items()}}
        if args.trace_seed is not None:
            _, traced = run_once(name, args.trace_seed, spec["run_seconds"], 1)
            entry["per_layer"] = {k: m["value"] for k, m in traced["metrics"].items()}
        record["workloads"][name] = entry
        for k, s in entry["end_to_end"].items():
            print(f"  {name} {k}: median {s['median']:.4g} spread {s['spread']:.3f}"
                  f" (bound {bounds.get(k)})", flush=True)
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
