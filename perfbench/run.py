"""Pipeline benchmark for nomadlite.

    python3 perfbench/run.py --workload desk-train --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from its ``src/``.
One process runs one workload as a single client in a closed loop
(``--jobs 1``, one BLAS thread). It sets the workload up several times from
the seed (``setup_s`` is the median), then repeats the workload's timed
phase while one more phase fits in ``--seconds`` (at least once), checking
the outputs of every phase.

With ``--trace 0`` every phase is untraced and the result carries the
end-to-end metrics. With ``--trace 1`` untraced and traced phases alternate:
the traced ones give the per-layer metrics, and the ratio of the two
medians gives ``trace.overhead_fraction``.

Standard output ends with two lines: a detail record (environment, every
named stage measurement with its unit and sample count, the checks and the
output digests), then the result object with ``correct``, ``attempted``,
``failed`` and ``metrics``. Both records, and the spans of a traced run, are
also written under ``.perfbench_out/``. Any failed check makes the exit code 1.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

BLAS_THREADS = 1   # single client; must not exceed the CPU count
MIN_SETUPS, SETUP_SECONDS, MAX_SETUPS = 3, 3.0, 15
BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"

E2E_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
DETAIL_UNITS = {
    "synth_clips_per_s": "1/s", "train_triplets_per_s": "1/s", "val_triplets_per_s": "1/s",
    "score_clips_per_s": "1/s", "pool_build_ms": "ms",
}
LATENCY_NAMES = {"score_clip": "score_clip_ms", "fr_clip": "fr_clip_ms",
                 "feature_loss": "feature_loss_ms"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def tree_digest(directory: Path) -> str:
    """SHA-256 over the Python files under ``directory``: identifies the code
    where no git metadata is available."""
    h = hashlib.sha256()
    for path in sorted(directory.rglob("*.py")):
        h.update(str(path.relative_to(directory)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_revision(root: Path) -> str:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = root / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def openblas_threads():
    """Thread count OpenBLAS reports, or None where it cannot be queried."""
    import ctypes
    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment(seed: int, root: Path) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        from nomadlite import _accel
        use_numba = _accel.USE_NUMBA
    except ImportError:
        use_numba = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads_set": BLAS_THREADS,
        "blas_threads_reported": openblas_threads(),
        "use_numba": use_numba,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "git_revision": git_revision(root),
        "source_sha256": tree_digest(SRC_DIR),
        "benchmark_sha256": tree_digest(BENCH_DIR),
        "seed": seed,
    }


def check_digests(store: Path, key: str, digests: dict) -> tuple:
    """Compare this run's output digests with an earlier run of the same
    code, workload and seed, then record them."""
    known = json.loads(store.read_text()) if store.is_file() else {}
    earlier = known.get(key)
    ok = earlier is None or earlier == digests
    known[key] = digests
    tmp = store.with_suffix(".tmp")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
    os.replace(tmp, store)
    detail = "first run of this code and seed" if earlier is None else f"earlier: {earlier}"
    return ("output digests agree with earlier runs of this code", ok, detail)


def measure(workload, seed: int, seconds: float, trace: bool) -> dict:
    import layers
    from tracing import Tracer

    # cheap setups repeat until SETUP_SECONDS have passed, so that their
    # median is not one scheduler hiccup
    setup_s = []
    while len(setup_s) < MIN_SETUPS or (sum(setup_s) < SETUP_SECONDS and len(setup_s) < MAX_SETUPS):
        t = perf_counter()
        workload.setup(seed)
        setup_s.append(perf_counter() - t)

    plain, traced, checks, digests = [], [], [], []
    start = perf_counter()
    i = 0
    while True:
        tracer = Tracer() if trace and i % 2 == 1 else None
        if tracer is not None:
            layers.instrument(tracer)
        try:
            phase = workload.run()
        finally:
            if tracer is not None:
                tracer.restore()
        found, dig = workload.check(phase)
        checks += found
        digests.append(dig)
        (traced if tracer is not None else plain).append((phase, tracer))
        phase.state.clear()
        i += 1
        # start another phase only if one more of average length still ends
        # within the budget; a traced run needs an untraced and a traced phase
        elapsed = perf_counter() - start
        if elapsed + elapsed / i > seconds and (not trace or i >= 2):
            break
    checks.append(("output digests agree across phases", all(d == digests[0] for d in digests),
                   f"{len(digests)} phases"))
    return {"setup_s": setup_s, "plain": plain, "traced": traced, "checks": checks,
            "digests": digests[0]}


def summarize(workload, run: dict, trace: bool) -> tuple[dict, dict]:
    """Return (metrics for the result line, detail measurements)."""
    import layers
    from tracing import latency_summary

    plain = [p for p, _ in run["plain"]]
    detail = {
        "setup_s": {"value": statistics.median(run["setup_s"]), "unit": "s",
                    "n": len(run["setup_s"])},
        # each stage at its fastest in the run; the stages tile the phase
        "wall_s": {"value": sum(min(p.stages[k] for p in plain) for k in plain[0].stages),
                   "unit": "s", "n": len(plain)},
        "wall_s_median": {"value": statistics.median(p.wall_s for p in plain), "unit": "s",
                          "n": len(plain)},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "unit": "MB"},
    }
    for name in plain[0].stages:
        detail[f"stage.{name}_s"] = {"value": statistics.median(p.stages[name] for p in plain),
                                     "unit": "s", "n": len(plain)}
    for name in plain[0].rates:
        detail[name] = {"value": statistics.median(p.rates[name] for p in plain),
                        "unit": DETAIL_UNITS[name], "n": len(plain)}
    for key, name in LATENCY_NAMES.items():
        pooled = [x for p in plain for x in p.latencies.get(key, ())]
        if pooled:
            s = latency_summary(pooled)
            detail[f"{name}_p50"] = {"value": s["ms_p50"], "unit": "ms", "n": s["n"]}
            if key == "score_clip":
                detail[f"{name}_p90"] = {"value": s["ms_p90"], "unit": "ms", "n": s["n"],
                                         "p90_has_10_beyond": s["p90_has_10_beyond"]}

    if not trace:
        return {k: {"value": detail[k]["value"], "unit": u} for k, u in E2E_UNITS.items()}, detail

    per_phase = [layers.layer_metrics(t, p.rows_skipped) for p, t in run["traced"]]
    metrics = {}
    units = {name: unit for name, unit, _, _ in layers.METRICS}
    for name in per_phase[0]:
        metrics[name] = {"value": statistics.median(m[name] for m in per_phase),
                         "unit": units[name]}
    traced_wall = statistics.median(p.wall_s for p, _ in run["traced"])
    plain_wall = statistics.median(p.wall_s for p in plain)
    metrics["trace.overhead_fraction"] = {"value": traced_wall / plain_wall - 1.0, "unit": "ratio"}
    missing = sorted({name for _, t in run["traced"] for name in workload.expected_spans
                      if not t.named(name)})
    metrics["trace.missing_spans"] = {"value": len(missing), "unit": "count"}
    detail["missing_spans"] = missing
    detail["traced_wall_s"] = {"value": traced_wall, "unit": "s", "n": len(run["traced"])}
    return metrics, detail


def tally(checks) -> list[dict]:
    """One entry per check name: how often it passed and failed, with the
    detail of its first failure (or of its first run)."""
    out: dict[str, dict] = {}
    for name, ok, detail in checks:
        t = out.setdefault(name, {"name": name, "passed": 0, "failed": 0, "detail": detail})
        if not ok:
            if not t["failed"]:
                t["detail"] = detail
            t["failed"] += 1
        else:
            t["passed"] += 1
    return list(out.values())


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path[:0] = [str(SRC_DIR), str(BENCH_DIR)]
    try:
        import nomadlite
    except ImportError as e:
        print(f"perfbench: cannot import nomadlite from {SRC_DIR}: {e}", file=sys.stderr)
        return 2
    if Path(nomadlite.__file__).resolve().parent != SRC_DIR / "nomadlite":
        print(f"perfbench: nomadlite imported from {nomadlite.__file__}, not {SRC_DIR}",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2

    root = Path.cwd()
    out_dir = root / ".perfbench_out"
    work = root / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    workload = WORKLOADS[args.workload]()
    out_dir.mkdir(exist_ok=True)
    work.mkdir(parents=True)
    try:
        os.chdir(work)
        run = measure(workload, args.seed, args.seconds, bool(args.trace))
    finally:
        os.chdir(root)
        shutil.rmtree(work, ignore_errors=True)
        if not any(work.parent.iterdir()):
            work.parent.rmdir()

    env = environment(args.seed, root)
    key = f"{env['source_sha256']}:{env['benchmark_sha256']}:{args.workload}:{args.seed}"
    run["checks"].append(check_digests(out_dir / "digests.json", key, run["digests"]))
    metrics, detail = summarize(workload, run, bool(args.trace))

    phases = [p for p, _ in run["plain"] + run["traced"]]
    failed_checks = [c for c in run["checks"] if not c[1]]
    attempted = sum(p.attempted for p in phases) + len(run["checks"])
    failed = sum(p.failed for p in phases) + len(failed_checks)
    detail["failed_fraction"] = {"value": failed / attempted, "unit": "ratio", "n": attempted}
    record = {
        "workload": args.workload, "trace": args.trace, "seconds": args.seconds,
        "environment": env, "stages": detail,
        "checks": tally(run["checks"]),
        "digests": run["digests"],
    }
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out_dir / f"{stem}.json").write_text(json.dumps({"detail": record, "result": result}, indent=1))
    if args.trace:
        (out_dir / f"spans-{args.workload}-seed{args.seed}.json").write_text(json.dumps(
            [t.dump() for _, t in run["traced"]]))
    for name, ok, d in run["checks"]:
        if not ok:
            print(f"perfbench: check failed: {name}: {d}", file=sys.stderr)
    print(json.dumps(record))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
