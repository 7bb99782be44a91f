"""Benchmark harness for slotmac.

    python3 perfbench/run.py --workload tournament --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 0

Runs from the root of a source checkout and imports ``slotmac`` from its
``src/`` directory, never from an installed copy; without that directory it
exits non-zero and prints no result.  Scratch files go under
``.bench_build/perfbench`` in the checkout.

``--trace 0`` reports the end-to-end metrics named in ``BENCHMARK.json``:
set-up time (median of fresh interpreters that import the package and load
the workload's inputs), median wall and CPU time of a pass, and the peak RSS
of this process.  ``--trace 1`` alternates untraced passes with passes whose
layer boundaries are wrapped by ``spans.Tracer`` and reports the per-layer
metrics (medians over traced passes); a layer a workload does not exercise
reads 0.  Every pass's outputs are checked; the last line of standard output
is ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import os

# numpy's BLAS pool would add threads nothing here uses
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"
SETUP_REPEATS = 7
WORKLOAD_NAMES = ("tournament", "capture", "exact")


def import_program():
    """Import slotmac from this checkout's src/, or exit non-zero."""
    if not (SRC / "slotmac" / "__init__.py").is_file():
        sys.exit(f"perfbench: no slotmac sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import slotmac

    if Path(slotmac.__file__).resolve().parent != SRC / "slotmac":
        sys.exit(f"perfbench: imported slotmac from {slotmac.__file__}, not {SRC}")
    return slotmac


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def host_record() -> dict:
    import numpy as np

    model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            model = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), model)
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / n).read_text().strip() for n in ("level", "type", "size"))
        except OSError:
            continue
        caches[f"L{level}-{kind.lower()}"] = size
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
    }


def measure_setup(workload) -> list[float]:
    """Seconds to import the package and load the workload's inputs, each in
    a fresh interpreter (interpreter start-up itself is not counted)."""
    code = (
        "import sys, time\n"
        "t0 = time.perf_counter()\n"
        f"sys.path.insert(0, {str(SRC)!r})\n"
        + workload.setup_code
        + "import slotmac\n"
        f"if not slotmac.__file__.startswith({str(SRC)!r}): sys.exit('wrong slotmac')\n"
        "print(time.perf_counter() - t0)\n"
    )
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                              text=True, timeout=120, check=True)
        times.append(float(done.stdout.split()[-1]))
    return times


def run_workload(name: str, seed: int, seconds: float, trace: bool, size: str = "full", bias: float = 0.0):
    """Run one workload for ``seconds`` and return (result line, record)."""
    import spans
    import workloads

    spec = load_spec()
    checks = workloads.Checks(bias=bias)
    workload = workloads.WORKLOADS[name](WORK, seed, workloads.SIZES[size][name])
    setup = [] if trace else measure_setup(workload)
    workload.prepare(checks)

    untraced, traced = [], []
    start = time.perf_counter()
    iteration_s = []
    k = 0
    while True:
        t0 = time.perf_counter()
        for tracer in ((None, spans.Tracer()) if trace else (None,)):
            done = workload.run_pass(k, tracer)
            workload.check(done, checks)
            shutil.rmtree(WORK / name, ignore_errors=True)
            (traced if tracer else untraced).append((done, tracer))
            k += 1
        iteration_s.append(time.perf_counter() - t0)
        if time.perf_counter() + statistics.median(iteration_s) > start + seconds:
            break

    walls = [r.wall_s for r, _ in untraced]
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace), "size": size,
        "host": host_record(),
        "passes": len(untraced), "traced_passes": len(traced),
        "pass_wall_s": walls, "pass_cpu_s": [r.cpu_s for r, _ in untraced],
        "pass_steps_s": [r.steps for r, _ in untraced],
        "setup_s": setup,
        "oracle_max_z": checks.max_z,
        "failures": checks.failures[:50],
    }
    if trace:
        values, breakdown = layer_values(workload, traced, [r for r, _ in untraced])
        record["layers"] = breakdown
        wanted = spec["per_layer"]
    else:
        values = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(walls),
            "cpu_s": statistics.median(r.cpu_s for r, _ in untraced),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]} for m in wanted}
    record["metrics"] = metrics
    record["measured"] = sorted(values)
    result = {"correct": checks.failed == 0, "attempted": checks.attempted,
              "failed": checks.failed, "metrics": metrics}
    return result, record


def layer_values(workload, traced, untraced) -> tuple[dict, dict]:
    """Per-layer metrics, each the (low) median over traced passes, and the
    accounting of the traced pass time by layer self time."""
    per_pass, breakdowns = [], []
    for record, tracer in traced:
        values = workload.layer_metrics(tracer, record, untraced)
        layers = tracer.layer_self_times()
        remainder = layers.pop("bench", 0.0)
        busy = sum(layers.values())
        values["trace.remainder_s"] = remainder
        per_pass.append(values)
        # with two worker threads, layer self times are thread-seconds and
        # can add up to more than the pass wall time; parallel_s is the excess
        breakdowns.append({"wall_s": record.wall_s, "layer_self_s": layers, "remainder_s": remainder,
                           "parallel_s": busy + remainder - record.wall_s})
    # median_low: a count stays a count that was observed
    values = {key: statistics.median_low(v[key] for v in per_pass) for key in per_pass[0]}
    values["trace.overhead_s"] = (statistics.median(r.wall_s for r, _ in traced)
                                  - statistics.median(r.wall_s for r in untraced))
    return values, {"passes": breakdowns}


def print_metrics(metrics: dict) -> None:
    for name, v in metrics.items():
        print(f"  {name:36s} {v['value']:14.6g} {v['unit']}")


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in its own process, so peak RSS is per workload."""
    totals = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            cwd=ROOT, capture_output=True, text=True, timeout=900,
        )
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            return done.returncode
        result = json.loads(done.stdout.strip().splitlines()[-1])
        totals["correct"] &= result["correct"]
        totals["attempted"] += result["attempted"]
        totals["failed"] += result["failed"]
        print(f"{name}: error_rate {result['failed'] / result['attempted']:.4g} "
              f"({result['failed']} of {result['attempted']} checks failed)")
        print_metrics(result["metrics"])
        totals["metrics"].update({f"{name}.{m}": v for m, v in result["metrics"].items()})
    print(json.dumps(totals))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("need --seed >= 0 and --seconds > 0")
    import_program()
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    result, record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str) + "\n", encoding="utf-8")
    print(f"{args.workload}: {record['passes']} passes, error_rate "
          f"{result['failed'] / result['attempted']:.4g}, oracle_max_z {record['oracle_max_z']:.3f}")
    print_metrics(result["metrics"])
    for p in record.get("layers", {}).get("passes", []):
        layers = ", ".join(f"{k} {v:.3f}" for k, v in sorted(p["layer_self_s"].items(), key=lambda kv: -kv[1]))
        print(f"  traced pass {p['wall_s']:.3f} s = layer self times ({layers}) "
              f"+ remainder {p['remainder_s']:.4f} - parallel {p['parallel_s']:.3f}")
    print(json.dumps({"host": record["host"], "seed": args.seed, "passes": record["passes"]}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
