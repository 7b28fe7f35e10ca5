"""Corpus-check benchmark for vexspaces.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each run starts fresh worker processes
(see worker.py) with BLAS and OpenMP pinned to one thread, so set-up time
includes the imports and peak RSS belongs to one workload.

--trace 0 times set-up in SETUPS processes and reports in one more, untraced,
and prints the end-to-end metrics.  Times are reported at the reference
speed: each is divided by the host's slowness measured next to it (see
hostspeed.py), since a shared host changes speed for minutes at a time.
--trace 1 runs one traced process and prints the per-layer metrics.
Human-readable lines come first; the last line is one JSON object.  The
exit code is 0 only when every report's output checks passed.
"""

import argparse
import json
import os
import selectors
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from worker import layer_metric_units  # noqa: E402

WORKLOADS = ("besov_1d", "triebel_2d", "cli_reports")
SETUPS = 5  # set-up is timed in this many processes; the median is reported
RUN_LIMIT_S = 170.0  # every worker must have ended by then
END_TO_END_UNITS = {
    "signals_per_s": "1/s",
    "report_s.p50": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    pass


def run_worker(phase, args, deadline):
    """Start a worker; return (seconds from spawn to `ready`, its result)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p
    )
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    argv = [sys.executable, os.path.join(HERE, "worker.py"), phase,
            args.workload, str(args.seed), str(args.seconds)]
    start = perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        with selectors.DefaultSelector() as sel:
            sel.register(proc.stdout, selectors.EVENT_READ)
            if not sel.select(max(0.0, deadline - perf_counter())):
                raise BenchError(f"{phase} worker did not finish set-up in time")
        line = proc.stdout.readline()
        setup_s = perf_counter() - start
        if line.strip() != "ready":
            proc.wait(max(0.0, deadline - perf_counter()))
            raise BenchError(f"{phase} worker failed during set-up")
        out, _ = proc.communicate(timeout=max(0.0, deadline - perf_counter()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{phase} worker ran past the time limit") from None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"{phase} worker exited with code {proc.returncode}")
    lines = out.strip().splitlines()
    return setup_s, json.loads(lines[-1]) if lines else {}


def _declared(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def end_to_end(args, deadline):
    # set-up times at the reference speed, as the report times below
    raw, setups = [], []
    for phase in ["setup"] * (SETUPS - 1) + ["measure"]:
        seconds, result = run_worker(phase, args, deadline)
        raw.append(seconds)
        setups.append(seconds / result["slowness"])
    # A report's time at the reference speed: its wall time over the
    # host's slowness around it (hostspeed.py).  Medians per report kind,
    # since the kinds of a workload differ in size.
    scaled, signals = {}, {}
    for r in result["reports"]:
        scaled.setdefault(r["kind"], []).append(r["seconds"] / r["slowness"])
        signals[r["kind"]] = r["signals"]
    per_kind = {k: statistics.median(v) for k, v in scaled.items()}
    values = {
        "signals_per_s": sum(signals.values()) / sum(per_kind.values()),
        "report_s.p50": statistics.median(per_kind.values()),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": result["maxrss_kb"] / 1024.0,
    }
    slowness = [r["slowness"] for r in result["reports"]]
    print(f"report_s.p50 per kind over {len(slowness) // len(per_kind)} rounds: "
          + ", ".join(f"{k} {v:.4f}" for k, v in per_kind.items())
          + f"; host slowness median {statistics.median(slowness):.3f}, "
          f"range [{min(slowness):.3f}, {max(slowness):.3f}]")
    print(f"setup_s over {len(setups)} processes: "
          f"median {statistics.median(setups):.4f} at the reference speed, "
          f"{statistics.median(raw):.4f} s as measured")
    return result, values, END_TO_END_UNITS, "end_to_end", []


def per_layer(args, deadline):
    _, result = run_worker("trace", args, deadline)
    for note in result["notes"]:
        print(note)
    errors = result["trace_errors"]
    return result, result["layer_metrics"], layer_metric_units(), "per_layer", errors


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(ROOT, "src", "vexspaces", "__init__.py")):
        print(f"error: no vexspaces sources under {ROOT}/src", file=sys.stderr)
        return 2

    deadline = perf_counter() + RUN_LIMIT_S
    try:
        measure = per_layer if args.trace else end_to_end
        result, values, units, kind, errors = measure(args, deadline)
        if {k: units[k] for k in values} != _declared(kind):
            raise BenchError(f"metrics differ from the {kind} list in BENCHMARK.json")
    except (BenchError, OSError, KeyError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    reports = result["reports"]
    failed = [r for r in reports if r["errors"]]
    for r in failed:
        print(f"check failed: {r['kind']}: {'; '.join(r['errors'])}", file=sys.stderr)
    for e in errors:
        print(f"trace check failed: {e}", file=sys.stderr)
    v = result["versions"]
    print(f"workload {args.workload}, seed {args.seed}: python {v['python']}, "
          f"numpy {v['numpy']}, scipy {v['scipy']}, nproc {os.cpu_count()}")
    print(f"reports {len(reports)}, failed {len(failed)}, "
          f"fail_frac {len(failed) / len(reports):g}")
    correct = not failed and not errors
    print(json.dumps({
        "correct": correct,
        "attempted": len(reports),
        "failed": len(failed),
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in sorted(values)},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
