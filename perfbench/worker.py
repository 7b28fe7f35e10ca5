"""One workload process, started by run.py.

    worker.py PHASE WORKLOAD SEED SECONDS

The process sets the workload up, prints `ready` (run.py times set-up from
process start to that line), then by phase:

- `setup`: measures the host's slowness (hostspeed.py) and exits.
- `measure`: runs rounds of the workload's reports, untraced, for SECONDS,
  with the host's slowness (hostspeed.py) measured around each report.
- `trace`: traces set-up, then alternates untraced and traced rounds for
  SECONDS, derives the per-layer metrics, writes the spans and runs the
  tracer self-test.

The last line on stdout is one JSON object with the per-report records.
"""

import json
import os
import resource
import shutil
import sys
import traceback
from collections import defaultdict
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(os.path.dirname(HERE), ".perfbench")

# (span name, fields); every field is derived from the spans
TRACED_FIELDS = (
    ("grid.convolve", ("calls", "busy_s", "self_s")),
    ("grid.fft", ("calls", "busy_s")),
    ("exponents.log_holder_estimate", ("calls", "busy_s", "self_s")),
    ("weights.make_variable_smoothness", ("calls", "busy_s", "self_s", "unique_frac")),
    ("weights.verify_admissible", ("calls", "busy_s", "self_s")),
    ("lebesgue.norm", ("calls", "busy_s", "self_s")),
    ("mixed.lq_lp_norm", ("calls", "busy_s", "self_s")),
    ("mixed.lq_lp_modular", ("calls", "busy_s", "self_s")),
    ("mixed.lp_lq_norm", ("calls", "busy_s", "self_s")),
    ("analysis.littlewood_paley", ("calls", "busy_s", "self_s")),
    ("analysis.peetre_maximal", ("calls", "busy_s", "self_s")),
    ("analysis.local_means", ("calls", "busy_s", "self_s")),
    ("analysis.lift", ("calls", "busy_s", "self_s")),
    ("analysis.apply_multiplier", ("calls", "busy_s", "self_s")),
    ("analysis.MultiplierSymbol", ("busy_s",)),
    ("spaces.quasi_norm", ("calls", "busy_s", "self_s", "unique_frac")),
    ("spaces.quasi_norm_maximal", ("calls", "busy_s", "self_s")),
    ("spaces.quasi_norm_local_means", ("calls", "busy_s", "self_s")),
    ("spaces.SpaceSpec.refine", ("calls", "busy_s")),
    ("spaces.standard_corpus", ("calls", "busy_s", "self_s")),
    ("spaces.check", ("self_s",)),
    ("cli.main", ("calls", "busy_s", "self_s")),
)
FIELD_UNITS = {"calls": "count", "busy_s": "s", "self_s": "s", "unique_frac": "1"}
# metrics computed from span counts and from the reports' own outputs
COMPUTED_UNITS = {
    "grid.fft.points": "count",
    "exponents.shifts_scanned": "count",
    "mixed.outer_steps_per_norm": "1",
    "cli.bytes_written": "B",
    "trace.overhead_s": "s",
}


def layer_metric_units():
    units = {
        f"{name}.{field}": FIELD_UNITS[field]
        for name, fields in TRACED_FIELDS
        for field in fields
    }
    units.update(COMPUTED_UNITS)
    return units


def _reference(workload, seed):
    with open(os.path.join(HERE, "reference.json")) as fh:
        return json.load(fh)["workloads"][workload].get(str(seed))


def run_round(index, reports, reference, tracer=None, slowness=None):
    """Run every report once, closed loop; time each, then check it.

    With `slowness`, the host's slowness is measured before and after each
    report, outside its timing, and their mean is recorded with it."""
    # imported here, not at the top: run.py imports this module without
    # the library on its path
    from workloads import check

    records = []
    before = slowness() if slowness else None
    for i, report in enumerate(reports):
        if tracer is not None:
            tracer.report += 1
        start = perf_counter()
        try:
            summary = report.run()
        except Exception:
            traceback.print_exc()
            summary = None
        seconds = perf_counter() - start
        after = slowness() if slowness else None
        try:
            errors = ["raised"] if summary is None else check(
                report.kind, summary, reference[i] if reference else None
            )
        except (KeyError, TypeError, ValueError) as e:
            errors = [f"malformed output: {e!r}"]
        records.append({
            "round": index,
            "kind": report.kind,
            "seconds": seconds,
            "slowness": (before + after) / 2 if slowness else None,
            "signals": report.signals,
            "errors": errors,
            "summary": summary,
            "report_id": tracer.report if tracer is not None else None,
        })
        before = after
    return records


def run_rounds(seconds, one_round):
    """Start rounds while the next, taking as long as the last, still fits."""
    records = []
    start = perf_counter()
    while True:
        t0 = perf_counter()
        records.append(one_round(len(records)))
        if perf_counter() - start + (perf_counter() - t0) > seconds:
            return records


def layer_metrics(spans, traced_ids, rounds, bytes_written, overhead):
    """Per-layer numbers for set-up plus one round (round figures averaged)."""
    from tracer import profile

    setup = profile(spans, lambda r: r == 0)
    body = profile(spans, lambda r: r in traced_ids)

    def total(field, name):
        return setup[field].get(name, 0) + body[field].get(name, 0) / rounds

    values = {}
    for name, fields in TRACED_FIELDS:
        for field in fields:
            if field == "unique_frac":
                calls = total("calls", name)
                values[f"{name}.{field}"] = total("distinct", name) / calls if calls else 0.0
            else:
                values[f"{name}.{field}"] = total(field, name)
    values["grid.fft.points"] = total("work", "grid.fft")
    values["exponents.shifts_scanned"] = total("work", "exponents.log_holder_estimate")
    norms = values["mixed.lq_lp_norm.calls"]
    values["mixed.outer_steps_per_norm"] = (
        values["mixed.lq_lp_modular.calls"] / norms if norms else 0.0
    )
    values["cli.bytes_written"] = bytes_written
    values["trace.overhead_s"] = overhead
    return values, body


def profile_notes(workload, body, round_seconds, fine_leg_signals):
    """How the traced rounds compare with the seed-commit profile."""
    notes = []
    if workload == "besov_1d":
        share = body["busy_s"].get("mixed.lq_lp_norm", 0.0) / round_seconds
        notes.append(f"mixed.lq_lp_norm covers {share:.3f} of report time")
    layers = defaultdict(float)
    for name, seconds in body["self_s"].items():
        layers[name.split(".")[0]] += seconds
    notes.append("self time by layer: " + ", ".join(
        f"{k} {v / round_seconds:.3f}" for k, v in sorted(layers.items(), key=lambda kv: -kv[1])
    ))
    if workload == "triebel_2d":
        refines = body["calls"].get("spaces.SpaceSpec.refine", 0)
        notes.append(
            f"SpaceSpec.refine calls per member on the 2N leg: {refines / fine_leg_signals:g}"
        )
    return notes


def self_test():
    """Tracer check on one constant-q B-scale quasi_norm (1D N=64, J=5)."""
    import numpy as np
    from tracer import Tracer, profile, restored
    from vexspaces import analysis, exponents, spaces, weights
    from vexspaces.grid import Grid, GridFunction

    grid = Grid(1, 64)
    J = 5
    two = exponents.VariableExponent.constant(grid, 2.0)
    spec = spaces.SpaceSpec(
        "B", two, two,
        weights.make_generalized(grid, J, 2.0 ** (0.5 * np.arange(J + 1))),
        analysis.admissible_system(grid, J), J,
    )
    f = GridFunction(grid, np.cos(2.0 * np.pi * 3.0 * grid.coords[0]))
    tracer = Tracer()
    tracer.install()
    try:
        spaces.quasi_norm(f, spec)
    finally:
        patched = tracer.uninstall()
    calls = profile(tracer.spans, lambda r: True)["calls"]
    errors = []
    for name, want in (
        ("analysis.littlewood_paley", 1),
        ("grid.convolve", J + 1),
        ("mixed.lq_lp_norm", 1),
    ):
        if calls.get(name) != want:
            errors.append(f"{name} calls {calls.get(name)}, expected {want}")
    modular = calls.get("mixed.lq_lp_modular", 0)
    if not modular or calls.get("lebesgue.norm") != (J + 1) * modular:
        errors.append(
            f"lebesgue.norm calls {calls.get('lebesgue.norm')} for {modular} modular calls"
        )
    if not restored(patched):
        errors.append("tracer left a patched binding behind")
    return errors


def trace_rounds(workload, seed, seconds, reports, reference, tracer):
    """Alternate untraced and traced rounds for `seconds`; derive the
    per-layer metrics and write the spans."""
    from tracer import restored, write_spans

    errors, traced, untraced = [], [], []

    def pair(i):
        # alternate which side runs first so warm-up favours neither
        out = []
        for traced_side in ((False, True) if i % 2 == 0 else (True, False)):
            if traced_side:
                tracer.install()
                try:
                    traced.append(run_round(i, reports, reference, tracer))
                finally:
                    if not restored(tracer.uninstall()):
                        errors.append("round tracing not undone")
                out += traced[-1]
            else:
                tracer.report += len(reports)  # keep report ids distinct
                untraced.append(run_round(i, reports, reference))
                out += untraced[-1]
        return out

    records = [r for p in run_rounds(seconds, pair) for r in p]
    traced_ids = {r["report_id"] for rnd in traced for r in rnd}
    wall = sum(r["seconds"] for rnd in traced for r in rnd)
    base = sum(r["seconds"] for rnd in untraced for r in rnd)
    bytes_written = sum((r["summary"] or {}).get("bytes_written", 0) for r in traced[0])
    metrics, body = layer_metrics(
        tracer.spans, traced_ids, len(traced), bytes_written, (wall - base) / len(traced)
    )
    fine_leg = sum(r["signals"] for rnd in traced for r in rnd) / 2
    notes = profile_notes(workload, body, wall, fine_leg)
    span_file = os.path.join(OUT_DIR, f"spans-{workload}-seed{seed}.csv")
    write_spans(tracer.spans, span_file)
    notes.append(f"{len(tracer.spans)} spans written to {span_file}")
    return {"reports": records, "layer_metrics": metrics, "notes": notes,
            "trace_errors": errors}


def main(argv):
    phase, workload, seed, seconds = argv[0], argv[1], int(argv[2]), float(argv[3])
    import numpy
    import scipy
    import vexspaces

    src = os.path.join(os.path.dirname(HERE), "src")
    if not os.path.abspath(vexspaces.__file__).startswith(src + os.sep):
        raise SystemExit(f"vexspaces was imported from {vexspaces.__file__}, not {src}")
    from tracer import Tracer, restored
    from workloads import WORKLOADS

    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = os.path.join(OUT_DIR, f"{workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        tracer = Tracer()
        if phase == "trace":
            tracer.install()
        reports = WORKLOADS[workload](seed, workdir)
        patched = tracer.uninstall()
        print("ready", flush=True)
        from hostspeed import slowness

        if phase == "setup":
            return {"slowness": slowness()}
        reference = _reference(workload, seed)
        result = {
            "versions": {
                "python": sys.version.split()[0],
                "numpy": numpy.__version__,
                "scipy": scipy.__version__,
            },
        }
        if phase == "measure":
            result["slowness"] = slowness()  # right after set-up, for setup_s
            rounds = run_rounds(
                seconds, lambda i: run_round(i, reports, reference, slowness=slowness)
            )
            result["reports"] = [r for rnd in rounds for r in rnd]
        else:
            errors = [] if restored(patched) else ["set-up tracing not undone"]
            result.update(trace_rounds(workload, seed, seconds, reports, reference, tracer))
            result["trace_errors"] = errors + result["trace_errors"] + self_test()
        result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return result
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    out = main(sys.argv[1:])
    if out:
        print(json.dumps(out))
