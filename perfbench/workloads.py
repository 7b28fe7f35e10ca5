"""The three benchmark workloads: seeded inputs, reports and output checks.

A workload's setup builds everything a report needs from the seed and
returns its reports.  A report is one public check call (or one CLI
command) over `CORPUS_SIZE` corpus members on the N and 2N grid legs; it
returns a summary of plain numbers, and `check` lists what is wrong with a
summary.  Library functions are looked up through their modules when a
report runs, so a tracer that re-binds them sees every call.
"""

import contextlib
import importlib
import io
import os
import shutil
from dataclasses import dataclass
from typing import Callable

import numpy as np

from vexspaces import analysis, exponents, spaces, weights
from vexspaces.grid import Grid

cli_main = importlib.import_module("vexspaces.cli.main")

# corpus members per report; the first members of standard_corpus, as the
# CLI's --corpus-size takes them
CORPUS_SIZE = 2
# a signal is one corpus member evaluated on one grid leg (N or 2N)
LEGS = 2
MULTIPLIER_SYMBOL = "xi1 * (1 + xi1^2)^(-1/2)"

REL_TOL = 1e-8  # bands and constants against the reference (the c03 tolerance)
DRIFT_TOL = 1e-8  # a drift is a difference of logs, compared absolutely
CSV_TOL = 1e-10  # report.txt and ratios.csv both print 13 significant digits


@dataclass(frozen=True)
class Report:
    kind: str
    run: Callable[[], dict]  # returns the report's summary
    signals: int  # corpus members x grid legs; the signals_per_s numerator


def _ranged(lo, hi, u):
    """Map u in [-1, 1] onto [lo, hi]."""
    return lo + 0.5 * (hi - lo) * (1.0 + u)


def _corpus(seed):
    return lambda g: spaces.standard_corpus(g, seed=seed)[:CORPUS_SIZE]


def _equivalence(rep):
    return {
        "ratio_min": rep.ratio_min,
        "ratio_max": rep.ratio_max,
        "drift": rep.refinement_drift,
        "passes": bool(rep.passes),
    }


def besov_1d(seed, workdir):
    """1D N=256, J=7, B-scale, variable p and q, 2-microlocal weight."""
    rng = np.random.default_rng(seed)
    a, b = rng.uniform(0.0, 1.0, size=2)
    grid = Grid(1, 256)
    J = 7
    p = exponents.VariableExponent.from_function(
        grid, lambda x: _ranged(1.5, 2.6, np.sin(2.0 * np.pi * (x - a)))
    )
    q = exponents.VariableExponent.from_function(
        grid, lambda x: _ranged(1.8, 3.0, np.cos(2.0 * np.pi * (x - b)))
    )
    w = weights.make_2microlocal(grid, J, 0.5, -0.25, [[0.5]])
    spec_a = spaces.SpaceSpec("B", p, q, w, analysis.admissible_system(grid, J, "plateau"), J)
    spec_b = spaces.SpaceSpec("B", p, q, w, analysis.admissible_system(grid, J, "hann"), J)
    corpus = _corpus(seed)
    signals = CORPUS_SIZE * LEGS
    return [
        Report(
            "pair_independence",
            lambda: _equivalence(spaces.pair_independence_check(corpus, spec_a, spec_b)),
            signals,
        ),
        Report(
            "lifting",
            lambda: _equivalence(spaces.lifting_check(corpus, spec_a, 1.0)),
            signals,
        ),
    ]


def _admissibility(w):
    rep = weights.verify_admissible(w)
    return {
        "measured_alpha": rep.measured_alpha,
        "measured_alpha1": rep.measured_alpha1,
        "measured_alpha2": rep.measured_alpha2,
        "measured_c": rep.measured_c,
        "passes": bool(rep.passes),
    }


def triebel_2d(seed, workdir):
    """2D N=32, J=max, F-scale, variable p and q, varsmooth weight."""
    rng = np.random.default_rng(seed)
    a, b, c, d = rng.uniform(0.0, 1.0, size=4)
    grid = Grid(2, 32)
    J = grid.max_levels()
    p = exponents.VariableExponent.from_function(
        grid,
        lambda x, y: _ranged(
            1.5, 2.6, np.sin(2.0 * np.pi * (x - a)) * np.cos(2.0 * np.pi * (y - b))
        ),
    )
    q = exponents.VariableExponent.from_function(
        grid,
        lambda x, y: _ranged(
            1.8, 3.0, np.cos(2.0 * np.pi * (x - c)) * np.sin(2.0 * np.pi * (y - d))
        ),
    )
    w = weights.make_variable_smoothness(
        grid, J, lambda x, y: 0.5 + 0.25 * np.sin(2.0 * np.pi * x)
    )
    spec = spaces.SpaceSpec("F", p, q, w, analysis.admissible_system(grid, J, "plateau"), J)
    corpus = _corpus(seed)
    signals = CORPUS_SIZE * LEGS
    return [
        Report("admissibility", lambda: _admissibility(w), 0),
        Report(
            "maximal",
            lambda: _equivalence(spaces.maximal_equivalence_check(corpus, spec)),
            signals,
        ),
        Report(
            "local_means",
            lambda: _equivalence(spaces.local_means_equivalence_check(corpus, spec)),
            signals,
        ),
    ]


def _parse_report(text):
    out = {}
    for line in text.splitlines():
        key, _, value = line.partition(" = ")
        value = value.split(" (limit")[0]
        if key == "result":
            out["passes"] = value == "PASS"
        elif key in ("ratio_min", "ratio_max", "constant", "multiplier_norm",
                     "order_threshold"):
            out[key] = float(value)
        elif key == "refinement_drift":
            out["drift"] = float(value)
    return out


def _csv_band(text):
    """Band of column 2 / column 1 over the rows, and the worst mismatch
    between that quotient and the file's own ratio column."""
    rows = [line.split(",") for line in text.strip().splitlines()[1:]]
    ratios, mismatch = [], 0.0
    for _, first, second, ratio in rows:
        r = float(second) / float(first)
        ratios.append(r)
        mismatch = max(mismatch, abs(float(ratio) - r) / abs(r))
    return min(ratios), max(ratios), mismatch


def _cli_report(argv, out):
    def run():
        shutil.rmtree(out, ignore_errors=True)  # no stale files from the last round
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli_main.main(argv + ["--out", out])
        with open(os.path.join(out, "report.txt")) as fh:
            report = fh.read()
        with open(os.path.join(out, "ratios.csv")) as fh:
            csv = fh.read()
        summary = _parse_report(report)
        summary["exit_code"] = code
        summary["csv_band"] = _csv_band(csv)
        summary["bytes_written"] = len(report.encode()) + len(csv.encode())
        return summary

    return run


def cli_reports(seed, workdir):
    """`main()` with the CLI defaults: 1D N=64, B-scale, p = q = 2."""
    # MultiplierSymbol imports sympy on first use; a CLI process pays that
    # import once, so it belongs to set-up rather than to the first report.
    import sympy  # noqa: F401
    common = ["--corpus-size", str(CORPUS_SIZE), "--seed", str(seed)]
    commands = [
        ("compare-pairs", []),
        ("lift-check", []),
        ("multiplier-check", ["--symbol", MULTIPLIER_SYMBOL]),
    ]
    return [
        Report(
            name,
            _cli_report([name] + extra + common, os.path.join(workdir, name)),
            CORPUS_SIZE * LEGS,
        )
        for name, extra in commands
    ]


WORKLOADS = {"besov_1d": besov_1d, "triebel_2d": triebel_2d, "cli_reports": cli_reports}


# ------------------------------------------------------------------ checks


def _close(a, b, tol):
    return abs(a - b) <= tol * max(abs(a), abs(b))


def check(kind, summary, reference=None):
    """Problems with one report's summary; empty when it is correct."""
    errors = []
    if not summary.get("passes"):
        errors.append("claim does not hold")
    if "ratio_min" in summary:
        lo, hi, drift = summary["ratio_min"], summary["ratio_max"], summary["drift"]
        if not (np.isfinite(hi) and lo > 0.0 and drift < spaces.DRIFT_LIMIT):
            errors.append(f"band [{lo}, {hi}] with drift {drift}")
    if kind == "maximal" and summary["ratio_min"] < 1.0 - 1e-9:
        errors.append(f"maximal band starts below 1: {summary['ratio_min']}")
    if "exit_code" in summary:
        if summary["exit_code"] != 0:
            errors.append(f"exit code {summary['exit_code']}")
        lo, hi, mismatch = summary["csv_band"]
        # compare-pairs prints norm_b/norm_a in ratios.csv but bands
        # norm_a/norm_b in report.txt, so either orientation is accepted
        band = (summary["ratio_min"], summary["ratio_max"])
        if not any(
            _close(band[0], x, CSV_TOL) and _close(band[1], y, CSV_TOL)
            for x, y in ((lo, hi), (1.0 / hi, 1.0 / lo))
        ):
            errors.append(f"report band {band} is not the ratios.csv band {(lo, hi)}")
        if mismatch > CSV_TOL:
            errors.append(f"ratios.csv ratio column off by {mismatch}")
    for key, want in (reference or {}).items():
        got = summary.get(key)
        if isinstance(want, bool) or got is None:
            ok = got == want
        elif key == "drift":
            ok = abs(got - want) <= DRIFT_TOL
        else:
            ok = _close(got, want, REL_TOL)
        if not ok:
            errors.append(f"{key} = {got}, reference {want}")
    return errors


def reference_view(summary):
    """The part of a summary that the reference file pins."""
    return {
        k: v for k, v in summary.items()
        if k not in ("exit_code", "csv_band", "bytes_written")
    }
