"""Command-line surface: norms, per-level analysis, invariant suites, and
the equivalence/comparison reports, all driven by flags or a key = value
config file.  Exit codes: 0 all checks passed, 1 a check failed, 2 bad
input (an InputError: configuration, expression, signal file or check
argument), I/O, or a norm outside the double range or that the root
solver could not bracket (BracketError), 3 any other exception, an
internal error (a library bug; the traceback goes to stderr)."""

import argparse
import dataclasses
import os
import sys
import traceback

import numpy as np

from .. import spaces
from ..analysis import MultiplierSymbol
from ..expr import InputError
from ..lebesgue import REL_TOL, BracketError, norm as lebesgue_norm
from .config import (
    ConfigError,
    build_grid,
    build_spec,
    build_system,
    read_config_file,
    resolve_config,
)
from .signals import load_signal
from .suites import SUITES, run_suites


def _fmt(x):
    return f"{float(x):.12e}"


def _emit(out, name, lines, echo=True):
    """Write lines to out/name (when out is set), echoing them to stdout."""
    text = "\n".join(lines) + "\n"
    if echo:
        sys.stdout.write(text)
    if out:
        os.makedirs(out, exist_ok=True)
        with open(os.path.join(out, name), "w") as fh:
            fh.write(text)


def _corpus(cfg):
    size = cfg.corpus_size
    seed = cfg.seed
    return lambda g: spaces.standard_corpus(g, seed=seed)[:size]


def _spec_lines(cfg, spec):
    return [
        f"scale = {spec.scale}",
        f"grid = dim {spec.grid.dim}, n {spec.grid.n}",
        f"levels = {spec.J}",
        f"p range = [{_fmt(spec.p.p_minus)}, {_fmt(spec.p.p_plus)}]",
        f"q range = [{_fmt(spec.q.p_minus)}, {_fmt(spec.q.p_plus)}]",
        f"system = {cfg.system}",
    ]


def cmd_norm(cfg):
    if cfg.signal is None:
        raise ConfigError("norm needs --signal")
    grid = build_grid(cfg)
    spec = build_spec(cfg, grid)
    f = load_signal(cfg.signal, grid)
    value = spaces.quasi_norm(f, spec)
    _emit(cfg.out, "report.txt", _spec_lines(cfg, spec) + [f"norm = {_fmt(value)}"])
    return 0


def cmd_analyze(cfg):
    if cfg.signal is None:
        raise ConfigError("analyze needs --signal")
    grid = build_grid(cfg)
    spec = build_spec(cfg, grid)
    f = load_signal(cfg.signal, grid)
    blocks = spaces.weighted_blocks(f, spec)
    rows = [f"{j},{_fmt(lebesgue_norm(e, spec.p))}" for j, e in enumerate(blocks)]
    _emit(cfg.out, "levels.csv", ["j,level_norm"] + rows)
    value = spaces.quasi_norm(f, spec)
    _emit(cfg.out, "report.txt", _spec_lines(cfg, spec) + [f"norm = {_fmt(value)}"])
    return 0


def cmd_verify(cfg):
    names = sorted(SUITES) if cfg.suite == "all" else [cfg.suite]
    for name in names:
        if name not in SUITES:
            raise ConfigError(f"unknown suite {name!r}; have {sorted(SUITES)} or all")
    grid = build_grid(cfg)
    results, all_passed = run_suites(names, grid, cfg.seed)
    lines = [
        f"{'PASS' if passed else 'FAIL'} {name}: {detail}"
        for name, passed, detail in results
    ]
    lines.append(f"checks = {len(results)}, failures = "
                 f"{sum(1 for _, p, _ in results if not p)}")
    _emit(cfg.out, "report.txt", lines)
    return 0 if all_passed else 1


def _report_lines(rep, extra=()):
    # below 10 REL_TOL the drift is root-solve rounding: print it as 0
    drift = rep.refinement_drift
    if drift < 10.0 * REL_TOL:
        drift = 0.0
    lines = list(extra)
    lines += [
        f"corpus_size = {rep.corpus_size}",
        f"ratio_min = {_fmt(rep.ratio_min)}",
        f"ratio_max = {_fmt(rep.ratio_max)}",
        f"refinement_drift = {_fmt(drift)}"
        f" (limit {_fmt(spaces.DRIFT_LIMIT)})",
        f"result = {'PASS' if rep.passes else 'FAIL'}",
    ]
    return lines


def _write_ratios(out, header, pairs):
    """ratios.csv rows (index, den, num, num/den) from (num, den) pairs."""
    rows = [
        f"{i},{_fmt(den)},{_fmt(num)},{_fmt(num / den if den > 0 else np.nan)}"
        for i, (num, den) in enumerate(pairs)
    ]
    _emit(out, "ratios.csv", [header] + rows, echo=False)


def cmd_compare_pairs(cfg):
    for name in (cfg.system, cfg.system_b):
        if name not in ("plateau", "hann"):
            raise ConfigError(
                "compare-pairs needs admissible profiles (plateau or hann)"
            )
    grid = build_grid(cfg)
    spec_a = build_spec(cfg, grid)
    spec_b = dataclasses.replace(
        spec_a, system=build_system(grid, spec_a.J, cfg.system_b)
    )
    rep = spaces.pair_independence_check(_corpus(cfg), spec_a, spec_b)
    _write_ratios(cfg.out, "index,norm_b,norm_a,ratio", rep.pairs)
    extra = [f"system_a = {cfg.system}", f"system_b = {cfg.system_b}"]
    _emit(cfg.out, "report.txt", _report_lines(rep, extra))
    return 0 if rep.passes else 1


def cmd_lift_check(cfg):
    grid = build_grid(cfg)
    spec = build_spec(cfg, grid)
    rep = spaces.lifting_check(_corpus(cfg), spec, cfg.sigma)
    _write_ratios(cfg.out, "index,norm_source,norm_lifted,ratio", rep.pairs)
    _emit(cfg.out, "report.txt", _report_lines(rep, [f"sigma = {_fmt(cfg.sigma)}"]))
    return 0 if rep.passes else 1


def cmd_multiplier_check(cfg):
    if cfg.symbol is None:
        raise ConfigError("multiplier-check needs --symbol")
    grid = build_grid(cfg)
    spec = build_spec(cfg, grid)
    m = MultiplierSymbol(cfg.symbol, dim=cfg.dim)
    rep = spaces.multiplier_bound_checks(
        _corpus(cfg), spec, m, cfg.mode, order=cfg.order
    )
    _write_ratios(cfg.out, "index,norm,norm_multiplied,ratio", rep.pairs)
    extra = [
        f"symbol = {cfg.symbol}",
        f"mode = {rep.mode}",
        f"order = {rep.order:g}",
        f"order_threshold = {_fmt(rep.threshold)}",
        f"multiplier_norm = {_fmt(rep.multiplier_norm)}",
        f"constant = {_fmt(rep.constant)}",
    ]
    _emit(cfg.out, "report.txt", _report_lines(rep, extra))
    return 0 if rep.passes else 1


_COMMANDS = {
    "norm": cmd_norm,
    "analyze": cmd_analyze,
    "verify": cmd_verify,
    "compare-pairs": cmd_compare_pairs,
    "lift-check": cmd_lift_check,
    "multiplier-check": cmd_multiplier_check,
}


def _build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="key = value config file")
    common.add_argument("--grid-n", type=int, dest="grid_n")
    common.add_argument("--dim", type=int, choices=(1, 2))
    common.add_argument("--levels", type=int, help="top dyadic level J")
    common.add_argument("--scale", choices=("B", "F"))
    common.add_argument("--p", help="exponent expression or @table")
    common.add_argument("--q", help="exponent expression or @table")
    common.add_argument("--s", help="smoothness expression (varsmooth weight)")
    common.add_argument("--weight", help="family:params weight sequence")
    common.add_argument("--system", help="plateau | hann | general | theta")
    common.add_argument("--seed", type=int)
    common.add_argument("--out", help="directory for report/CSV artifacts")

    parser = argparse.ArgumentParser(
        prog="vexspaces",
        description="Variable-exponent smoothness-space norms on sampled "
        "periodic signals.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_norm = sub.add_parser("norm", parents=[common], help="print a quasi-norm")
    p_norm.add_argument("--signal", help="signal file")

    p_an = sub.add_parser(
        "analyze", parents=[common], help="per-level weighted norms as CSV"
    )
    p_an.add_argument("--signal", help="signal file")

    p_ver = sub.add_parser(
        "verify", parents=[common], help="run invariant suites"
    )
    p_ver.add_argument("--suite", help="suite name or all")

    p_cp = sub.add_parser(
        "compare-pairs",
        parents=[common],
        help="norm ratios between two admissible systems",
    )
    p_cp.add_argument("--system-b", dest="system_b")
    p_cp.add_argument("--corpus-size", type=int, dest="corpus_size")

    p_lift = sub.add_parser(
        "lift-check", parents=[common], help="lifting-operator isomorphism ratios"
    )
    p_lift.add_argument("--sigma", type=float)
    p_lift.add_argument("--corpus-size", type=int, dest="corpus_size")

    p_mul = sub.add_parser(
        "multiplier-check", parents=[common], help="Fourier multiplier bounds"
    )
    p_mul.add_argument("--symbol", help="frequency-symbol expression")
    p_mul.add_argument("--mode", choices=("norm_2l", "h2kappa"))
    p_mul.add_argument("--order", type=int)
    p_mul.add_argument("--corpus-size", type=int, dest="corpus_size")

    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    flag_values = {
        k: v for k, v in vars(args).items() if k not in ("command", "config")
    }
    try:
        file_values = read_config_file(args.config) if args.config else {}
        cfg = resolve_config(file_values, flag_values)
        return _COMMANDS[args.command](cfg)
    # ConfigError, ExprError and SignalError are InputErrors
    except (InputError, OSError, BracketError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:
        print(f"internal error: {e!r}", file=sys.stderr)
        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())
