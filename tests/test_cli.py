import hashlib
import os
import subprocess
import sys

import numpy as np
import pytest

import vexspaces
import vexspaces.expr
from vexspaces import Grid, GridFunction
from vexspaces.expr import ExprError, InputError
from vexspaces.cli.config import (
    ConfigError,
    build_spec,
    build_weight,
    read_config_file,
    resolve_config,
)
from vexspaces.cli.main import main
from vexspaces.cli.signals import SignalError, load_signal, save_signal


@pytest.fixture
def ones_path(grid64, tmp_path):
    path = tmp_path / "ones.csv"
    save_signal(GridFunction(grid64, np.ones(64)), path)
    return str(path)


# ------------------------------------------------------------------ signals


def test_signal_roundtrip_1d_real(grid64, tmp_path):
    rng = np.random.default_rng(3)
    f = GridFunction(grid64, rng.normal(size=64))
    path = tmp_path / "f.csv"
    save_signal(f, path)
    g = load_signal(path, grid64)
    assert np.array_equal(f.samples, g.samples)


def test_signal_roundtrip_1d_complex(grid64, tmp_path):
    rng = np.random.default_rng(4)
    f = GridFunction(grid64, rng.normal(size=64) + 1j * rng.normal(size=64))
    path = tmp_path / "f.csv"
    save_signal(f, path)
    g = load_signal(path, grid64)
    assert np.array_equal(f.samples, g.samples)


def test_signal_roundtrip_2d(tmp_path):
    grid = Grid(2, 16)
    rng = np.random.default_rng(5)
    f = GridFunction(grid, rng.normal(size=(16, 16)))
    path = tmp_path / "f.csv"
    save_signal(f, path)
    g = load_signal(path, grid)
    assert np.array_equal(f.samples, g.samples)


def test_signal_count_mismatch(grid64, tmp_path):
    path = tmp_path / "short.csv"
    path.write_text("# dim=1 n=64\n" + "1.0\n" * 32)
    with pytest.raises(SignalError, match="expected 64 samples, found 32"):
        load_signal(path, grid64)


def test_signal_header_mismatch(tmp_path):
    path = tmp_path / "f.csv"
    path.write_text("# dim=1 n=64\n" + "1.0\n" * 64)
    with pytest.raises(SignalError, match="does not match"):
        load_signal(path, Grid(1, 32))


def test_signal_bad_token(grid64, tmp_path):
    lines = ["1.0"] * 64
    lines[2] = "1.0,oops"
    path = tmp_path / "f.csv"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(SignalError, match=r"line 3, column 2"):
        load_signal(path, grid64)


def test_constant_signal_loads(ones_path, grid64):
    f = load_signal(ones_path, grid64)
    assert np.array_equal(f.samples, np.ones(64))


# ------------------------------------------------------------------- config


def test_config_file_and_flags(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# a comment\n"
        "grid-n = 128\n"
        "scale = F\n"
        "p = 2 + 0.2*cos(6.2832*x1)\n"
    )
    values = read_config_file(path)
    cfg = resolve_config(values, {"scale": "B", "seed": 7})
    assert cfg.grid_n == 128
    assert cfg.scale == "B"  # flag wins
    assert cfg.seed == 7
    assert cfg.p.startswith("2 + ")


def test_config_errors(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("nonsense-key = 1\n")
    with pytest.raises(ConfigError, match="unknown config key"):
        read_config_file(bad)
    noeq = tmp_path / "noeq.cfg"
    noeq.write_text("scale B\n")
    with pytest.raises(ConfigError, match="expected key = value"):
        read_config_file(noeq)
    with pytest.raises(ConfigError, match="dim must be"):
        resolve_config({}, {"dim": 3})
    with pytest.raises(ConfigError, match="expected a number"):
        resolve_config({}, {"seed": "lots"})
    with pytest.raises(ConfigError, match="seed must be"):
        resolve_config({}, {"seed": "-1"})
    with pytest.raises(ConfigError, match="corpus_size must be"):
        resolve_config({}, {"corpus_size": "0"})
    with pytest.raises(ConfigError, match="sigma must be"):
        resolve_config({}, {"sigma": "nan"})


def test_corpus_size_above_the_standard_corpus_is_refused(capsys):
    # the standard corpus has 50 members; a larger size was cut to 50
    assert resolve_config({}, {"corpus_size": "50"}).corpus_size == 50
    with pytest.raises(ConfigError, match="between 1 and 50"):
        resolve_config({}, {"corpus_size": "51"})
    assert main(["lift-check", "--corpus-size", "60"]) == 2
    assert "between 1 and 50" in capsys.readouterr().err


def test_input_errors_share_one_base_class(tmp_path, capsys):
    # the CLI maps InputError, not every ValueError, to exit 2
    for error in (ConfigError, ExprError, SignalError):
        assert issubclass(error, InputError)
    binary = tmp_path / "f.bin"
    binary.write_bytes(bytes([0xFF, 0xFE, 0x00, 0x81]))
    assert main(["norm", "--signal", str(binary)]) == 2
    assert main(["norm", "--config", str(binary), "--signal", str(binary)]) == 2
    assert "not a text file" in capsys.readouterr().err


def test_build_weight_families(grid64):
    w = build_weight(grid64, 4, "2micro:0.5,-0.3,0.25")
    assert w.J == 4 and w.declared_alpha1 == pytest.approx(0.2)
    w = build_weight(grid64, 4, "varsmooth:0.5 + 0.1*sin(6.2832*x1)")
    assert w.declared_alpha2 == pytest.approx(0.6, abs=1e-3)
    w = build_weight(grid64, 2, "generalized:1,2,4")
    assert w.levels[2][0] == 4.0
    w = build_weight(grid64, 3, "weighted:0.5,1,1 + dist(x1, 0.5)")
    assert w.J == 3
    with pytest.raises(ConfigError, match="unknown weight family"):
        build_weight(grid64, 4, "fancy:1")
    with pytest.raises(ConfigError, match="generalized needs"):
        build_weight(grid64, 4, "generalized:1,2")
    with pytest.raises(ConfigError, match="anchor"):
        build_weight(grid64, 4, "2micro:0.5,-0.3")


def test_build_spec_cross_field_validation():
    cfg = resolve_config({}, {"scale": "F", "levels": 99})
    with pytest.raises(ConfigError, match="too large"):
        build_spec(cfg)


def test_exponent_table(grid64, tmp_path):
    table = tmp_path / "p.csv"
    save_signal(GridFunction(grid64, np.full(64, 2.5)), table)
    cfg = resolve_config({}, {"p": f"@{table}"})
    spec = build_spec(cfg)
    assert spec.p.p_minus == spec.p.p_plus == 2.5


# ------------------------------------------------------------ main commands


def test_norm_constant_signal(ones_path, capsys):
    rc = main(
        ["norm", "--scale", "B", "--p", "2", "--q", "2",
         "--weight", "varsmooth:0", "--signal", ones_path]
    )
    assert rc == 0
    out = capsys.readouterr().out
    # constant signal: only the level-0 block survives, norm is exactly 1
    assert "norm = 1.000000000000e+00" in out


def test_analyze_levels(ones_path, tmp_path, capsys):
    out_dir = tmp_path / "out"
    rc = main(
        ["analyze", "--p", "2", "--q", "2", "--s", "0.3",
         "--signal", ones_path, "--out", str(out_dir)]
    )
    assert rc == 0
    rows = (out_dir / "levels.csv").read_text().splitlines()
    assert rows[0] == "j,level_norm"
    assert len(rows) == 8  # header + levels 0..6
    assert float(rows[1].split(",")[1]) == pytest.approx(1.0, rel=1e-12)
    assert all(float(r.split(",")[1]) == 0.0 for r in rows[2:])


def test_verify_suite_exit_codes(capsys):
    assert main(["verify", "--suite", "lebesgue"]) == 0
    assert "PASS lebesgue" in capsys.readouterr().out
    assert main(["verify", "--suite", "nope"]) == 2


def test_verify_all(capsys):
    assert main(["verify", "--grid-n", "64"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    for suite in ("grid", "exponents", "lebesgue", "mixed", "weights",
                  "analysis", "spaces"):
        assert f"PASS {suite}." in out


def test_compare_pairs_identical_profiles(tmp_path, capsys):
    out_dir = tmp_path / "cp"
    rc = main(
        ["compare-pairs", "--system", "plateau", "--system-b", "plateau",
         "--corpus-size", "4", "--out", str(out_dir)]
    )
    assert rc == 0
    rows = (out_dir / "ratios.csv").read_text().splitlines()
    assert rows[0] == "index,norm_b,norm_a,ratio"
    for row in rows[1:]:
        assert float(row.split(",")[3]) == 1.0


def _report_band_matches_csv(out_dir, size):
    rows = (out_dir / "ratios.csv").read_text().splitlines()[1:]
    ratios = [float(row.split(",")[3]) for row in rows]
    assert len(ratios) == size
    report = dict(
        line.split(" = ", 1)
        for line in (out_dir / "report.txt").read_text().splitlines()
    )
    assert float(report["ratio_min"]) == min(ratios)
    assert float(report["ratio_max"]) == max(ratios)


def test_compare_pairs_plateau_vs_hann(tmp_path):
    out_dir = tmp_path / "cp"
    rc = main(
        ["compare-pairs", "--system-b", "hann", "--corpus-size", "4",
         "--seed", "1", "--out", str(out_dir)]
    )
    assert rc == 0
    report = (out_dir / "report.txt").read_text()
    assert "result = PASS" in report
    # at seed 1 the log-spreads of the bands at N and 2N differ by ~8e-16,
    # rounding that prints as 0
    assert "refinement_drift = 0.000000000000e+00 (limit" in report
    _report_band_matches_csv(out_dir, 4)


def test_cli_determinism(tmp_path):
    args = ["lift-check", "--sigma", "1.0", "--corpus-size", "4",
            "--scale", "F", "--seed", "11"]
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(out_a)]) == 0
    assert main(args + ["--out", str(out_b)]) == 0
    assert (out_a / "ratios.csv").read_bytes() == (out_b / "ratios.csv").read_bytes()
    assert (out_a / "report.txt").read_bytes() == (out_b / "report.txt").read_bytes()


def test_lift_check_band_matches_csv(tmp_path):
    out_dir = tmp_path / "lc"
    assert main(["lift-check", "--corpus-size", "4", "--out", str(out_dir)]) == 0
    _report_band_matches_csv(out_dir, 4)


def test_multiplier_check_band_matches_csv(tmp_path):
    out_dir = tmp_path / "mc"
    rc = main(
        ["multiplier-check", "--symbol", "xi1 * (1 + xi1^2)^(-1/2)",
         "--corpus-size", "4", "--out", str(out_dir)]
    )
    assert rc == 0
    _report_band_matches_csv(out_dir, 4)


# SHA-256 of (report.txt, ratios.csv) of each report command at the CLI
# defaults; a change to the numerics that moves any printed digit shows here
GOLDEN_REPORTS = {
    ("compare-pairs", 0): (
        "d8cfc017d1e4e7e19ab8f66ef6b9b5be147bccc9481eacd68517afd9b07ad36e",
        "5d988a851be3282dc86faa333290d962c43c311593177a0b0ffe59e7aeb724ef",
    ),
    ("compare-pairs", 1): (
        "face7cf58a0337ee424fc1a5a8020fa818b5b82c44498050e3fbcfcdc1b6a6fb",
        "4706a8a0ac7dfccbc4b98c46e8c6fb8af3cf4e11c2fd5d65a9afde8546162e23",
    ),
    ("compare-pairs", 2): (
        "e05b14dc90ccfd41ecc4b0cf7940e3b5888ad723d937974036e74fc003ab52ba",
        "ddeaec83773e698aae341224ecb15ee724b0607b9c202de1638ac36f7fd5f6ab",
    ),
    ("lift-check", 0): (
        "c42916bd2149be0fc5977401fb5977d99405199a2ce8c33a5ae4c9aa3a9bc399",
        "f31f0925b8ef2b31440f43df8ad2b75d5649237a7055df1d6a1f135c8672e707",
    ),
    ("lift-check", 1): (
        "8c3d56fd2a6a83cf53dd0b78b19fe0fa891d6775c55e46789b2ecdead2a16144",
        "a2d1ddd899cb22d107b1df57933976a4758e3236735f6738276698195ec137ad",
    ),
    ("lift-check", 2): (
        "aaff780901cd899a8a0e584b98a41cd06cb4805f6f1a9692e8d66121b7072d7f",
        "4518f7fc9c1966b2f04a31f0ee991dd556752c6ca1cf36bcd6da35abcc101e1b",
    ),
    ("multiplier-check", 0): (
        "373dadf8b507d32e30d009caab7e38ba6cac0ffee5c26290156a075813a3835e",
        "2b166c448e58359a597f4d4864b25a76b6690b7a647c979f6034a3f1dad8c25b",
    ),
    ("multiplier-check", 1): (
        "ff72f60acb07546c78f6ad3d8babe2404559f63ed74a3a88ee862a12c058de31",
        "ccf65ab56d6fecaf915c7e3aa9a1abfd02883ba968944dad702e85536e91ea77",
    ),
    ("multiplier-check", 2): (
        "29c4c4080cf504ad3f42b266ebad52d5720c555180307d9e7cf7b18ceeffcb57",
        "c8ffcaffc8a15797c54c7de883b44be4e91635263bb6a1baef02c43954d929e9",
    ),
}


@pytest.mark.parametrize("command, seed", sorted(GOLDEN_REPORTS))
def test_report_bytes_are_pinned(command, seed, tmp_path):
    extra = ["--symbol", "xi1 * (1 + xi1^2)^(-1/2)"] if command == "multiplier-check" else []
    out_dir = tmp_path / command
    assert main([command, *extra, "--seed", str(seed), "--out", str(out_dir)]) == 0
    digests = tuple(
        hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
        for name in ("report.txt", "ratios.csv")
    )
    assert digests == GOLDEN_REPORTS[command, seed]


def test_multiplier_check_reports_threshold(tmp_path):
    out_dir = tmp_path / "mc"
    rc = main(
        ["multiplier-check", "--symbol", "xi1 * (1 + xi1^2)^(-1/2)",
         "--corpus-size", "4", "--out", str(out_dir)]
    )
    assert rc == 0
    report = (out_dir / "report.txt").read_text()
    assert "order_threshold" in report and "multiplier_norm" in report
    rc = main(
        ["multiplier-check", "--symbol", "(1 + xi1^2)^(1/2)",
         "--corpus-size", "4"]
    )
    assert rc == 2  # unbounded symbol: config-level rejection


def test_multiplier_check_parses_the_symbol_once(monkeypatch):
    parse = vexspaces.expr.parse_expression
    texts = []

    def counting_parse(text):
        texts.append(text)
        return parse(text)

    monkeypatch.setattr(vexspaces.expr, "parse_expression", counting_parse)
    symbol = "xi1 * (1 + xi1^2)^(-1/2)"
    assert main(["multiplier-check", "--symbol", symbol, "--corpus-size", "2"]) == 0
    assert texts.count(symbol) == 1


def test_non_smooth_symbol_is_config_error(capsys):
    assert main(["multiplier-check", "--symbol", "min(xi1, 1)", "--corpus-size", "2"]) == 2
    assert "not differentiable" in capsys.readouterr().err


@pytest.mark.parametrize("mode", ["norm_2l", "h2kappa"])
def test_symbol_without_a_value_is_config_error(mode, capsys):
    # xi1 / |xi1| is 0/0 at xi = 0: bad input (exit 2), not a library bug
    # (exit 3, with a traceback); the seminorm refuses it on its lattice, the
    # multiplier on the frequency set
    argv = ["multiplier-check", "--symbol", "xi1/abs(xi1)", "--mode", mode, "--corpus-size", "2"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert ("not a number" if mode == "norm_2l" else "must be finite") in err


def test_missing_signal_is_config_error(capsys):
    assert main(["norm"]) == 2
    assert "needs --signal" in capsys.readouterr().err


def test_missing_file_is_io_error(grid64):
    assert main(["norm", "--signal", "/nonexistent/f.csv"]) == 2


def test_bracket_failure_is_an_error_not_a_crash(capsys):
    # at q = 0.001 the B-scale modular of f/mu decays like mu^-0.001, so the
    # norm, peak times the modular of f/peak to the power 1000, overflows
    assert main(["lift-check", "--q", "0.001", "--corpus-size", "2"]) == 2
    assert "error: norm above the double range" in capsys.readouterr().err


@pytest.mark.parametrize("fault", [KeyError, ZeroDivisionError, ValueError])
def test_library_crash_is_an_internal_error(fault, monkeypatch, capsys):
    # neither "a check failed" (1) nor "bad configuration" (2): only an
    # InputError is bad input, a bare ValueError is a library bug
    def crash(*args, **kwargs):
        raise fault("injected")

    monkeypatch.setattr(vexspaces.spaces, "lifting_check", crash)
    assert main(["lift-check", "--corpus-size", "2"]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"internal error: {fault.__name__}")
    assert "Traceback" in err and "crash" in err


def test_f_scale_norm_of_a_huge_signal(grid64, tmp_path, capsys):
    # |f|^q of a 1e160 signal overflows a double; the F-scale norm must
    # still come out as 1e160 times the unit-amplitude norm, not as an error
    x = grid64.coords[0]
    f = np.cos(2 * np.pi * x) + 0.5 * np.sin(6 * np.pi * x)
    norms = []
    for amplitude in (1.0, 1e160):
        path = tmp_path / f"f{amplitude:g}.csv"
        save_signal(GridFunction(grid64, amplitude * f), path)
        rc = main(["norm", "--scale", "F", "--q", "2 + 0.5*cos(6.283185307179586*x1)",
                   "--signal", str(path)])
        assert rc == 0
        norms.append(float(capsys.readouterr().out.split("norm = ")[1]))
    assert norms[1] == pytest.approx(1e160 * norms[0], rel=1e-11)


def test_module_entry_point(ones_path):
    # the subprocess imports the package from the same source tree
    src = os.path.dirname(os.path.dirname(vexspaces.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "vexspaces.cli.main", "norm",
         "--weight", "varsmooth:0", "--signal", ones_path],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert "norm = 1.000000000000e+00" in proc.stdout
    assert "RuntimeWarning" not in proc.stderr
