import dataclasses
import itertools
import tracemalloc

import numpy as np
import pytest

from vexspaces import Grid, GridFunction, log_holder_estimate
from vexspaces.grid import PrunedScan
from vexspaces.weights import (
    _REL_SLACK,
    WeightSequence,
    verify_admissible,
    make_2microlocal,
    make_variable_smoothness,
    make_generalized,
    make_weighted,
)


def brute_force_condition_i(w, j):
    """O(N^2) oracle for the worst spatial ratio at level j."""
    grid = w.grid
    vals = w.levels[j].ravel()
    if grid.dim == 1:
        pts = [(x,) for x in grid.coords[0]]
    else:
        pts = list(zip(grid.coords[0].ravel(), grid.coords[1].ravel()))
    worst_c = 0.0
    for a in range(len(vals)):
        for b in range(len(vals)):
            if a == b:
                continue
            d = np.sqrt(
                sum(min(abs(u - v) % 1.0, 1.0 - abs(u - v) % 1.0) ** 2 for u, v in zip(pts[a], pts[b]))
            )
            c = (vals[a] / vals[b]) / (1.0 + 2.0**j * d) ** w.declared_alpha
            worst_c = max(worst_c, c)
    return worst_c


def roll_loop_condition_i(w):
    """Per-shift np.roll loop oracle: (measured_c, measured_alpha, witness_spatial).

    Shifts run with the first component outermost and the first strict
    maximum wins, as verify_admissible documents.
    """
    grid = w.grid
    axes = tuple(range(grid.dim))
    c, alpha, witness = 1.0, 0.0, (0, (0,) * grid.dim, 1.0)
    for j, wj in enumerate(w.levels):
        for s in itertools.product(range(grid.n), repeat=grid.dim):
            if not any(s):
                continue
            base = 1.0 + 2.0**j * grid.shift_distance(s)
            worst = float(np.max(wj / np.roll(wj, s, axis=axes)))
            if worst / base**w.declared_alpha > c:
                c, witness = worst / base**w.declared_alpha, (j, s, worst)
            if worst > w.declared_c:
                alpha = max(alpha, float(np.log(worst / w.declared_c) / np.log(base)))
    return c, alpha, witness


def test_2microlocal_class_parameters_and_pass():
    g = Grid(1, 64)
    for s, sp in [(0.0, 1.5), (1.0, -0.75), (-0.5, 0.0)]:
        w = make_2microlocal(g, J=6, s=s, s_prime=sp, anchor_points=[[0.5]])
        assert w.declared_alpha == abs(sp)
        assert w.declared_alpha1 == pytest.approx(s + min(0.0, sp))
        assert w.declared_alpha2 == pytest.approx(s + max(0.0, sp))
        rep = verify_admissible(w)
        assert rep.passes, (s, sp, rep)


def test_2microlocal_spatial_scan_matches_brute_force():
    g = Grid(1, 16)
    w = make_2microlocal(g, J=3, s=0.0, s_prime=1.0, anchor_points=[[0.25]])
    rep = verify_admissible(w)
    oracle = max(brute_force_condition_i(w, j) for j in range(w.J + 1))
    assert rep.measured_c == pytest.approx(max(oracle, 1.0), rel=1e-12)


def test_variable_smoothness_class():
    g = Grid(1, 64)
    w = make_variable_smoothness(g, J=6, s=lambda x: 0.5 + 0.4 * np.sin(2 * np.pi * x))
    sampled = 0.5 + 0.4 * np.sin(2 * np.pi * g.coords[0])
    assert w.declared_alpha1 == pytest.approx(float(sampled.min()), abs=1e-12)
    assert w.declared_alpha2 == pytest.approx(float(sampled.max()), abs=1e-12)
    rep = verify_admissible(w)
    assert rep.passes
    # alpha is the measured log-Holder constant of s, from the same scan
    assert w.declared_alpha == log_holder_estimate(GridFunction(g, sampled)).c_log_local


def _counting_shift_maxima(monkeypatch):
    calls = []
    scan = Grid.shift_maxima

    def counted(self, values, op):
        calls.append(op)
        return scan(self, values, op)

    monkeypatch.setattr(Grid, "shift_maxima", counted)
    return calls


def _counting_signed_scans(monkeypatch):
    calls = []
    scan = Grid.signed_shift_maxima

    def counted(self, values):
        calls.append(values)
        return scan(self, values)

    monkeypatch.setattr(Grid, "signed_shift_maxima", counted)
    return calls


def _counting_pruned_scans(monkeypatch):
    calls = []
    scan = Grid.pruned_scan

    def counted(self, values, op):
        calls.append(op)
        return scan(self, values, op)

    monkeypatch.setattr(Grid, "pruned_scan", counted)
    return calls


def _counting_scan_boxes(monkeypatch):
    # the boxes of shifts of every call of the one scan loop of Grid
    calls = []
    scan = Grid._scan

    def counted(self, values, op, boxes, M, neg=None):
        calls.append(boxes)
        return scan(self, values, op, boxes, M, neg)

    monkeypatch.setattr(Grid, "_scan", counted)
    return calls


@pytest.mark.parametrize("dim, n", [(1, 256), (2, 32)])
def test_variable_smoothness_runs_one_scan(dim, n, monkeypatch):
    g = Grid(dim, n)
    s = lambda *x: 0.5 + 0.3 * np.sin(2 * np.pi * x[0]) * np.cos(2 * np.pi * x[-1])
    scans = _counting_pruned_scans(monkeypatch)
    calls = _counting_shift_maxima(monkeypatch)
    signed = _counting_signed_scans(monkeypatch)
    w = make_variable_smoothness(g, J=5, s=s)
    # one signed scan; in 1D it is the dense one
    assert scans == [np.subtract]
    assert len(signed) == (1 if dim == 1 else 0)
    assert calls == []
    # the level scans of verify_admissible are the oracle for c
    c = roll_loop_condition_i(w)[0]
    assert w.declared_c / (1.0 + 1e-9) == pytest.approx(c, rel=1e-12)


@pytest.mark.parametrize("kind", ["varsmooth", "generalized"])
def test_constant_levels_skip_the_scan(kind, monkeypatch):
    g = Grid(1, 64)
    if kind == "varsmooth":
        w = make_variable_smoothness(g, J=4, s=lambda x: 0.5 + 0.3 * np.sin(2 * np.pi * x))
        # level 0 is 2^0 = 1 everywhere
        scanned = w.J
    else:
        w = make_generalized(g, J=4, sigma=[1.0, 1.5, 2.0, 3.5, 4.0])
        scanned = 0
    calls = _counting_shift_maxima(monkeypatch)
    rep = verify_admissible(w)
    assert len(calls) == scanned
    assert rep.passes
    assert (rep.measured_c, rep.measured_alpha, rep.witness_spatial) == roll_loop_condition_i(w)


def test_generalized_class():
    g = Grid(1, 32)
    sigma = [1.0, 1.5, 2.0, 3.5, 4.0, 4.2, 5.0]
    w = make_generalized(g, J=6, sigma=sigma)
    assert w.declared_alpha == 0.0
    ratios = np.array(sigma[1:]) / np.array(sigma[:-1])
    assert w.declared_alpha1 == pytest.approx(np.log2(ratios.min()))
    assert w.declared_alpha2 == pytest.approx(np.log2(ratios.max()))
    rep = verify_admissible(w)
    assert rep.passes
    assert rep.measured_c == 1.0  # constant in x
    with pytest.raises(ValueError):
        make_generalized(g, J=2, sigma=[1.0, -1.0, 2.0])


def test_weighted_family_measures_c():
    g = Grid(1, 64)
    w = make_weighted(g, J=5, rho=lambda x: 1.0 + np.cos(2 * np.pi * x) ** 2, s=1.0, beta=2.0)
    rep = verify_admissible(w)
    assert rep.passes
    assert rep.measured_alpha1 == pytest.approx(1.0, abs=1e-12)
    assert rep.measured_alpha2 == pytest.approx(1.0, abs=1e-12)


def test_weighted_rejects_bad_rho():
    g = Grid(1, 32)
    with pytest.raises(ValueError, match="positive"):
        make_weighted(g, J=2, rho=lambda x: np.cos(2 * np.pi * x), s=0.0, beta=1.0)
    # declared constant too small for a spiky rho
    with pytest.raises(ValueError, match="measured"):
        make_weighted(
            g, J=2, rho=lambda x: 1.0 + 100.0 * np.exp(-200 * (x - 0.5) ** 2), s=0.0, beta=0.5, c=1.0
        )


def test_verify_rejects_wrong_declaration():
    g = Grid(1, 32)
    good = make_2microlocal(g, J=4, s=1.0, s_prime=0.5, anchor_points=[[0.5]])
    bad = WeightSequence(
        g,
        good.levels,
        declared_alpha=abs(0.5),
        declared_alpha1=1.2,  # claims faster growth than actual
        declared_alpha2=1.5,
        declared_c=1.0,
    )
    rep = verify_admissible(bad)
    assert not rep.passes
    j, idx, ratio = rep.witness_levels
    assert ratio < 2.0**1.2


def test_witness_levels_is_the_worst_cell_over_all_levels():
    # levels 1, 4 and 4 with cell 3 times 2.5: against 2^alpha2 = 2 both
    # level ratios fail, and the ratio 4 at level 0 is the worst of them
    g = Grid(1, 16)
    top = np.full(16, 4.0)
    top[3] *= 2.5
    w = WeightSequence(g, (np.ones(16), np.full(16, 4.0), top), declared_alpha=0.0,
                       declared_alpha1=0.0, declared_alpha2=1.0, declared_c=1.0)
    rep = verify_admissible(w)
    assert not rep.passes and rep.measured_alpha2 == 2.0
    assert rep.witness_levels == (0, 0, 4.0)


def test_family_weights_carry_their_recipe():
    g, fine = Grid(1, 32), Grid(1, 64)
    s = lambda x: 0.2 + 0.1 * np.cos(2 * np.pi * x)
    for w in (
        make_2microlocal(g, 3, 0.5, -0.25, [[0.3]]),
        make_variable_smoothness(g, 3, s),
        make_generalized(g, 3, [1.0, 2.0, 4.0, 8.0]),
        make_weighted(g, 3, lambda x: 1.0 + s(x), 1.0, 2.0),
    ):
        assert w.refine(fine).grid == fine


def test_shift_is_exact_for_integer_sigma():
    g = Grid(1, 64)
    w = make_2microlocal(g, J=6, s=0.5, s_prime=-1.0, anchor_points=[[0.3]])
    base = verify_admissible(w)
    for sigma in (-2, 1, 3):
        ws = w.shifted(sigma)
        assert ws.declared_alpha1 == base.measured_alpha1 * 0 + w.declared_alpha1 + sigma
        rep = verify_admissible(ws)
        assert rep.passes
        assert abs(rep.measured_alpha1 - (base.measured_alpha1 + sigma)) <= 1e-12
        assert abs(rep.measured_alpha2 - (base.measured_alpha2 + sigma)) <= 1e-12
        assert rep.measured_c == base.measured_c  # spatial shape untouched


def test_truncated():
    g = Grid(1, 32)
    w = make_generalized(g, J=6, sigma=2.0 ** np.arange(7))
    w3 = w.truncated(3)
    assert w3.J == 3
    with pytest.raises(ValueError):
        w.truncated(9)


def test_refine_recipe():
    g = Grid(1, 32)
    w = make_variable_smoothness(g, J=4, s=lambda x: 0.2 + 0.1 * np.cos(2 * np.pi * x))
    w2 = w.refine(Grid(1, 64))
    assert w2.grid.n == 64 and w2.J == 4
    assert verify_admissible(w2).passes


def test_2d_scan():
    g = Grid(2, 16)
    w = make_2microlocal(g, J=3, s=0.5, s_prime=1.0, anchor_points=[[0.5, 0.5]])
    rep = verify_admissible(w)
    assert rep.passes
    assert (rep.measured_c, rep.measured_alpha, rep.witness_spatial) == roll_loop_condition_i(w)


def test_large_grid_scan_is_exact():
    # one point 0.1% above a flat level: every shift sees the ratio 1.001, and
    # the nearest shift gives c = 1.001 / (1 + 1/32768) > 1
    g = Grid(1, 32768)
    level = np.ones(g.shape)
    level[1000] = 1.001
    w = WeightSequence(g, (level,), declared_alpha=1.0, declared_alpha1=0.0,
                       declared_alpha2=0.0, declared_c=1.0)
    rep = verify_admissible(w)
    assert rep.passes is False
    assert (rep.measured_c, rep.measured_alpha, rep.witness_spatial) == roll_loop_condition_i(w)
    assert rep.measured_c == pytest.approx(1.001 / (1.0 + 1.0 / 32768), rel=1e-12)


@pytest.mark.parametrize(
    "dim, n, amp",
    [
        (1, 64, 0.4),
        (1, 64, 0.18),  # array powers (AVX-512) move measured_c by one ulp here
        (2, 16, 0.3),
    ],
)
def test_failed_scan_matches_roll_loop(dim, n, amp):
    g = Grid(dim, n)
    if dim == 1:
        s = lambda x: 0.5 + amp * np.sin(2 * np.pi * x)
    else:
        s = lambda x, y: 0.5 + amp * np.sin(2 * np.pi * x) * np.cos(2 * np.pi * y)
    good = make_variable_smoothness(g, J=4, s=s)
    # the grid-exact c of a varsmooth weight is 1 + slack, so lowering it to 1
    # alone cannot fail; halving alpha does
    bad = dataclasses.replace(good, declared_c=1.0, declared_alpha=good.declared_alpha / 2)
    rep = verify_admissible(bad)
    assert not rep.passes
    assert rep.measured_alpha > bad.declared_alpha
    c, alpha, witness = roll_loop_condition_i(bad)
    assert rep.measured_c == c
    assert rep.measured_alpha == alpha
    assert rep.witness_spatial == witness
    assert rep.measured_c > 1.2 and witness[0] > 0


@pytest.mark.parametrize("dim", [1, 2])
def test_tied_worst_shifts_keep_first_witness(dim):
    g = Grid(dim, 16)
    # a peak of 100 at the centre point with 50 on its axis neighbours,
    # symmetric about the centre: the worst ratio is 100 at the nearest shifts
    # past the neighbours, reached by s and -s at one distance
    level = np.ones(g.shape)
    centre = (8,) * dim
    for axis in range(dim):
        for step in (-1, 1):
            level[tuple(8 + step * (i == axis) for i in range(dim))] = 50.0
    level[centre] = 100.0
    w = WeightSequence(g, (level,), declared_alpha=1.0, declared_alpha1=0.0,
                       declared_alpha2=0.0, declared_c=1.0)
    rep = verify_admissible(w)
    c, alpha, witness = roll_loop_condition_i(w)
    assert (rep.measured_c, rep.measured_alpha, rep.witness_spatial) == (c, alpha, witness)
    shift = witness[1]
    mirror = tuple(-v % 16 for v in shift)
    assert mirror != shift and mirror > shift  # a real tie, broken by order
    axes = tuple(range(dim))
    assert np.max(level / np.roll(level, mirror, axis=axes)) == witness[2] == 100.0
    assert shift == ((2,) if dim == 1 else (1, 1))


def test_scan_memory_stays_bounded():
    # the scans work in bounded blocks; a single (shifts x points) block at
    # 2D N=64 would take 128 MiB
    g = Grid(2, 64)
    s = lambda x, y: 0.5 + 0.25 * np.sin(2 * np.pi * x) * np.cos(2 * np.pi * y)
    tracemalloc.start()
    try:
        w = make_variable_smoothness(g, J=5, s=s)
        build_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        verify_admissible(w)
        verify_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert build_peak < 2 * 2**20
    assert verify_peak < 2 * 2**20


@pytest.mark.parametrize("dim", [1, 2])
def test_constant_callables_broadcast(dim):
    g = Grid(dim, 16)
    full = lambda v: (lambda *x: np.full_like(x[0], v))
    for make, const in (
        (lambda f: make_variable_smoothness(g, 3, f), 0.5),
        (lambda f: make_weighted(g, 3, f, 1.0, 2.0), 2.0),
    ):
        got, want = make(lambda *x: const), make(full(const))
        assert all(a.tobytes() == b.tobytes() for a, b in zip(got.levels, want.levels))
        fields = ("declared_alpha", "declared_alpha1", "declared_alpha2", "declared_c")
        assert [getattr(got, f) for f in fields] == [getattr(want, f) for f in fields]
    with pytest.raises(ValueError, match="smoothness values must match the grid"):
        make_variable_smoothness(g, 3, lambda *x: np.ones(7))
    with pytest.raises(ValueError, match="rho values must match the grid"):
        make_weighted(g, 3, lambda *x: np.ones(7), 1.0, 2.0)


def _every_row(monkeypatch):
    # the dense path: every visit scans every row that is left
    visit = PrunedScan.visit
    monkeypatch.setattr(PrunedScan, "visit", lambda self, term, floor: visit(
        self, lambda M: np.full(M.shape, np.inf), floor))


_TWO_PI = 2 * np.pi

_WEIGHTS_2D = {
    "varsmooth x": lambda g, J: make_variable_smoothness(
        g, J, lambda x, y: 0.5 + 0.25 * np.sin(_TWO_PI * x)),
    "varsmooth y": lambda g, J: make_variable_smoothness(
        g, J, lambda x, y: 0.5 + 0.25 * np.sin(_TWO_PI * y)),
    "varsmooth xy": lambda g, J: make_variable_smoothness(
        g, J, lambda x, y: 0.5 + 0.3 * np.sin(_TWO_PI * x) * np.cos(_TWO_PI * y)),
    "2-microlocal": lambda g, J: make_2microlocal(g, J, 0.5, -0.25, [[0.5, 0.5]]),
    "2-microlocal off-centre": lambda g, J: make_2microlocal(g, J, 0.3, 1.0, [[0.137, 0.71]]),
    "weighted x": lambda g, J: make_weighted(
        g, J, lambda x, y: 1.0 + np.cos(_TWO_PI * x) ** 2, 1.0, 2.0),
    "weighted xy": lambda g, J: make_weighted(
        g, J, lambda x, y: 1.0 + np.cos(_TWO_PI * x) ** 2 * np.sin(_TWO_PI * (y - 0.2)) ** 2, 1.0, 1.5),
    "failing": lambda g, J: (lambda w: dataclasses.replace(
        w, declared_c=1.0, declared_alpha=w.declared_alpha / 2))(
        make_variable_smoothness(
            g, J, lambda x, y: 0.5 + 0.3 * np.sin(_TWO_PI * x) * np.cos(_TWO_PI * y))),
}


@pytest.mark.parametrize("n", [16, 32, 64])
def test_pruned_scans_keep_every_bit(n, monkeypatch):
    # every weight, built and verified with pruning, against the same built
    # and verified with every shift scanned; up to N=32 also against the
    # np.roll loop
    g, J = Grid(2, n), 4
    pruned = {}
    for name, make in _WEIGHTS_2D.items():
        w = make(g, J)
        pruned[name] = (w, verify_admissible(w))
    _every_row(monkeypatch)
    for name, make in _WEIGHTS_2D.items():
        w, rep = pruned[name]
        dense = make(g, J)
        assert (w.declared_c, w.declared_alpha) == (dense.declared_c, dense.declared_alpha), name
        assert rep == verify_admissible(dense), name
        if n <= 32:
            assert (rep.measured_c, rep.measured_alpha, rep.witness_spatial) == roll_loop_condition_i(w)
        if name == "failing":
            assert not rep.passes and rep.measured_alpha > w.declared_alpha


@pytest.mark.parametrize("axis", [0, 1])
def test_axis_aligned_weights_scan_only_axis_shifts(axis, monkeypatch):
    # s varies along one axis only: the bound of every off-axis shift is
    # below an axis shift of its row, so only the 2(n - 1) axis shifts of
    # each non-constant level are scanned (level 0 is 1 everywhere); the
    # weight's own signed scan takes the n shifts (k, 0), (0, k), k <= n/2
    g, J, n = Grid(2, 32), 5, 32
    s = lambda *x: 0.5 + 0.25 * np.sin(_TWO_PI * x[axis])
    boxes = _counting_scan_boxes(monkeypatch)
    w = make_variable_smoothness(g, J, s)
    assert _shifts(boxes) == n
    boxes.clear()
    verify_admissible(w)
    assert _shifts(boxes) == J * 2 * (n - 1)


def test_constant_smoothness_scans_only_the_axis_shifts(monkeypatch):
    # s = 0.5 repeats under every axis shift, so every other shift's maximum
    # is known from the axis shifts: the signed scan takes its n axis shifts
    # and no row, and alpha and c are the full scan's, bit for bit
    g, J, n = Grid(2, 32), 5, 32
    D = g.signed_shift_maxima(np.full(g.shape, 0.5))  # every shift scanned
    spread = np.maximum(D, D[g.reflections]) * np.log(np.e + 1.0 / g.shift_distances)
    alpha = max(0.0, np.max(spread))
    growth = [(1.0 + 2.0**j * g.shift_distances) ** alpha for j in range(1, J + 1)]
    c = max([1.0] + [float(np.max(2.0 ** (j * D) / r)) for j, r in enumerate(growth, 1)])
    boxes = _counting_scan_boxes(monkeypatch)
    w = make_variable_smoothness(g, J, lambda x, y: 0.5)
    assert _shifts(boxes) == n
    assert (w.declared_alpha, w.declared_c) == (float(alpha), c * (1.0 + _REL_SLACK))


def _shifts(calls):
    return sum((k1 - k0) * (b1 - b0) for boxes in calls for (k0, k1), (b0, b1) in boxes)


def test_2microlocal_scan_reaches_every_row(monkeypatch):
    # almost every shift of a 2-microlocal weight is near-critical: each
    # level scans at least 90% of its shifts, and every row is scanned
    g, J, n = Grid(2, 32), 5, 32
    w = make_2microlocal(g, J, 0.5, -0.25, [[0.5, 0.5]])
    scans = []
    scan = Grid.pruned_scan
    monkeypatch.setattr(Grid, "pruned_scan", lambda *args: scans.append(scan(*args)) or scans[-1])
    verify_admissible(w)
    assert len(scans) == J + 1
    seen = [np.append(True, s.scanned).reshape(n, n) for s in scans]
    assert min(s.mean() for s in seen) >= 0.9
    assert np.logical_or.reduce(seen).all(axis=1).all()
