"""Spans recorded from outside the library, around calls into its layers.

The library re-binds public functions by name across modules (for example
`lebesgue.norm` is `lebesgue_norm` inside `mixed`, `spaces` and
`cli.main`), so a patch of one module attribute would miss most calls.
`Tracer.install` replaces every binding of each target, in every loaded
`vexspaces` module, with a recording wrapper; `uninstall` puts the original
objects back.  Nothing inside `src/` is modified.

A span is `[name, start, end, parent, report, work, key]`: `parent` is the
index of the enclosing span (-1 at top level), `report` the id of the
report that was running, `work` a computed count (FFT points, shifts
scanned) and `key` a content hash used for the `unique_frac` ratios.
"""

import functools
import hashlib
import importlib
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

NAME, START, END, PARENT, REPORT, WORK, KEY = range(7)


def _digest(*arrays):
    h = hashlib.sha1()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(str(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def _spec_key(spec):
    # content, not identity: lift-check rebuilds equal specs with replace()
    return _digest(
        np.array([ord(spec.scale), spec.J]),
        spec.p.values,
        spec.q.values,
        *spec.w.levels[: spec.J + 1],
        *spec.system.masks,
    )


def _quasi_norm_key(f, spec, *_, **__):
    return _digest(f.samples) + _spec_key(spec)


def _smoothness_key(grid, J, s):
    values = s(*grid.coords) if callable(s) else s
    return _digest(np.array([grid.dim, grid.n, J]), np.asarray(values, dtype=float))


def _points(f):
    return f.grid.num_points


def _synth_points(grid, coeffs):
    return grid.num_points


def _shifts(g):
    return g.grid.num_points - 1


# (span name, module, attribute path, work counter, content key)
TARGETS = (
    ("grid.convolve", "grid", "convolve", None, None),
    ("grid.fft", "grid", "coefficients", _points, None),
    ("grid.fft", "grid", "synthesize", _synth_points, None),
    ("exponents.log_holder_estimate", "exponents", "log_holder_estimate", _shifts, None),
    ("weights.make_variable_smoothness", "weights", "make_variable_smoothness", None,
     _smoothness_key),
    ("weights.verify_admissible", "weights", "verify_admissible", None, None),
    ("lebesgue.norm", "lebesgue", "norm", None, None),
    ("mixed.lq_lp_norm", "mixed", "lq_lp_norm", None, None),
    ("mixed.lq_lp_modular", "mixed", "lq_lp_modular", None, None),
    ("mixed.lp_lq_norm", "mixed", "lp_lq_norm", None, None),
    ("analysis.littlewood_paley", "analysis", "littlewood_paley", None, None),
    ("analysis.peetre_maximal", "analysis", "peetre_maximal", None, None),
    ("analysis.local_means", "analysis", "local_means", None, None),
    ("analysis.lift", "analysis", "lift", None, None),
    ("analysis.apply_multiplier", "analysis", "apply_multiplier", None, None),
    ("analysis.MultiplierSymbol", "analysis", "MultiplierSymbol.__init__", None, None),
    ("analysis.MultiplierSymbol", "analysis", "MultiplierSymbol.sample", None, None),
    ("analysis.MultiplierSymbol", "analysis", "MultiplierSymbol.derivative", None, None),
    ("spaces.quasi_norm", "spaces", "quasi_norm", None, _quasi_norm_key),
    ("spaces.quasi_norm_maximal", "spaces", "quasi_norm_maximal", None, None),
    ("spaces.quasi_norm_local_means", "spaces", "quasi_norm_local_means", None, None),
    ("spaces.SpaceSpec.refine", "spaces", "SpaceSpec.refine", None, None),
    ("spaces.standard_corpus", "spaces", "standard_corpus", None, None),
    ("spaces.check", "spaces", "pair_independence_check", None, None),
    ("spaces.check", "spaces", "lifting_check", None, None),
    ("spaces.check", "spaces", "maximal_equivalence_check", None, None),
    ("spaces.check", "spaces", "local_means_equivalence_check", None, None),
    ("spaces.check", "spaces", "multiplier_bound_checks", None, None),
    ("cli.main", "cli.main", "main", None, None),
)


class Tracer:
    """Records spans while installed; `report` tags spans with a report id."""

    def __init__(self):
        self.spans = []
        self.report = 0
        self._stack = []
        self._patches = []  # (owner, attribute, original object)

    def _wrap(self, fn, name, work, key):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [
                name,
                0.0,
                0.0,
                stack[-1] if stack else -1,
                self.report,
                work(*args, **kwargs) if work else 0,
                key(*args, **kwargs) if key else None,
            ]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                stack.pop()

        return traced

    def install(self):
        if self._patches:
            raise RuntimeError("tracer is already installed")
        owners = {m: importlib.import_module("vexspaces." + m) for _, m, *_ in TARGETS}
        loaded = [m for n, m in sorted(sys.modules.items()) if n.startswith("vexspaces")]
        for name, module, path, work, key in TARGETS:
            owner = owners[module]
            *cls_path, attr = path.split(".")
            if cls_path:
                # a method: one binding, in the class namespace
                cls = getattr(owner, cls_path[0])
                original = cls.__dict__[attr]
                self._patches.append((cls, attr, original))
                setattr(cls, attr, self._wrap(original, name, work, key))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(original, name, work, key)
            for mod in loaded:
                for binding, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, binding, original))
                        setattr(mod, binding, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        patched, self._patches = self._patches, []
        return patched


def restored(patched):
    """True when every binding a tracer replaced holds its original again."""
    return all(vars(owner)[attr] is original for owner, attr, original in patched)


# ------------------------------------------------------------- aggregation


FIELDS = ("calls", "busy_s", "self_s", "work", "distinct")


def profile(spans, keep):
    """Per-name sums over the spans whose report id passes keep(): a dict
    field -> {name: value} for each of FIELDS.  busy_s counts a call nested
    in a call of the same name once; self_s leaves out the child spans;
    distinct counts different keys within each report."""
    out = {field: defaultdict(float) for field in FIELDS}
    children = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            children[s[PARENT]] += s[END] - s[START]
    seen = set()
    for i, s in enumerate(spans):
        if not keep(s[REPORT]):
            continue
        name, dur = s[NAME], s[END] - s[START]
        out["calls"][name] += 1
        out["self_s"][name] += dur - children[i]
        out["work"][name] += s[WORK]
        if not _has_ancestor(spans, i, name):
            out["busy_s"][name] += dur
        if s[KEY] is not None and (s[REPORT], s[KEY]) not in seen:
            seen.add((s[REPORT], s[KEY]))
            out["distinct"][name] += 1
    return out


def _has_ancestor(spans, i, name):
    parent = spans[i][PARENT]
    while parent >= 0:
        if spans[parent][NAME] == name:
            return True
        parent = spans[parent][PARENT]
    return False


def write_spans(spans, path):
    with open(path, "w") as fh:
        fh.write("id,name,start,end,parent,report\n")
        for i, s in enumerate(spans):
            fh.write(f"{i},{s[NAME]},{s[START]!r},{s[END]!r},{s[PARENT]},{s[REPORT]}\n")
