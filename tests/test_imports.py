import os
import subprocess
import sys

import vexspaces


def _run(code):
    src = os.path.dirname(os.path.dirname(vexspaces.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path}, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


_FOREIGN = (
    "print(' '.join(sorted(m for m in sys.modules"
    " if m.split('.')[0] in ('scipy', 'sympy', 'mpmath'))))"
)


def test_package_import_needs_numpy_only():
    # neither scipy nor sympy (with its mpmath) is a dependency
    out = _run("import sys, vexspaces, vexspaces.cli.main\n" + _FOREIGN)
    assert out.split() == []


def test_multiplier_symbols_run_without_sympy():
    # with sympy unimportable, symbols are built, sampled and differentiated
    # in 1D and 2D, and multiplier-check exits 0
    code = (
        "import sys\n"
        "sys.modules['sympy'] = None\n"
        "import numpy as np\n"
        "from vexspaces import Grid\n"
        "from vexspaces.analysis import MultiplierSymbol, symbol_derivative_norm\n"
        "from vexspaces.cli import main\n"
        "for dim, text in ((1, 'xi1 * (1 + xi1^2)^(-1/2)'),"
        " (2, 'xi1 * (1 + xi1^2 + xi2^2)^(-1/2)')):\n"
        "    m = MultiplierSymbol(text, dim)\n"
        "    grid = Grid(dim, 16)\n"
        "    assert np.all(np.isfinite(m.sample(grid)))\n"
        "    assert np.all(np.isfinite(m.derivative((1,) * dim, *grid.xi)))\n"
        "    assert np.isfinite(symbol_derivative_norm(m, 1, grid))\n"
        "code = main.main(['multiplier-check', '--symbol', 'xi1 * (1 + xi1^2)^(-1/2)',"
        " '--corpus-size', '2'])\n"
        "assert code == 0, code\n"
        "sys.modules.pop('sympy')\n" + _FOREIGN
    )
    out = _run(code)
    assert out.splitlines()[-1].split() == []
