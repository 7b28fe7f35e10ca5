import os
import subprocess
import sys

import vexspaces


def test_package_import_needs_numpy_only():
    # scipy is not a dependency, and sympy (with its mpmath) is imported
    # only when a MultiplierSymbol is built
    src = os.path.dirname(os.path.dirname(vexspaces.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = (
        "import sys, vexspaces, vexspaces.cli.main\n"
        "print(' '.join(sorted(m for m in sys.modules"
        " if m.split('.')[0] in ('scipy', 'sympy', 'mpmath'))))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path}, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []
