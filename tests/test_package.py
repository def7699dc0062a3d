"""Package surface: the public name list and the cost of importing it."""

import os
import subprocess
import sys
from pathlib import Path

import ionsurgery as isg


def test_public_names_resolve_and_are_listed_once():
    assert len(isg.__all__) == len(set(isg.__all__))
    missing = [name for name in isg.__all__ if not hasattr(isg, name)]
    assert missing == []


def test_import_does_not_load_scipy_stats():
    # scipy.stats costs most of a second and tens of MB on import; the
    # package needs only scipy.special
    code = "import sys, ionsurgery; print('scipy.stats' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(isg.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env)
    assert out.stdout.strip() == "False"
