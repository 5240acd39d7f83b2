"""Import-time constraints on the package."""

import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def test_package_imports_no_scipy():
    # A fresh interpreter, so that no other test's import of scipy counts.
    code = ("import sys\n"
            "import noisycur, noisycur.cli, noisycur.harness, noisycur.theory\n"
            "assert 'scipy' not in sys.modules, 'noisycur imported scipy'\n")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
