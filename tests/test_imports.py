"""Import-time constraints on the package."""

import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def _fresh_import(imports: str, check: str):
    # A fresh interpreter, so that no other test's imports count.
    code = f"import sys\nimport {imports}\n{check}\n"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr


def test_package_imports_no_scipy():
    _fresh_import("noisycur, noisycur.cli, noisycur.harness, noisycur.theory",
                  "assert 'scipy' not in sys.modules, "
                  "'noisycur imported scipy'")


def test_package_imports_no_multiprocessing():
    # The process pool is imported only by a sweep with workers > 1.
    _fresh_import("noisycur, noisycur.cli, noisycur.harness",
                  "assert 'multiprocessing' not in sys.modules, "
                  "'noisycur imported multiprocessing'")
