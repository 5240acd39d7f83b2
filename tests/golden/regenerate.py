"""Rewrite the recorded sweep outputs in this directory.

    PYTHONPATH=src python tests/golden/regenerate.py

runs the fig2, four-algorithm and reduced ratings sweeps of
tests/test_acceptance.py with that module's own configs and writes what
test_sweeps_match_recorded_files compares byte for byte: each sweep's
CSV without wall times and its resolved config, and host.json, the
numpy, BLAS and BLAS thread count they were made with.  Regenerate only
from a commit whose sweeps are known to be right, and say in CHANGES.md
why the files moved.
"""

import json
import os
import pathlib
import sys
import tempfile

# one BLAS thread, as tests/conftest.py sets it, before numpy is imported
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

import test_acceptance as acceptance  # noqa: E402

from noisycur.harness import config_from_dict, run_sweep  # noqa: E402


def main():
    with tempfile.TemporaryDirectory() as tmp:
        jokes = acceptance.write_jokes_file(pathlib.Path(tmp) / "jokes.csv")
        for name, raw in (("fig2", acceptance.FIG2_RAW),
                          ("all_algorithms", acceptance.ALL_ALGORITHMS_RAW),
                          ("jester", acceptance.jester_raw(jokes))):
            cfg = config_from_dict(raw)
            acceptance.write_golden(HERE, name, cfg, run_sweep(cfg))
    (HERE / "host.json").write_text(
        json.dumps(acceptance.host_fingerprint(), indent=2, sort_keys=True)
        + "\n")


if __name__ == "__main__":
    main()
