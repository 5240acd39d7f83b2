"""Shared fixtures."""

import dataclasses
import os

# One BLAS thread for the whole test run, set before numpy is first
# imported: on a small host the default thread count makes the BLAS-heavy
# acceptance runs several times slower.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import noisycur.theory as theory


@pytest.fixture
def svd_shapes(monkeypatch):
    """Shapes of the inputs of every np.linalg.svd call, in call order."""
    calls = []
    svd = np.linalg.svd

    def counting_svd(*args, **kwargs):
        calls.append(args[0].shape)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    return calls


@pytest.fixture
def shrunken_sketch(monkeypatch):
    """Make the bound checkers sketch with scales cut tenfold.

    The draws are the real ones and the reported distortion is the one
    measured before the cut, so every constant is computed as usual while
    S S^T on the span shrinks to about 1/100 of a verified embedding.  A
    deterministic bound fed this sketch is violated on purpose.
    """
    real = theory.draw_embedding_sketch

    def draw(*args, **kwargs):
        sketch, measured, draws = real(*args, **kwargs)
        return (dataclasses.replace(sketch, scales=sketch.scales * 0.1),
                measured, draws)

    monkeypatch.setattr(theory, "draw_embedding_sketch", draw)
