"""Deterministic seed derivation for replayable experiment cells.

Every randomized stage takes an explicit ``numpy.random.Generator``.
cell_seed folds a master seed plus a structured key (algorithm name, grid
position, trial index, ...) into a single 64-bit seed, so any cell of a sweep
can be re-run in isolation from the seed recorded in its output row.
"""

import hashlib

__all__ = ["cell_seed"]


def cell_seed(master_seed: int, *key) -> int:
    """Stable 64-bit seed for one cell, from a master seed and a key tuple.

    The key parts are stringified, so mixed int/str keys are fine.  The same
    (master_seed, key) always maps to the same seed, independent of platform
    and process.
    """
    text = ":".join([str(int(master_seed))] + [str(part) for part in key])
    digest = hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little")

