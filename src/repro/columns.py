"""Interning for the batched accounting paths.

The slice pass, the link fabric's batched transfers, the staging
prelude and the migration observer all fold many rows onto a few keys
— (src, dst) links, (resource, GPM) pairs, (slice, GPM) demand slots —
and must insert those keys in the order their first row arrives, as a
walk over the rows would.  :func:`first_use` finds them by indexing a
table as long as the key space, so no row is sorted.

Callers look :func:`first_use` up on this module at call time
(``columns.first_use``), so the test suite's oracle table
(``tests/oracles.py``) swaps in its ``np.unique`` reference for every
caller at once.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

__all__ = ["first_use"]


def first_use(
    keys: np.ndarray, size: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``keys``' distinct values in order of first use, the row of each
    one's first use, and every row's index into them.

    ``keys`` are integers in ``[0, size)``.  The answer is what
    ``np.unique(keys, return_index=True, return_inverse=True)`` gives,
    reordered by first use; a ``size``-long table of first rows
    (``np.minimum.at``) finds it without sorting.
    """
    rows = np.arange(keys.size)
    first = np.full(size, keys.size, np.int64)
    np.minimum.at(first, keys, rows)
    starts = np.flatnonzero(first[keys] == rows)
    distinct = keys[starts]
    index = np.empty(size, np.int64)
    index[distinct] = np.arange(distinct.size)
    return distinct, starts, index[keys]
