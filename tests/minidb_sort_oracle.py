"""The sort-based key handling MiniDB's executor used to ship.

Kept as the reference the dense-code kernels in
``repro.minidb.executor`` are checked against: ``np.unique`` ranks per
column, a stable ``argsort`` of the build side and two ``searchsorted``
per join. Only valid while the mixed-radix product fits ``int64`` (it
has no overflow guard), which holds for every use in the tests.
"""

from __future__ import annotations

import numpy as np


def composite_codes(left_keys, right_keys):
    left_codes = np.zeros(len(left_keys[0]), dtype=np.int64)
    right_codes = np.zeros(len(right_keys[0]), dtype=np.int64)
    for lk, rk in zip(left_keys, right_keys):
        both = np.concatenate([np.asarray(lk), np.asarray(rk)])
        uniq, inverse = np.unique(both, return_inverse=True)
        base = len(uniq) + 1
        left_codes = left_codes * base + inverse[: len(lk)]
        right_codes = right_codes * base + inverse[len(lk):]
    return left_codes, right_codes


def equi_match(probe_codes, build_codes):
    order = np.argsort(build_codes, kind="stable")
    sorted_build = build_codes[order]
    left = np.searchsorted(sorted_build, probe_codes, side="left")
    right = np.searchsorted(sorted_build, probe_codes, side="right")
    counts = right - left
    total = int(counts.sum())
    probe_idx = np.repeat(np.arange(len(probe_codes)), counts)
    offsets = np.repeat(np.cumsum(counts) - counts, counts)
    build_idx = order[np.repeat(left, counts) + np.arange(total) - offsets]
    return probe_idx, build_idx


def group_codes(arrays):
    codes = np.zeros(len(arrays[0]), dtype=np.int64)
    for values in arrays:
        uniq, inverse = np.unique(np.asarray(values), return_inverse=True)
        codes = codes * (len(uniq) + 1) + inverse
    return codes
