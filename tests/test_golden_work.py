"""Golden work lines: one batch of each benchmark workload at seeds 1-3, against committed values.

``bench/workloads.py`` is loaded, never changed. Every value below must
repeat on any machine, so a byte of CLI output or a count of work moved
by a refactor fails here. A change that moves one on purpose updates it
and says why in CHANGES.md.
"""

import pytest


def _cache(hits, misses):
    return {"schur_cache_hits": hits, "schur_cache_misses": misses}


ORACLE = {"queries": 110, "nonzero": 338, "coeff_sum": 342, **_cache(513, 45)}
LR_TABLE = {"queries": 12529, "nonzero": 4954, "witnesses": 21343, **_cache(0, 0)}


def _cli(stdout_bytes, sha256, hits, misses):
    return {"calls": 145, "stdout_bytes": stdout_bytes, "nonzero_exits": 0, "stdout_sha256": sha256,
            **_cache(hits, misses)}


GOLDEN = {
    ("oracle", 1): ORACLE,
    ("oracle", 2): ORACLE,
    ("oracle", 3): ORACLE,
    ("lr_table", 1): LR_TABLE,
    ("lr_table", 2): LR_TABLE,
    ("lr_table", 3): LR_TABLE,
    ("cli", 1): _cli(247471, "7551badc981fcde437a4d34596cfab334fd3caef4cf4c27c07482a38a7a4e49c", 66, 26),
    ("cli", 2): _cli(245995, "ba8e44ac2c2f24f3ea519e45123da1da1f4856cbc152d4c6965b23efad0f2b9d", 67, 25),
    ("cli", 3): _cli(245131, "f7caf3aa6e541288c4aa97152547b394a21e9d8c2cf23494937e727bd943e9f0", 67, 25),
}


@pytest.mark.parametrize("name, seed", list(GOLDEN))
def test_one_batch_repeats_its_golden_work_line(workloads, name, seed):
    workload = workloads.WORKLOADS[name](seed)
    workloads.SCHUR_POLYNOMIAL.cache_clear()  # the cache counts are those of a cold start
    batch = workload.run_batch()
    assert batch.failed == 0
    assert batch.work == GOLDEN[name, seed]
