import sys
import tracemalloc
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

AMAZON_N = 553_949
AMAZON_K = 4_962


@pytest.fixture(scope="session")
def amazon_stats():
    return AMAZON_N, AMAZON_K


@pytest.fixture(scope="session")
def amazon_abundance_csv(tmp_path_factory):
    """Synthetic abundance file carrying the Amazon sufficient statistics."""
    from sigmadiv.datamodel import PartitionData, write_abundance_csv

    data = PartitionData.from_freq_counts({1: AMAZON_K - 1, AMAZON_N - (AMAZON_K - 1): 1})
    assert data.n == AMAZON_N and data.k == AMAZON_K
    path = tmp_path_factory.mktemp("amazon") / "amazon_abundance.csv"
    write_abundance_csv(data, str(path))
    return str(path)


@pytest.fixture
def traced_peak():
    """fn -> (fn(), the peak of the memory traced while it ran, in MiB)."""
    def run(fn):
        tracemalloc.start()
        try:
            return fn(), tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()

    return run
