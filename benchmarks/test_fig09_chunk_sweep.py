"""Fig. 9 — pipeline chunk-size sweep: 1 KB chunks drown in per-chunk
overheads, 32 KB chunks stall the pipeline; the paper picks 16 KB."""

import pytest

from repro.bench import figures


@pytest.fixture(scope="module")
def sweep():
    """The sweep takes over a minute: both tests read one run."""
    return figures.fig09()


def _at_256k(data):
    return {name: data.at(name, 256 * 1024) for name in data.series}


def test_fig09_chunk_sweep(sweep, record_figure):
    record_figure(sweep)
    at_256k = _at_256k(sweep)
    best = max(at_256k.values())
    # 1K chunks are clearly bad (paper: worst curve)
    assert at_256k["1K"] < 0.7 * best
    # 8K and 16K are the plateau
    assert at_256k["8K"] > 0.9 * best
    assert at_256k["16K"] > 0.9 * best


@pytest.mark.xfail(strict=True, reason=(
    "the model does not reproduce the paper's ordering: 32K chunks "
    "reach 506.2 MB/s at 256 KB messages, 16K chunks 496.4 "
    "(EXPERIMENTS.md, known deviation 5)"))
def test_fig09_32k_loses_to_16k(sweep):
    # 32K chunks lose to 16K for large messages (pipeline stalls)
    at_256k = _at_256k(sweep)
    assert at_256k["32K"] < at_256k["16K"]
