"""Shared helpers for the figure-reproduction benchmarks.

Every benchmark regenerates one of the paper's figures through the
simulated stack, saves the data table under ``benchmarks/results/``,
prints it, and asserts the figure's qualitative shape.

``bench_recorder`` additionally accumulates machine-readable entries
(:mod:`repro.obs.gate` schema) for the requesting file's suite —
``test_bench_<suite>.py`` records into ``BENCH_<suite>.json`` — and
writes that file to ``benchmarks/results/``, its only location, at
session end: the artifact CI uploads and the regression gate compares
against ``benchmarks/baselines/``.
"""

import pathlib

import pytest

from repro.obs import gate as obs_gate

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
BASELINE_DIR = pathlib.Path(__file__).parent / "baselines"


@pytest.fixture(scope="session")
def results_dir():
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


class BenchRecorder:
    """Collects ``repro-bench/1`` entries across a benchmark session."""

    def __init__(self, suite: str):
        self.suite = suite
        self.entries = []

    def add(self, design, metric, size, value, counters=None):
        entry = {"design": design, "metric": metric, "size": size,
                 "value": value}
        if counters:
            entry["counters"] = counters
        self.entries.append(entry)
        return entry

    def document(self):
        return obs_gate.make_result(self.suite, self.entries)

    def gate(self, rtol: float = 0.10):
        """Regression messages vs the committed baseline (None when no
        baseline has been committed yet)."""
        baseline = BASELINE_DIR / f"BENCH_{self.suite}.json"
        return obs_gate.gate_against_baseline(baseline,
                                              self.document(),
                                              rtol=rtol)


@pytest.fixture(scope="session")
def _recorders(results_dir):
    """suite name -> BenchRecorder, each written once at session end."""
    recorders = {}
    yield recorders
    for rec in recorders.values():
        if rec.entries:
            obs_gate.write_result(
                results_dir / f"BENCH_{rec.suite}.json", rec.suite,
                rec.entries)


@pytest.fixture(scope="module")
def bench_recorder(request, _recorders):
    """The recorder of the suite the requesting file is named after
    (``test_bench_adaptive.py`` -> ``adaptive``); each suite is gated
    against its own baseline at the tolerance its file passes."""
    suite = request.module.__name__.rpartition("test_bench_")[2]
    if suite not in _recorders:
        _recorders[suite] = BenchRecorder(suite)
    return _recorders[suite]


@pytest.fixture
def record_figure(results_dir, capsys):
    """Save + show a FigureData table."""

    def _record(data, name=None):
        name = name or data.figure.replace(" ", "").lower()
        text = data.table() if hasattr(data, "table") else str(data)
        (results_dir / f"{name}.txt").write_text(text + "\n")
        with capsys.disabled():
            print("\n" + text)
        return data

    return _record
