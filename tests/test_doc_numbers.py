"""Every headline number the docs quote is the one the benchmark printed.

``benchmarks/results/headline.txt`` is regenerated by
``benchmarks/test_headline_numbers.py``.  README.md, EXPERIMENTS.md and
docs/MODEL.md quote its measured column inline; each quote below must
equal the results file rounded half-up to the quote's own precision,
so editing the file without the docs, or the reverse, fails here.
"""

import re
from decimal import ROUND_HALF_UP, Decimal
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
HEADLINE = ROOT / "benchmarks" / "results" / "headline.txt"

RAW_LAT = "raw latency (us)"
RAW_BW = "raw write peak bw (MB/s)"
BASIC_LAT = "basic latency (us)"
BASIC_BW = "basic peak bw (MB/s)"
PIGGY_LAT = "piggyback latency (us)"
PIPE_BW = "pipeline peak bw (MB/s)"
ZC_LAT = "zero-copy latency (us)"
ZC_BW = "zero-copy peak bw (MB/s)"

_N = r"([\d.]+)"

#: (doc, pattern with one group per number, the headline rows quoted)
QUOTES = [
    ("README.md", rf"\| raw IB latency / peak bw \| [^|]+\| ~{_N} µs / "
     rf"~{_N} MB/s \|", (RAW_LAT, RAW_BW)),
    ("README.md", rf"\| basic design \| [^|]+\| ~{_N} µs / ~{_N} MB/s \|",
     (BASIC_LAT, BASIC_BW)),
    ("README.md", rf"\| piggybacking latency \| [^|]+\| ~{_N} µs \|",
     (PIGGY_LAT,)),
    ("README.md", rf"\| pipelining peak bw \| [^|]+\| ~{_N} MB/s \|",
     (PIPE_BW,)),
    ("README.md", rf"\| zero-copy \| [^|]+\| ~{_N} µs / ~{_N} MB/s \|",
     (ZC_LAT, ZC_BW)),
    ("EXPERIMENTS.md", rf"\| raw IB write latency \(4 B\) \| [^|]+\| "
     rf"{_N} µs \|", (RAW_LAT,)),
    ("EXPERIMENTS.md", rf"\| raw IB write peak bandwidth \| [^|]+\| "
     rf"{_N} MB/s \|", (RAW_BW,)),
    ("EXPERIMENTS.md", rf"\| basic design latency \| [^|]+\| {_N} µs \|",
     (BASIC_LAT,)),
    ("EXPERIMENTS.md", rf"\| basic design peak bandwidth \| [^|]+\| "
     rf"{_N} MB/s \|", (BASIC_BW,)),
    ("EXPERIMENTS.md", rf"\| piggybacking latency \| [^|]+\| {_N} µs \|",
     (PIGGY_LAT,)),
    ("EXPERIMENTS.md", rf"\| pipelining peak bandwidth \| [^|]+\| "
     rf"{_N} MB/s \|", (PIPE_BW,)),
    ("EXPERIMENTS.md", rf"\| zero-copy latency \| [^|]+\| {_N} µs \|",
     (ZC_LAT,)),
    ("EXPERIMENTS.md", rf"\| zero-copy peak bandwidth \| [^|]+\| "
     rf"{_N} MB/s \|", (ZC_BW,)),
    ("EXPERIMENTS.md", rf"Measured: flat {_N} µs", (BASIC_LAT,)),
    ("EXPERIMENTS.md", rf"{_N} MB/s at 64 KB\.", (BASIC_BW,)),
    ("EXPERIMENTS.md", rf"Measured: {_N} → {_N} µs",
     (BASIC_LAT, PIGGY_LAT)),
    ("EXPERIMENTS.md", rf"\({_N} at 256 KB\)", (PIPE_BW,)),
    ("EXPERIMENTS.md", rf"zero-copy {_N} at 1 MB", (ZC_BW,)),
    ("EXPERIMENTS.md", rf"messages \({_N} vs {_N}", (PIGGY_LAT, ZC_LAT)),
    ("EXPERIMENTS.md", rf"vs {_N} µs / {_N} MB/s zero-copy",
     (ZC_LAT, ZC_BW)),
    ("docs/MODEL.md", rf"zero-copy latency is {_N} \+ 0\.4 = {_N} µs",
     (PIGGY_LAT, ZC_LAT)),
]


def _headline():
    """Row label -> the measured column exactly as printed."""
    rows = {}
    for line in HEADLINE.read_text().splitlines()[1:]:
        label, _paper, measured, _ratio = re.fullmatch(
            r"(.+?)\s{2,}(\S+)\s+(\S+)\s+(\S+)x", line).groups()
        rows[label] = measured
    return rows


def _rounded(printed: str, quoted: str) -> Decimal:
    places = len(quoted.partition(".")[2])
    return Decimal(printed).quantize(Decimal(1).scaleb(-places),
                                     rounding=ROUND_HALF_UP)


def test_every_headline_row_is_quoted():
    rows = _headline()
    assert len(rows) == 8
    quoted = {row for _doc, _pat, names in QUOTES for row in names}
    assert quoted == set(rows)


@pytest.mark.parametrize("doc,pattern,names", QUOTES,
                         ids=[f"{d}#{i}" for i, (d, _p, _n)
                              in enumerate(QUOTES)])
def test_quote_matches_the_results_file(doc, pattern, names):
    rows = _headline()
    text = re.sub(r"\s*\n\s*", " ", (ROOT / doc).read_text())
    found = re.findall(pattern, text)
    assert found, f"{doc} no longer quotes {names}"
    for groups in found:
        groups = (groups,) if isinstance(groups, str) else groups
        for name, quoted in zip(names, groups):
            assert Decimal(quoted) == _rounded(rows[name], quoted), (
                f"{doc} quotes {name} as {quoted}; "
                f"headline.txt has {rows[name]}")
