"""The pin machinery of :mod:`repro.check.pins`: each suite stores
exactly its cases, the writer is canonical, and a check names the row
that moved.  The pinned cases run in ``test_golden_replays.py``,
``test_design_digest.py`` and ``test_hca_transport_digest.py``."""

import json
import shutil
from pathlib import Path

import pytest

from repro.check import pins

TESTS = Path(__file__).parent


@pytest.mark.parametrize("name", pins.SUITES)
def test_stored_keys_are_the_cases(name):
    assert sorted(pins.load(TESTS, name)) == \
        sorted(pins.SUITES[name](TESTS))


def test_writer_round_trip(tmp_path):
    path = tmp_path / "t.json"
    pins.write_json(str(path), {"b": {"state": "ff", "events": 2},
                                "a": {"events": 1, "clock": "0.5"}})
    first = path.read_bytes()
    pins.write_json(str(path), pins.read_json(path))
    assert path.read_bytes() == first
    assert first.endswith(b"}\n")
    assert list(json.loads(first)) == ["a", "b"]
    assert list(json.loads(first)["b"]) == ["events", "state"]


@pytest.mark.parametrize("name", pins.SUITES)
def test_storing_the_loaded_records_is_byte_identical(name, tmp_path):
    # the corpus writer keeps each file's stored spec
    shutil.copytree(TESTS / "corpus", tmp_path / "corpus")
    pins.store(str(tmp_path), name, pins.load(TESTS, name))
    for path in tmp_path.rglob("*.json"):
        rel = path.relative_to(tmp_path)
        assert path.read_bytes() == (TESTS / rel).read_bytes(), rel


def test_check_names_the_edited_row(tmp_path, capsys):
    stub = {"stub": lambda root: {
        "one": lambda: pins.left_behind(1e-6, 3, ["a"]),
        "two": lambda: pins.left_behind(2e-6, 5, ["b"]),
        "raises": lambda: 1 // 0}}
    root = str(tmp_path)
    assert pins.pin(root, update=True, suites=stub) == 0
    assert pins.pin(root, suites=stub) == 0
    table = pins.load(root, "stub")
    assert table["raises"] == {"error": "ZeroDivisionError"}
    table["two"]["events"] = 6
    pins.store(root, "stub", table)
    capsys.readouterr()
    assert pins.pin(root, suites=stub) == 1
    named = [ln for ln in capsys.readouterr().out.splitlines()
             if "pinned" in ln]
    assert len(named) == 1 and named[0].startswith("stub two:")
    assert pins.moved(root, "stub", suites=stub) == {
        "two": (dict(table["two"]), pins.left_behind(2e-6, 5, ["b"]))}
