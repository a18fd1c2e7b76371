"""Golden replay corpus: ten generated specs pinned on every design
(:mod:`repro.check.pins`).  A case raises the oracle's first failure
if its run no longer conforms.  Re-pin only deliberately, with
``python -m repro.check pin --update``."""

import json
import os

import pytest

from repro.check import pins
from repro.check.generate import generate_spec

TESTS = os.path.dirname(__file__)
PINNED = pins.load(TESTS, "corpus")


def test_corpus_is_complete():
    assert sorted(os.listdir(os.path.join(TESTS, "corpus"))) == \
        sorted(f"golden-{s}.json" for s in pins.CORPUS_SEEDS)


@pytest.mark.parametrize("seed", pins.CORPUS_SEEDS)
def test_golden_digests_reproduce(seed):
    for key, case in pins.SUITES["corpus"](TESTS).items():
        if key.split("/")[0] == str(seed):
            assert case() == PINNED.get(key), key


@pytest.mark.parametrize("seed", pins.CORPUS_SEEDS[:3])
def test_golden_specs_still_match_generator(seed):
    """The stored specs came from `generate_spec(seed, max_phases=3)`;
    a sample is cross-checked so generator drift is noticed (and the
    corpus deliberately re-pinned) rather than found mid-debugging."""
    want = json.loads(json.dumps(
        generate_spec(seed, max_phases=3).to_dict()))
    assert pins.read_json(pins.corpus_path(TESTS, seed))["spec"] == want
