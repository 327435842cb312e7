"""Replay of the build corpus (tests/corpus.py) against its manifest,
tests/corpus.json: every third seeded input, and the extension-field
class in full.  `python3 tests/corpus.py` replays all of it.  Measured
on a 2-vCPU host, one run each: the slice takes 18.7 s and the whole
corpus 37.2 s."""

import pytest

from corpus import EXTENSION, inputs, load, run, stripped

ENTRIES = load()
SEEDED = ENTRIES[:-len(EXTENSION)]
SLICE = SEEDED[::3] + ENTRIES[len(SEEDED):]


def test_manifest_lists_the_generated_inputs():
    assert len(ENTRIES) >= 200
    assert stripped(ENTRIES) == inputs()


@pytest.mark.parametrize("entry", SLICE, ids=[e["id"] for e in SLICE])
def test_corpus_input_builds_as_recorded(entry):
    assert run(entry) == entry["result"]
