"""Replay of the build corpus (tests/corpus.py) against its manifest,
tests/corpus.json: every third input, so that the slice takes under 20 s
on a 2-vCPU host.  `python3 tests/corpus.py` replays all of it."""

import pytest

from corpus import inputs, load, run, stripped

ENTRIES = load()
SLICE = ENTRIES[::3]


def test_manifest_lists_the_generated_inputs():
    assert len(ENTRIES) >= 200
    assert stripped(ENTRIES) == inputs()


@pytest.mark.parametrize("entry", SLICE, ids=[e["id"] for e in SLICE])
def test_corpus_input_builds_as_recorded(entry):
    assert run(entry) == entry["result"]
