"""Golden corpus: fixed CLI runs must print exactly the recorded bytes.

The corpus and the list of runs live in tests/golden (see regen.py there
for when regenerating it is allowed)."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent / "golden"))
import regen  # noqa: E402


@pytest.mark.parametrize("name,argv", regen.CASES,
                         ids=[name for name, _ in regen.CASES])
def test_golden_output(name, argv):
    code, outputs = regen.run(argv)
    assert code == 0
    for fmt in regen.FORMATS:
        want = regen.golden_path(name, fmt).read_text(encoding="utf-8")
        assert outputs[fmt] == want, f"{name}.{fmt} differs from the corpus"
