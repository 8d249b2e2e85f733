"""Golden gate: recompute every case of tests/golden and compare digests."""

import importlib.util
import json
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "make_golden", Path(__file__).parent / "golden" / "make_golden.py"
)
make_golden = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(make_golden)


def test_golden_outputs_unchanged():
    expected = json.loads(make_golden.OUTPUTS.read_text(encoding="utf-8"))
    forward = make_golden.compute()
    assert sorted(forward) == sorted(expected), "golden case list changed"
    # the reversed pass runs with every memo warm, so it serves narrow windows
    # from wide ones: an output that depends on the order of requests shows here
    backward = {key: make_golden.digest(thunk) for key, thunk in reversed(list(make_golden.cases()))}
    for order, actual in (("forward", forward), ("reversed", backward)):
        changed = sorted(key for key in expected if actual[key] != expected[key])
        assert not changed, f"{order}: {len(changed)} golden outputs changed: {changed[:10]}"
