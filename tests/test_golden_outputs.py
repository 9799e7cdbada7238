"""Every benchmark op at seeds 1 and 2 and every study script writes exactly
the bytes recorded in golden_outputs.json (regenerate with
``python3 tests/golden_outputs.py`` when outputs move on purpose)."""

import json

import golden_outputs


def test_outputs_match_golden():
    with open(golden_outputs.GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)
    # another numpy, scipy or BLAS thread count may round differently: say so
    stack = golden_outputs.stack()
    assert stack == golden["stack"], f"recorded on {golden['stack']}, running on {stack}"
    assert sorted(golden_outputs.runs()) == sorted(golden["runs"]), "the run list changed"
    now = golden_outputs.record_all()
    moved = {name: sorted(key for key in rec if rec[key] != golden["runs"][name][key])
             for name, rec in now.items() if rec != golden["runs"][name]}
    assert not moved, f"{len(moved)} runs moved: {moved}"
