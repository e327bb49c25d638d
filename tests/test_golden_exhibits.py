"""Golden safety net: every exhibit's rows, cell keys and sweep digest.

``tests/golden/exhibits.json`` pins, for every registered exhibit at
``num_users=3000, trials=1, seed=0`` (plus a few knob variants), three
things a refactor of the simulation layer must not change:

* the exhibit rows, as JSON with column order preserved;
* the canonical cell keys :func:`repro.sim.shard.enumerate_cells` lists,
  in order, with their payload kind;
* :meth:`repro.sim.shard.SweepConfig.digest`.

The comparison is byte for byte.  Regenerate the file only when a change
is *meant* to move rows or keys (and say so in the change log)::

    PYTHONPATH=src python tests/test_golden_exhibits.py --write
"""

from __future__ import annotations

import json
import pathlib
import sys

GOLDEN = pathlib.Path(__file__).with_name("golden") / "exhibits.json"

#: Every exhibit runs at this configuration.
BASE = {"num_users": 3_000, "trials": 1, "seed": 0}

#: Knob variants: cohort-mode OLH chunking (pins ``cohort_chunk_users``
#: keys) and adaptive budgets (pins budget fingerprints).
VARIANTS = {
    "fig7+chunk": ("fig7", {"chunk_users": 4_096, "olh_cohort": 8}),
    "heavyhitter+chunk": ("heavyhitter", {"chunk_users": 4_096, "olh_cohort": 8}),
    "fig8+budget": ("fig8", {"trials": 2, "target_ci": 0.5, "max_trials": 4}),
    "kv+budget": ("kv", {"trials": 2, "target_ci": 0.5, "max_trials": 4}),
}


def _configs() -> dict[str, object]:
    from repro.sim.shard import SweepConfig

    configs = {name: SweepConfig(name, **BASE) for name in SweepConfig.exhibit_names()}
    for label, (name, knobs) in VARIANTS.items():
        configs[label] = SweepConfig(name, **{**BASE, **knobs})
    return configs


def render() -> str:
    """The golden document for the code under test, as text."""
    from repro.sim.shard import enumerate_cells

    doc = {}
    for label, config in _configs().items():
        doc[label] = {
            "digest": config.digest(),
            "cells": [f"{cell.kind} {cell.key}" for cell in enumerate_cells(config)],
            "rows": config.run(None),
        }
    return json.dumps(doc, indent=1) + "\n"


def test_exhibits_match_golden_byte_for_byte():
    expected = GOLDEN.read_text(encoding="utf-8")
    actual = render()
    if actual == expected:
        return
    # Name the first exhibit that moved, for a readable failure.
    want, got = json.loads(expected), json.loads(actual)
    assert list(got) == list(want), "exhibit set changed"
    for label in want:
        for part in ("digest", "cells", "rows"):
            assert json.dumps(got[label][part]) == json.dumps(want[label][part]), (
                f"{label}: {part} differ from {GOLDEN.name}"
            )
    raise AssertionError("golden document differs in formatting only")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden_exhibits.py --write")
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(render(), encoding="utf-8")
