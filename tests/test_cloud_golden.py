"""Golden complement clouds: every fixture player's cloud, digest for digest.

Each case builds the complement cloud of one fixture player at one grid
step ``h_g`` and compares the sha256 of its points (and its active axes and
point count) with ``tests/golden/clouds.json``; a refused cloud records its
error message.  The digests pin the cloud's points bit for bit across
refactors of the gain kernel; regenerate them only for a deliberate change
of the cloud, with ``PYTHONPATH=src python tests/test_cloud_golden.py``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from projnash.errors import InputError
from projnash.fixtures import FIXTURE_NAMES, load_fixture
from projnash.preferences import _ComplementCloud

CLOUDS = Path(__file__).parent / "golden" / "clouds.json"
STEPS = (0.05, 0.02, 0.013, 0.01)


def _record(name: str, h_g: float) -> dict:
    """The digest record of every player of fixture ``name`` at ``h_g``."""
    game = load_fixture(name)
    out = {}
    for i, p in enumerate(game.preference_maps):
        try:
            cloud = _ComplementCloud(p, game.distance_context(i, h_g))
        except InputError as exc:
            out[f"{name}.p{i + 1}.h{h_g}"] = {"error": str(exc)}
            continue
        out[f"{name}.p{i + 1}.h{h_g}"] = {
            "active": cloud.active.tolist(),
            "points": int(cloud.points.shape[0]),
            "sha256": hashlib.sha256(cloud.points.astype("<f8").tobytes()).hexdigest(),
        }
    return out


@pytest.mark.parametrize("name", FIXTURE_NAMES)
@pytest.mark.parametrize("h_g", STEPS)
def test_cloud_matches_its_golden_digest(name, h_g):
    golden = json.loads(CLOUDS.read_text())
    for case, got in _record(name, h_g).items():
        assert got == golden[case], case


def _write_digests() -> None:
    records = {}
    for h_g in STEPS:
        for name in FIXTURE_NAMES:
            records.update(_record(name, h_g))
    CLOUDS.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    _write_digests()
