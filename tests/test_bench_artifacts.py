"""The committed benchmark artifacts: every root BENCH_*.json parses and
says what it measured, how it was run and what it found."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
ARTIFACTS = sorted(ROOT.glob("BENCH_*.json"))


def test_artifacts_exist():
    assert ARTIFACTS


@pytest.mark.parametrize("path", ARTIFACTS, ids=lambda p: p.name)
def test_artifact_carries_its_protocol(path):
    bench = json.loads(path.read_text())
    for key in ("what", "command", "protocol"):
        assert isinstance(bench.get(key), str) and bench[key].strip(), key
    assert "\n" not in bench["what"]
    for key in ("environment", "runs", "summary"):
        assert isinstance(bench.get(key), dict) and bench[key], key
