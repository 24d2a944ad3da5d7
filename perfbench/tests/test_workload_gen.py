"""The workload generator is a pure function of (workload, seed)."""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import gen  # noqa: E402


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_same_seed_same_bytes_other_seed_other_trace(workload, tmp_path):
    first, again, other = tmp_path / "first", tmp_path / "again", tmp_path / "other"
    manifest = gen.generate(workload, 7, first)
    gen.generate(workload, 7, again)
    gen.generate(workload, 8, other)

    names = sorted(p.name for p in first.iterdir())
    assert names == sorted(p.name for p in again.iterdir())
    for name in names:
        assert (first / name).read_bytes() == (again / name).read_bytes(), name
    assert (first / "trace.jsonl").read_bytes() != (other / "trace.jsonl").read_bytes()

    events = [json.loads(line) for line in (first / "trace.jsonl").read_text().splitlines()]
    assert sum(e["ev"] == "sys" for e in events) == manifest["sys_events"]
    assert sum(e["ev"] == "expect" for e in events) == manifest["expects"]
