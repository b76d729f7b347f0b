"""The committed BENCH_*.json records: each parses and states how it was made.

A speed claim is only as good as its record, so every file at the top of the
repository must name what it measured, the command, the parent commit it
was measured against, the environment, the `src/` line counts, the summary
and the claim (or that none is made).
"""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))
REQUIRED = ("what", "command", "parent_commit", "environment", "src_lines", "summary", "claim")


def test_there_are_bench_records():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_bench_record_parses_and_carries_its_keys(path):
    record = json.loads(path.read_text(encoding="utf-8"))
    assert isinstance(record, dict)
    assert [key for key in REQUIRED if key not in record] == []
