"""Tests for the benchmark's output check: each failure kind is counted."""

from __future__ import annotations

import sys
from pathlib import Path

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from perfbench.check import failed_turns  # noqa: E402

ROWS = [("a", 0, "en", True, "x"), ("a", 1, "en", False, "y"),
        ("b", 0, "de", True, "z"), ("b", 1, "de", True, "w")]


def _table(rows) -> pa.Table:
    cols = list(zip(*rows)) if rows else [[]] * 5
    return pa.table({"conv_id": pa.array(cols[0], pa.string()),
                     "turn_idx": pa.array(cols[1], pa.int32()),
                     "lang": pa.array(cols[2], pa.string()),
                     "keep": pa.array(cols[3], pa.bool_()),
                     "scrubbed_text": pa.array(cols[4], pa.string())})


def _write(d: Path, files: list[list]) -> Path:
    d.mkdir()
    for i, rows in enumerate(files):
        pq.write_table(_table(rows), d / f"part-{i:05d}.parquet")
    return d


@pytest.mark.parametrize("files,keep_only,want,n_failed", [
    ([ROWS[:2], ROWS[2:]], False, {}, 0),
    ([ROWS[:2], ROWS[2:3]], False, {"missing": 1}, 1),
    # the repeated key is also not strictly after its predecessor
    ([ROWS[:2], ROWS[2:] + ROWS[3:]], False,
     {"duplicated": 1, "out_of_order": 1}, 1),
    ([[ROWS[1], ROWS[0]], ROWS[2:]], False, {"out_of_order": 1}, 1),
    ([ROWS[:1], ROWS[1:]], False, {"split_across_files": 2}, 2),
    ([ROWS[:1] + [("a", 1, "en", False, "Y")], ROWS[2:]], False,
     {"stage_output_differs": 1}, 1),
    ([ROWS[:1], ROWS[2:]], True, {}, 0),
    ([ROWS[:2], ROWS[2:]], True, {"unexpected": 1}, 1),
])
def test_failure_kinds(tmp_path, files, keep_only, want, n_failed):
    ordered = _write(tmp_path / "ordered", files)
    assert failed_turns(ordered, _table(ROWS), keep_only, set()) == \
        (n_failed, want)


def test_oracle_mismatch_counts(tmp_path):
    ordered = _write(tmp_path / "ordered", [ROWS[:2], ROWS[2:]])
    n, causes = failed_turns(ordered, _table(ROWS), False, {("b", 1)})
    assert (n, causes) == (1, {"oracle_lang_differs": 1})


def _expected(langs, keeps):
    n = len(langs)
    return pa.table({"lang": pa.array(langs, pa.string()),
                     "keep": pa.array(keeps, pa.bool_()),
                     "quality_flags": pa.array([0] * n, pa.int32()),
                     "tox_count": pa.array([0] * n, pa.int32())})


def test_health_gate_names_each_cause(tmp_path):
    import json

    from perfbench.check import health_causes

    good_model = {"total_keys": 10, "empty_tables": []}
    ok = _expected(["en"] * 97 + ["un"] * 3, [True] * 67 + [False] * 33)
    marks = tmp_path / "marks"
    marks.mkdir()
    model_dir = tmp_path / "model"
    assert health_causes("chat-mix", good_model, ok, marks, model_dir,
                         False) == ["no_langid_actor_reported_its_artifact"]
    (marks / "actor-1.json").write_text(json.dumps({"model_dir": str(model_dir)}))
    assert health_causes("chat-mix", good_model, ok, marks, model_dir,
                         False) == []

    causes = health_causes(
        "chat-mix", {"total_keys": 0, "empty_tables": ["en_1"]},
        _expected(["un"] * 100, [False] * 100), marks, tmp_path / "other",
        True)
    assert [c.split(":")[0] for c in causes] == [
        "artifact_has_zero_keys", "un_share_out_of_band",
        "keep_rate_out_of_band", "actor_used_another_artifact",
        "default_model_artifact_was_built"]
