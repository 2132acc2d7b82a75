"""Checkpoint/resume: interrupted runs skip finished partitions on resume and
produce output identical to an uninterrupted run."""

import json

import numpy as np
import pyarrow as pa
import pyarrow.dataset as pads
import pyarrow.parquet as pq
import pytest

from lingua_ray.pipelines.quality_filter import PipelineOptions
from lingua_ray.sources.transcripts import ensure_transcripts
from lingua_ray.state.checkpoint import CheckpointedRun


@pytest.fixture(scope="module")
def turns_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("ckpt") / "turns"
    return ensure_transcripts(d, n_turns=2000, seed=42, n_shards=6)


def _opts():
    return PipelineOptions(langid_concurrency=2, restore_order=False)


def _read_sorted(data_dir):
    t = pads.dataset(str(data_dir), partitioning="hive").to_table()
    return t.sort_by([("conv_id", "ascending"), ("turn_idx", "ascending")])


def _assert_tables_equal(ta, tb, skip=()):
    assert ta.num_rows == tb.num_rows
    for col in ta.schema.names:
        if col in skip:
            continue
        a, b = ta.column(col), tb.column(col)
        if col == "ppl":  # Arrow equals() treats NaN != NaN
            av = np.array(a.to_pylist(), dtype=np.float64)
            bv = np.array(b.to_pylist(), dtype=np.float64)
            assert ((av == bv) | (np.isnan(av) & np.isnan(bv))).all()
        else:
            assert a.equals(b), col


def test_interrupt_and_resume(ray_session, turns_dir, tmp_path):
    out_a = tmp_path / "out_interrupted"
    run = CheckpointedRun(turns_dir, out_a, _opts())

    # "Crash" after the first wave (2 of 6 shards done).
    summary1 = run.run(wave_size=2, max_waves=1)
    assert summary1["processed_shards"] == [0, 1]
    assert run.pending_shards() == [2, 3, 4, 5]
    assert len(list(run.manifest_dir.glob("shard-*.json"))) == 2

    # Resume: only the remaining shards are processed.
    summary2 = run.run(wave_size=2)
    assert summary2["processed_shards"] == [2, 3, 4, 5]
    assert run.pending_shards() == []

    # A third call is a no-op.
    summary3 = run.run(wave_size=2)
    assert summary3["processed_shards"] == []

    # Output equals an uninterrupted run, byte-for-byte per row.
    out_b = tmp_path / "out_clean"
    CheckpointedRun(turns_dir, out_b, _opts()).run(wave_size=6)
    ta, tb = _read_sorted(out_a / "data"), _read_sorted(out_b / "data")
    assert ta.num_rows == tb.num_rows == 2000
    _assert_tables_equal(ta, tb, skip=("shard_id",))


def test_manifest_contents_and_metrics(ray_session, turns_dir, tmp_path):
    out = tmp_path / "out_m"
    run = CheckpointedRun(turns_dir, out, _opts())
    run.run(wave_size=6)
    manifests = sorted(run.manifest_dir.glob("shard-*.json"))
    assert len(manifests) == 6
    m0 = json.loads(manifests[0].read_text())
    assert m0["input_rows"] == m0["output_rows"] > 0
    assert sum(m0["lang_histogram"].values()) == m0["output_rows"]
    metrics = run.metrics_table()
    assert metrics.num_rows == 6
    assert sum(metrics.column("output_rows").to_pylist()) == 2000


def test_finalize_ordered(ray_session, turns_dir, tmp_path):
    out = tmp_path / "out_f"
    run = CheckpointedRun(turns_dir, out, _opts())
    with pytest.raises(RuntimeError):
        run.finalize_ordered()
    run.run(wave_size=6)
    rows = run.finalize_ordered()
    assert rows == 2000
    t = pads.dataset(str(out / "ordered")).to_table()
    assert t.num_rows == 2000
    last = {}
    for c, i in zip(t.column("conv_id").to_pylist(),
                    t.column("turn_idx").to_pylist()):
        if c in last:
            assert i > last[c]
        last[c] = i


def test_corrupted_manifest_treated_as_pending(ray_session, turns_dir,
                                               tmp_path):
    out = tmp_path / "out_c"
    run = CheckpointedRun(turns_dir, out, _opts())
    run.run(wave_size=6)
    assert run.pending_shards() == []
    # truncate one manifest mid-write (simulated crash during commit)
    victim = run.manifest_dir / "shard-00002.json"
    victim.write_text('{"shard_id": 2, "input_')
    assert run.pending_shards() == [2]
    summary = run.run(wave_size=6)
    assert summary["processed_shards"] == [2]
    assert run.pending_shards() == []


def test_options_change_invalidates_manifests(ray_session, turns_dir, tmp_path):
    out = tmp_path / "out_inv"
    run = CheckpointedRun(turns_dir, out, _opts())
    run.run(wave_size=6)
    assert run.pending_shards() == []
    changed = CheckpointedRun(turns_dir, out,
                              PipelineOptions(langid_concurrency=2,
                                              restore_order=False,
                                              ppl_threshold=123.0))
    assert changed.pending_shards() == [0, 1, 2, 3, 4, 5]


def test_zero_output_shard_commits_empty_manifest(ray_session, turns_dir,
                                                  tmp_path):
    """keep_only together with an impossible ppl threshold filters every
    row: the shard writes no partition dir, and the commit must record an
    empty manifest instead of crashing (round-1 ADVICE)."""
    opts = PipelineOptions(langid_concurrency=2, restore_order=False,
                           keep_only=True, ppl_threshold=0.0)
    run = CheckpointedRun(turns_dir, tmp_path / "out_empty", opts)
    summary = run.run(wave_size=2, max_waves=1)
    assert summary["processed_shards"] == [0, 1]
    for sid in (0, 1):
        m = json.loads(run._manifest_path(sid).read_text())
        assert m["output_rows"] == 0
        assert m["kept_rows"] == 0
        assert m["lang_histogram"] == {}
    # resume skips the committed-empty shards
    assert run.pending_shards() == [2, 3, 4, 5]


# (kind, text) rows for the corpus-free keep_only test: only "english"
# passes every check; the others fail a language-independent check, are
# not English, or both.
_KIND_TEXTS = [
    ("english", "the quick brown fox jumps over the lazy dog"),
    ("english", "we went to the market and bought some fresh bread"),
    ("english", "please send me the report before the meeting starts"),
    ("english", "this is a simple sentence about the weather today"),
    ("one_word", "hello"),
    ("two_words", "thanks again"),
    ("toxic", "you are such an idiot for saying that"),
    ("toxic", "i really hate waiting for the bus in the rain"),
    ("digits", "123 4567 8901 2345 6789"),
    ("digits", "00 11 22 33 44 55 66 77"),
    ("cyrillic", "привет как у тебя дела сегодня вечером"),
    ("empty", ""),
    ("null", None),
]


def _write_kind_shards(turns_dir, n_shards=2, reps=12):
    rows = [(kind, text) for _ in range(reps) for kind, text in _KIND_TEXTS]
    turns_dir.mkdir(parents=True)
    for s in range(n_shards):
        part = rows[s::n_shards]
        pq.write_table(pa.table({
            "conv_id": pa.array([f"c{s}-{i // 5:03d}"
                                 for i in range(len(part))]),
            "turn_idx": pa.array([i % 5 for i in range(len(part))],
                                 pa.int32()),
            "kind": pa.array([k for k, _ in part]),
            "text": pa.array([t for _, t in part], pa.string()),
        }), turns_dir / f"part-{s:05d}.parquet")


def _cheap_checks_stage(strict: bool):
    """Extra stage that appends the language-independent mask; ``strict``
    fails the run if any row it sees does not pass the checks."""
    def cheap_ok(batch):
        from lingua_ray.stages.keep import passes_language_independent_checks
        ok = passes_language_independent_checks(batch)
        if strict and not ok.all():
            raise AssertionError("extra stage saw a cheap-check failure")
        return batch.append_column("cheap_ok", pa.array(ok, pa.bool_()))
    return cheap_ok


def test_keep_only_equals_default_filtered_on_keep(ray_session, tmp_path):
    """keep_only runs the language-independent checks before langid; the
    rows, values and column order must equal the default order's output
    filtered on ``keep``.  Corpus-free: with one language and no ppl
    threshold, ``keep`` does not depend on the model artifact's content."""
    turns = tmp_path / "kinds"
    _write_kind_shards(turns)
    outs = {}
    for keep_only in (False, True):
        opts = PipelineOptions(languages=["en"], ppl_threshold=float("inf"),
                               langid_concurrency=1, keep_only=keep_only,
                               extra_stages=[_cheap_checks_stage(keep_only)])
        out = tmp_path / f"out_keep_only_{keep_only}"
        CheckpointedRun(turns, out, opts).run(wave_size=2)
        outs[keep_only] = _read_sorted(out / "data")
    full, kept = outs[False], outs[True]

    assert full.num_rows == 12 * len(_KIND_TEXTS)
    assert set(full.column("kind").to_pylist()) == {k for k, _ in _KIND_TEXTS}
    assert kept.column_names == full.column_names
    assert kept.num_rows > 0
    _assert_tables_equal(kept, full.filter(full.column("keep")))
    assert set(kept.column("kind").to_pylist()) == {"english"}


def test_resume_invalidated_by_input_listing_change(ray_session, turns_dir,
                                                    tmp_path):
    """Renaming/removing a part file shifts positional shard ids; stale
    manifests must NOT mark the new shard at that position as done."""
    import shutil
    work = tmp_path / "turns_copy"
    shutil.copytree(turns_dir, work)
    out = tmp_path / "out_shift"
    run = CheckpointedRun(work, out, _opts())
    run.run(wave_size=6)
    assert run.pending_shards() == []
    # remove the first shard: every shard id shifts down by one
    parts = sorted(work.glob("part-*.parquet"))
    parts[0].unlink()
    shifted = CheckpointedRun(work, out, _opts())
    # all previously-valid manifests now point at the wrong input file
    assert shifted.pending_shards() == list(range(5))
