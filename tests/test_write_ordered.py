"""Two-phase order-restoring writer: a hash(conv_id) partitioned write,
then one sorted file per partition, with stable (conv_id, turn_idx) order
and every conversation inside one partition."""

import pyarrow.dataset as pads

from lingua_ray.pipelines.quality_filter import (PipelineOptions,
                                                 apply_stages, write_ordered)
from lingua_ray.sources.transcripts import ensure_transcripts


def test_write_ordered(ray_session, tmp_path):
    ray = ray_session
    turns = ensure_transcripts(tmp_path / "turns", n_turns=3000, seed=42,
                               n_shards=4)
    opts = PipelineOptions(langid_concurrency=2)
    ds = ray.data.read_parquet(str(turns))
    out_dir = tmp_path / "out"
    rows = write_ordered(apply_stages(ds, opts), str(out_dir), 8)
    assert rows == 3000

    files = sorted(out_dir.glob("part-*.parquet"))
    assert 1 <= len(files) <= 8
    seen_convs = set()
    total = 0
    for f in files:
        t = pads.dataset(str(f)).to_table()
        total += t.num_rows
        conv = t.column("conv_id").to_pylist()
        tix = t.column("turn_idx").to_pylist()
        last = {}
        for c, i in zip(conv, tix):
            if c in last:
                assert i > last[c]
            last[c] = i
        # each conversation must live wholly inside one partition
        assert not (set(conv) & seen_convs)
        seen_convs |= set(conv)
    assert total == 3000


def test_finalize_external_merge_matches_inmem(tmp_path):
    """The mega-partition external-merge path (per-fragment sorted runs +
    streaming k-way merge) must produce byte-identical output to the
    in-memory sort (SCALE.md 'what breaks first' #3)."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from lingua_ray.pipelines.quality_filter import _finalize_partition

    rng = np.random.RandomState(9)
    part = tmp_path / "part_id=0"
    part.mkdir()
    # 6 unsorted fragments with interleaved conversations, incl. one
    # mega-conversation spanning every fragment
    for j in range(6):
        n = 5000
        convs = np.array([f"conv-{c:04d}" for c in rng.randint(0, 40, n)])
        convs[rng.rand(n) < 0.5] = "conv-mega"
        t = pa.table({
            "conv_id": pa.array(convs.tolist(), type=pa.string()),
            "turn_idx": pa.array(rng.permutation(n).astype("int32")),
            "payload": pa.array(rng.randint(0, 1 << 30, n)),
        })
        pq.write_table(t, part / f"frag-{j}.parquet")

    inmem = tmp_path / "inmem.parquet"
    merged = tmp_path / "merged.parquet"
    rows_a = _finalize_partition(str(part), str(inmem))
    rows_b = _finalize_partition(str(part), str(merged),
                                 max_inmem_rows=1000)   # force external path
    assert rows_a == rows_b == 30000
    ta, tb = pq.read_table(inmem), pq.read_table(merged)
    assert ta.equals(tb)


def test_merge_sorted_runs_tiny_batches(tmp_path):
    import pyarrow as pa
    import pyarrow.parquet as pq

    from lingua_ray.pipelines.quality_filter import (_SORT_KEYS,
                                                     _merge_sorted_runs)
    runs = []
    data = [
        {"conv_id": ["a", "a", "c"], "turn_idx": [0, 2, 1]},
        {"conv_id": ["a", "b", "c"], "turn_idx": [1, 0, 0]},
        {"conv_id": ["b"], "turn_idx": [1]},
    ]
    for j, d in enumerate(data):
        t = pa.table({"conv_id": pa.array(d["conv_id"], type=pa.string()),
                      "turn_idx": pa.array(d["turn_idx"], type=pa.int32())})
        p = tmp_path / f"run{j}.parquet"
        pq.write_table(t.sort_by(_SORT_KEYS), p)
        runs.append(str(p))
    out = tmp_path / "out.parquet"
    rows = _merge_sorted_runs(runs, str(out), batch_rows=2)
    assert rows == 7
    got = pq.read_table(out)
    assert got.column("conv_id").to_pylist() == \
        ["a", "a", "a", "b", "b", "c", "c"]
    assert got.column("turn_idx").to_pylist() == [0, 1, 2, 0, 1, 0, 1]


def test_write_ordered_empty_input(ray_session, tmp_path):
    """keep_only filtering everything must produce a valid empty output
    directory, not a crash."""
    import pyarrow as pa
    import ray.data
    from lingua_ray.pipelines.quality_filter import write_ordered
    t = pa.table({
        "conv_id": pa.array([], type=pa.string()),
        "turn_idx": pa.array([], type=pa.int32()),
        "text": pa.array([], type=pa.large_string()),
    })
    rows = write_ordered(ray.data.from_arrow(t), str(tmp_path / "out"), 4)
    assert rows == 0


def test_derive_num_partitions():
    """Partition-count derivation: size-driven at scale, CPU-floored in the
    middle, row-capped for tiny inputs, constant fallback when unknown."""
    from lingua_ray.pipelines.quality_filter import derive_num_partitions

    # unknown row count -> CPU-aware round-2 constant
    assert derive_num_partitions(None, cpus=8) == 16
    assert derive_num_partitions(None, cpus=64) == 64
    # tiny input: capped so a partition holds >= ~1k rows
    assert derive_num_partitions(3_000, cpus=32) == 3
    assert derive_num_partitions(500, cpus=32) == 1
    # mid-size: CPU floor wins so finalize parallelizes
    assert derive_num_partitions(600_000, cpus=32) == 32
    # at scale: size-driven, NOT the old constant 16
    assert derive_num_partitions(10**12, cpus=32) == 500_000


def test_write_ordered_derives_partitions(ray_session, tmp_path):
    """num_output_partitions=None derives the count from the rows the
    checkpoint manifests record and still yields a correct, fully-ordered
    output."""
    import pyarrow.parquet as pq

    from lingua_ray.state.checkpoint import CheckpointedRun

    turns = ensure_transcripts(tmp_path / "turns2", n_turns=3000, seed=7,
                               n_shards=4)
    opts = PipelineOptions(langid_concurrency=2)  # derive (None default)
    run = CheckpointedRun(turns, tmp_path / "out2", opts)
    run.run(wave_size=4)
    rows = run.finalize_ordered()
    assert rows == 3000
    files = sorted((tmp_path / "out2" / "ordered").glob("part-*.parquet"))
    # 3000 rows -> derivation caps at 3 partitions regardless of CPUs
    assert 1 <= len(files) <= 3
    assert sum(pq.ParquetFile(f).metadata.num_rows for f in files) == 3000
