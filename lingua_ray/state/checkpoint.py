"""Per-partition checkpointed, resumable pipeline runs (SURVEY.md §4).

Unit of work = one input shard (parquet file).  Shards are processed in
waves; each wave is ONE streaming Ray Data pipeline over all its shards (so
intra-wave pipelining/backpressure is preserved), with rows tagged by their
source shard (``include_paths``) and written to
``out/data/shard_id=N/`` partition directories.

Commit protocol (idempotent, crash-safe):

1. at wave start, delete the partition dirs of the wave's shards (stale
   partial output from a crashed run);
2. run the wave, writing partitioned parquet;
3. per shard: read back the written footers (row counts — cheap metadata) +
   a column-pruned scan of (lang, keep) for the metrics table;
4. atomically write ``_manifest/shard-NNNNN.json`` (input path, row counts,
   keep counts, language histogram, options fingerprint).

Resume = rerun the same call: shards with a valid manifest are skipped;
only missing/partial shards are reprocessed.  Because every stage output is
a pure function of the input row, re-processed shards are byte-identical to
what a single uninterrupted run would have produced.  Output and manifests
of shard ids past the current input listing (a part file was removed) are
deleted at the start of every run, and ``finalize_ordered`` refuses while
any remain.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pads
import pyarrow.parquet as pq

from ..pipelines.quality_filter import PipelineOptions, apply_stages


def _options_fingerprint(opts: PipelineOptions) -> str:
    payload = json.dumps({
        "languages": opts.languages, "low_accuracy": opts.low_accuracy,
        "ppl_threshold": opts.ppl_threshold, "keep_only": opts.keep_only,
        "text_col": opts.text_col, "input_columns": opts.input_columns,
    }, sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


class StaleShardError(RuntimeError):
    """Checkpoint output of a shard that is no longer in the input."""


@dataclass
class CheckpointedRun:
    input_dir: Path
    out_dir: Path
    opts: PipelineOptions

    @property
    def manifest_dir(self) -> Path:
        return self.out_dir / "_manifest"

    @property
    def data_dir(self) -> Path:
        return self.out_dir / "data"

    def shards(self) -> list[Path]:
        return sorted(self.input_dir.glob("part-*.parquet"))

    def _manifest_path(self, shard_id: int) -> Path:
        return self.manifest_dir / f"shard-{shard_id:05d}.json"

    def completed_shards(self) -> set[int]:
        """Shards with a valid manifest for the CURRENT input listing and
        options.  A manifest only counts if its recorded input_file (and
        row count) still matches the shard at that position — adding,
        removing or renaming a part file shifts shard ids, and stale
        positional manifests must not silently skip the wrong inputs."""
        done = set()
        fp = _options_fingerprint(self.opts)
        shards = self.shards()
        for p in sorted(self.manifest_dir.glob("shard-*.json")):
            try:
                m = json.loads(p.read_text())
            except json.JSONDecodeError:
                continue
            if m.get("options_fingerprint") != fp:
                continue
            sid = m["shard_id"]
            if sid >= len(shards):
                continue
            if m.get("input_file") != str(shards[sid]):
                continue
            if (m.get("input_rows")
                    != pq.ParquetFile(shards[sid]).metadata.num_rows):
                continue
            done.add(sid)
        return done

    def _stale_outputs(self, n_shards: int) -> list[Path]:
        """Partition dirs and manifests of shard ids >= ``n_shards``, left
        by an earlier run over a longer input listing."""
        stale = [d for d in self.data_dir.glob("shard_id=*")
                 if int(d.name.split("=", 1)[1]) >= n_shards]
        stale += [m for m in self.manifest_dir.glob("shard-*.json")
                  if int(m.stem.split("-", 1)[1]) >= n_shards]
        return sorted(stale)

    def pending_shards(self) -> list[int]:
        done = self.completed_shards()
        return [i for i in range(len(self.shards())) if i not in done]

    def run(self, wave_size: int = 8, max_waves: int | None = None) -> dict:
        """Process pending shards; returns run summary. Re-entrant."""
        import ray.data

        shards = self.shards()
        if not shards:
            raise FileNotFoundError(f"no part-*.parquet in {self.input_dir}")
        self.manifest_dir.mkdir(parents=True, exist_ok=True)
        self.data_dir.mkdir(parents=True, exist_ok=True)
        for p in self._stale_outputs(len(shards)):
            if p.is_dir():
                shutil.rmtree(p, ignore_errors=True)
            else:
                p.unlink(missing_ok=True)
        pending = self.pending_shards()
        fp = _options_fingerprint(self.opts)

        waves = [pending[i: i + wave_size]
                 for i in range(0, len(pending), wave_size)]
        if max_waves is not None:
            waves = waves[:max_waves]

        processed = []
        for wave in waves:
            wave_paths = pa.array([str(shards[i]) for i in wave], pa.string())
            wave_ids = np.asarray(wave, dtype=np.int32)
            for i in wave:
                shutil.rmtree(self.data_dir / f"shard_id={i}",
                              ignore_errors=True)

            ds = ray.data.read_parquet([str(shards[i]) for i in wave],
                                       columns=self.opts.input_columns,
                                       include_paths=True)

            def tag(batch: pa.Table, _paths=wave_paths,
                    _ids=wave_ids) -> pa.Table:
                pos = pc.index_in(batch.column("path"), value_set=_paths)
                sids = _ids[pos.to_numpy(zero_copy_only=False)]
                batch = batch.drop_columns(["path"])
                return batch.append_column("shard_id", pa.array(sids))

            ds = ds.map_batches(tag, batch_format="pyarrow")
            ds = apply_stages(ds, self.opts)
            ds.write_parquet(str(self.data_dir), partition_cols=["shard_id"])

            for i in wave:
                self._commit_shard(i, shards[i], fp)
            processed.extend(wave)

        return {
            "processed_shards": processed,
            "skipped_shards": sorted(self.completed_shards() - set(processed)),
            "total_shards": len(shards),
        }

    def _commit_shard(self, shard_id: int, input_path: Path,
                      fingerprint: str) -> None:
        part_dir = self.data_dir / f"shard_id={shard_id}"
        files = sorted(part_dir.glob("*.parquet"))
        if files:
            rows = sum(pq.ParquetFile(f).metadata.num_rows for f in files)
            # Column-pruned metrics scan (lang histogram + keep counts).
            stats = pads.dataset([str(f) for f in files]).to_table(
                columns=["lang", "keep"])
            counts = pc.value_counts(stats.column("lang")).to_pylist()
            langs = {c["values"]: c["counts"] for c in counts}
            kept = pc.sum(stats.column("keep")).as_py() or 0
        else:
            # A shard can legitimately produce zero output rows (e.g.
            # keep_only=True filters everything) — no partition dir is
            # written then; commit an empty manifest instead of crashing.
            rows, langs, kept = 0, {}, 0
        manifest = {
            "shard_id": shard_id,
            "input_file": str(input_path),
            "input_rows": pq.ParquetFile(input_path).metadata.num_rows,
            "output_rows": rows,
            "kept_rows": kept,
            "lang_histogram": dict(sorted(langs.items())),
            "output_files": [f.name for f in files],
            "options_fingerprint": fingerprint,
        }
        tmp = self._manifest_path(shard_id).with_suffix(f".tmp{os.getpid()}")
        tmp.write_text(json.dumps(manifest, indent=2))
        os.replace(tmp, self._manifest_path(shard_id))

    def finalize_ordered(self, ordered_dir: str | Path | None = None) -> int:
        """After all shards complete: produce order-restored partitioned
        output (stable (conv_id, turn_idx) within hash(conv_id) partitions)
        from the checkpointed shard data.  The partition count is
        ``opts.num_output_partitions``, else derived from the output rows
        the current shards' manifests record.  Returns rows written."""
        import ray
        import ray.data

        from ..pipelines.quality_filter import (derive_num_partitions,
                                                write_ordered)

        if self.pending_shards():
            raise RuntimeError(
                f"cannot finalize: shards pending {self.pending_shards()}")
        stale = self._stale_outputs(len(self.shards()))
        if stale:
            raise StaleShardError(
                "cannot finalize: output of shards no longer in "
                f"{self.input_dir} (rerun run() to delete it): "
                + ", ".join(map(str, stale)))
        nparts = self.opts.num_output_partitions
        if nparts is None:
            rows = sum(json.loads(self._manifest_path(i).read_text())
                       ["output_rows"] for i in range(len(self.shards())))
            cpus = int(ray.cluster_resources().get("CPU", 8))
            nparts = derive_num_partitions(rows, cpus)
        ordered_dir = Path(ordered_dir or (self.out_dir / "ordered"))
        ds = ray.data.read_parquet(str(self.data_dir))
        return write_ordered(ds, str(ordered_dir), nparts)

    def metrics_table(self) -> pa.Table:
        """Aggregated per-shard metrics of the current shards (G3 in
        SURVEY.md §2.6)."""
        n_shards = len(self.shards())
        rows = []
        for p in sorted(self.manifest_dir.glob("shard-*.json")):
            m = json.loads(p.read_text())
            if m["shard_id"] >= n_shards:
                continue
            rows.append({
                "shard_id": m["shard_id"],
                "input_rows": m["input_rows"],
                "output_rows": m["output_rows"],
                "kept_rows": m["kept_rows"],
            })
        return pa.Table.from_pylist(rows)
