"""Correctness check and health gate for the benchmark's runs.

The expected output of every turn comes from the program's public stage
functions run in-process on the driver (``LangIdScorer``, ``quality_batch``,
``scrub_batch``, ``keep_batch``), shard by shard in batches of the
pipeline's batch size.  The kernel's language on a seeded sample is checked
against the scalar oracle ``lingua_ray.reference_impl.detect_language``.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

KEY = ["conv_id", "turn_idx"]
CHECKED = ["lang", "keep", "scrubbed_text"]

# Share of `un` and of kept turns each workload's generator is built to
# produce, with room for seed-to-seed variation.  Outside the band the run
# is invalid: the model or the data is degenerate.
BANDS = {
    "chat-mix": {"un": (0.005, 0.10), "keep": (0.50, 0.85)},
    "long-answers": {"un": (0.0, 0.02), "keep": (0.60, 0.95)},
    "keep-only-filter": {"un": (0.03, 0.25), "keep": (0.20, 0.50)},
}


def read_shards(input_dir: Path) -> list[pa.Table]:
    return [pq.read_table(p) for p in sorted(input_dir.glob("part-*.parquet"))]


def expected_outputs(shards: list[pa.Table], opts) -> pa.Table:
    """Every turn's expected stage outputs, computed in-process."""
    from lingua_ray.stages.keep import keep_batch
    from lingua_ray.stages.langid import LangIdScorer
    from lingua_ray.stages.quality import quality_batch
    from lingua_ray.stages.scrub import scrub_batch

    scorer = LangIdScorer(text_col=opts.text_col, languages=opts.languages,
                          low_accuracy=opts.low_accuracy)
    parts = []
    for shard in shards:
        for off in range(0, shard.num_rows, opts.batch_size):
            b = scorer(shard.slice(off, opts.batch_size))
            b = quality_batch(b, text_col=opts.text_col)
            b = scrub_batch(b, text_col=opts.text_col)
            b = keep_batch(b, ppl_threshold=opts.ppl_threshold)
            parts.append(b.select(KEY + [opts.text_col] + CHECKED
                                  + ["quality_flags", "tox_count"]))
    return pa.concat_tables(parts)


def oracle_mismatches(expected: pa.Table, models, n_sample: int,
                      seed: int) -> tuple[int, set]:
    """Keys of sampled turns whose kernel language differs from the scalar
    oracle's.  Returns (sample size, mismatching keys)."""
    from lingua_ray import constants as C
    from lingua_ray import reference_impl as ref

    codes = list(C.ISO1_CODES) + [C.UNKNOWN_CODE]
    rng = np.random.default_rng([seed, 7])
    rows = rng.choice(expected.num_rows, size=min(n_sample, expected.num_rows),
                      replace=False)
    sample = expected.take(pa.array(np.sort(rows))).to_pylist()
    bad = set()
    for r in sample:
        want = codes[ref.detect_language(r["text"] or "", models.freq_of_str)]
        if want != r["lang"]:
            bad.add((r["conv_id"], r["turn_idx"]))
    return len(sample), bad


def failed_turns(ordered_dir: Path, expected: pa.Table, keep_only: bool,
                 oracle_bad: set) -> tuple[int, dict]:
    """Turns that are missing, duplicated, out of (conv_id, turn_idx) order
    within their file, split across files, or whose lang/keep/scrubbed_text
    differ from ``expected`` (plus ``oracle_bad``).  Returns the count and a
    breakdown by cause."""
    import pandas as pd

    files = sorted(ordered_dir.glob("part-*.parquet"))
    frames = []
    for i, f in enumerate(files):
        df = pq.read_table(f, columns=KEY + CHECKED).to_pandas()
        df["file"] = i
        prev = df[KEY].shift(1)
        df["out_of_order"] = (df["conv_id"] < prev["conv_id"]) | (
            (df["conv_id"] == prev["conv_id"])
            & (df["turn_idx"] <= prev["turn_idx"]))
        frames.append(df)
    got = (pd.concat(frames, ignore_index=True) if frames
           else pd.DataFrame(columns=KEY + CHECKED + ["file", "out_of_order"]))
    want = expected.select(KEY + CHECKED).to_pandas()
    if keep_only:
        want = want[want["keep"]]

    bad: dict[str, set] = {}
    keys = list(zip(got["conv_id"], got["turn_idx"]))
    dup = got.duplicated(KEY, keep=False)
    bad["duplicated"] = {k for k, d in zip(keys, dup) if d}
    bad["out_of_order"] = {k for k, o in zip(keys, got["out_of_order"]) if o}
    files_per_conv = got.groupby("conv_id")["file"].nunique()
    split = set(files_per_conv[files_per_conv > 1].index)
    bad["split_across_files"] = {k for k in keys if k[0] in split}
    merged = want.merge(got.drop_duplicates(KEY), on=KEY, how="outer",
                        suffixes=("", "_got"), indicator=True)
    mk = list(zip(merged["conv_id"], merged["turn_idx"]))
    bad["missing"] = {k for k, s in zip(mk, merged["_merge"])
                      if s == "left_only"}
    bad["unexpected"] = {k for k, s in zip(mk, merged["_merge"])
                         if s == "right_only"}
    both = merged["_merge"] == "both"
    differs = np.zeros(len(merged), dtype=bool)
    for c in CHECKED:
        differs |= both.to_numpy() & (merged[c] != merged[f"{c}_got"]).to_numpy()
    bad["stage_output_differs"] = {k for k, d in zip(mk, differs) if d}
    bad["oracle_lang_differs"] = set(oracle_bad)
    failed = set().union(*bad.values())
    return len(failed), {k: len(v) for k, v in bad.items() if v}


def health_causes(workload: str, model: dict, expected: pa.Table,
                  mark_dir: Path, model_dir: Path,
                  default_model_dir_appeared: bool) -> list[str]:
    """Named reasons this run's numbers must not be read; empty when fine."""
    import json

    causes = []
    if model["total_keys"] == 0:
        causes.append("artifact_has_zero_keys")
    elif model["empty_tables"]:
        causes.append(f"artifact_empty_tables:{','.join(model['empty_tables'][:5])}")
    n = expected.num_rows
    un = float(np.mean(np.asarray(expected.column("lang").to_pylist()) == "un"))
    keep = float(np.count_nonzero(expected.column("keep").to_numpy(
        zero_copy_only=False))) / n
    band = BANDS[workload]
    if not band["un"][0] <= un <= band["un"][1]:
        causes.append(f"un_share_out_of_band:{un:.4f} not in {band['un']}")
    if not band["keep"][0] <= keep <= band["keep"][1]:
        causes.append(f"keep_rate_out_of_band:{keep:.4f} not in {band['keep']}")
    actors = [json.loads(p.read_text())
              for p in mark_dir.glob("actor-*.json")]
    if not actors:
        causes.append("no_langid_actor_reported_its_artifact")
    elif any(Path(a["model_dir"]) != model_dir for a in actors):
        causes.append("actor_used_another_artifact")
    if default_model_dir_appeared:
        causes.append("default_model_artifact_was_built")
    return causes
