"""Production entry point for the transcript quality-filter pipeline.

This is the script a cluster user submits:

    ray job submit --working-dir . -- \
        python tools/run_pipeline.py --input /data/turns --output /data/out

Checkpointed and resumable: rerunning the same command after a failure
reprocesses only shards without a committed manifest.  Finishes with the
order-restored partitioned output and a metrics summary.
"""

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--input", required=True,
                    help="directory of part-*.parquet transcript shards")
    ap.add_argument("--output", required=True)
    ap.add_argument("--languages", help="comma-separated ISO 639-1 subset")
    ap.add_argument("--low-accuracy", action="store_true")
    ap.add_argument("--ppl-threshold", type=float, default=None)
    ap.add_argument("--keep-only", action="store_true",
                    help="drop rows with keep=false in the output")
    ap.add_argument("--concurrency", type=int, default=8,
                    help="langid batches scored at once")
    ap.add_argument("--wave-size", type=int, default=8,
                    help="shards per checkpoint wave")
    ap.add_argument("--partitions", type=int, default=64,
                    help="hash(conv_id) output partitions")
    ap.add_argument("--skip-order", action="store_true",
                    help="skip the final order-restoring pass")
    ap.add_argument("--conv-rollup", metavar="DIR", default=None,
                    help="also write conversation-level verdicts "
                         "(dominant lang, kept fraction, keep decision) "
                         "as parquet under DIR")
    args = ap.parse_args()
    if args.conv_rollup and args.keep_only:
        # the checkpointed output holds only kept rows under --keep-only,
        # so a rollup over it would report keep_frac=1.0 for every
        # surviving conversation — refuse instead of emitting nonsense
        ap.error("--conv-rollup needs the dropped turns' keep flags; "
                 "run without --keep-only (filter downstream on "
                 "keep=true instead)")

    import ray
    if not ray.is_initialized():
        # honors $RAY_ADDRESS (cluster address under `ray job submit`,
        # "local" in the sandbox)
        ray.init(ignore_reinit_error=True)

    from lingua_ray.models import ensure_models
    from lingua_ray.pipelines.quality_filter import PipelineOptions
    from lingua_ray.state.checkpoint import CheckpointedRun

    ensure_models()
    kwargs = {}
    if args.ppl_threshold is not None:
        kwargs["ppl_threshold"] = args.ppl_threshold
    opts = PipelineOptions(
        languages=args.languages.split(",") if args.languages else None,
        low_accuracy=args.low_accuracy,
        langid_concurrency=args.concurrency,
        num_output_partitions=args.partitions,
        keep_only=args.keep_only,
        **kwargs,
    )
    run = CheckpointedRun(Path(args.input), Path(args.output), opts)
    summary = run.run(wave_size=args.wave_size)
    if not args.skip_order:
        summary["ordered_rows"] = run.finalize_ordered()
    if args.conv_rollup:
        import ray.data

        from lingua_ray.pipelines.quality_filter import conversation_rollup
        scored = ray.data.read_parquet(
            str(run.data_dir), columns=["conv_id", "lang", "keep"])
        conversation_rollup(scored).write_parquet(args.conv_rollup)
        summary["conv_rollup_dir"] = args.conv_rollup
    summary["metrics"] = run.metrics_table().to_pylist()
    print(json.dumps(summary, indent=2))


if __name__ == "__main__":
    main()
