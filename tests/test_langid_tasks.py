"""Langid as stateless tasks: the per-process scorer cache behind
``score_langid``, and a checkpointed run at one CPU, where the langid stage
must not hold the only CPU while the other stages wait for it.

Corpus-free: both use the ``synthetic_model`` artifact (``conftest.py``).
"""

import os
import signal
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pyarrow as pa
import pyarrow.dataset as pads
import pytest

from lingua_ray import constants as C
from lingua_ray.models import NgramModels
from lingua_ray.stages.langid import LangIdScorer, score_langid, scorer_for

REPO = Path(__file__).resolve().parent.parent
ONE_CPU_TIMEOUT_S = 180


@pytest.fixture
def models(synthetic_model, monkeypatch):
    """The synthetic artifact as this process's models, restored after."""
    import lingua_ray.models as M

    monkeypatch.setattr(M, "_MODELS", NgramModels(synthetic_model[0]))
    return M._MODELS


def _texts(vocab, n: int, seed: int) -> list:
    """Seeded turns: vocabulary sentences in every language, plus PII,
    toxic, junk, empty, null and mixed-script rows."""
    rng = np.random.default_rng(seed)
    extra = [None, "", "   ", "123 456 !!!", "😀 🎉", "mail me at a@b.com now",
             "call +1 555 0199 today please", "you stupid idiot",
             " ".join(vocab[C.ISO1_INDEX["en"]][:3]
                      + vocab[C.ISO1_INDEX["ru"]][:3])]
    texts = []
    for i in range(n):
        if i % 7 == 0:
            texts.append(extra[(i // 7) % len(extra)])
        else:
            words = vocab[int(rng.integers(C.NUM_LANGUAGES))]
            texts.append(" ".join(rng.choice(words,
                                             size=int(rng.integers(1, 30)))))
    return texts


def _assert_same_columns(got: pa.Table, want: pa.Table) -> None:
    assert got.column_names == want.column_names
    for name in want.column_names:
        a, b = got.column(name), want.column(name)
        if pa.types.is_floating(b.type):  # Arrow equals() treats NaN != NaN
            np.testing.assert_array_equal(a.to_numpy(), b.to_numpy(),
                                          err_msg=name)
        else:
            assert a.equals(b), name


def test_scorer_cache_is_per_config(models):
    a = scorer_for(languages=["en", "de"])
    assert scorer_for(languages=["en", "de"]) is a
    assert scorer_for(text_col="text", languages=("en", "de")) is a
    assert a.detector.models is models
    others = [scorer_for(text_col="body", languages=["en", "de"]),
              scorer_for(languages=["en", "fr"]),
              scorer_for(languages=["en", "de"], low_accuracy=True)]
    assert len({id(s) for s in [a] + others}) == 4


def test_scorer_cache_follows_the_models(models, monkeypatch):
    import lingua_ray.models as M

    first = scorer_for()
    monkeypatch.setattr(M, "_MODELS", NgramModels(models.model_dir))
    second = scorer_for()
    assert second is not first
    assert second.detector.models is M._MODELS


@pytest.mark.parametrize("kwargs", [
    {},
    {"languages": ["en", "de", "ru"], "with_ppl": False},
    {"low_accuracy": True},
    {"with_ppl": False, "top_k_confidences": 3},
    {"text_col": "body", "minimum_relative_distance": 0.1},
])
def test_score_langid_equals_scorer(models, synthetic_model, kwargs):
    col = kwargs.get("text_col", "text")
    texts = _texts(synthetic_model[1], 120, seed=3)
    for n in (len(texts), 0):
        batch = pa.table({"id": pa.array(range(n), pa.int64()),
                          col: pa.array(texts[:n], pa.string())})
        for _ in range(2):  # the second call reuses the cached scorer
            _assert_same_columns(score_langid(batch, **kwargs),
                                 LangIdScorer(**kwargs)(batch))


_ONE_CPU_RUN = textwrap.dedent("""
    import sys
    from pathlib import Path

    import ray

    model_dir, turns_dir, out_dir = (Path(a) for a in sys.argv[1:4])


    def use_synthetic_models():
        import lingua_ray.models as M
        M._MODELS = M.NgramModels(model_dir)


    ray.init(address="local", num_cpus=1, include_dashboard=False,
             object_store_memory=256 * 2**20, log_to_driver=False,
             runtime_env={"worker_process_setup_hook": use_synthetic_models})
    use_synthetic_models()
    from lingua_ray.pipelines.quality_filter import PipelineOptions
    from lingua_ray.state.checkpoint import CheckpointedRun

    run = CheckpointedRun(turns_dir, out_dir, PipelineOptions(
        langid_concurrency=1, num_output_partitions=2))
    run.run(wave_size=8)
    print(run.finalize_ordered())
    ray.shutdown()
""")


def _write_turn_shards(turns_dir: Path, texts: list, n_shards: int) -> None:
    import pyarrow.parquet as pq

    turns_dir.mkdir(parents=True)
    n = len(texts)
    table = pa.table({
        "conv_id": pa.array([f"c{i % 37:03d}" for i in range(n)]),
        "turn_idx": pa.array([i // 37 for i in range(n)], pa.int32()),
        "text": pa.array(texts, pa.string()),
    })
    order = np.random.default_rng(5).permutation(n)
    for s, idx in enumerate(np.array_split(order, n_shards)):
        pq.write_table(table.take(idx), turns_dir / f"part-{s:05d}.parquet")


def test_checkpointed_run_finishes_at_one_cpu(models, synthetic_model,
                                              tmp_path):
    """At ``num_cpus=1`` the run must finish (an actor pool held the only
    CPU and wedged it), with every turn's ``lang``, ``keep`` and
    ``scrubbed_text`` equal to the in-process stage functions'."""
    from lingua_ray.stages.keep import keep_batch
    from lingua_ray.stages.quality import quality_batch
    from lingua_ray.stages.scrub import scrub_batch

    turns, out = tmp_path / "turns", tmp_path / "out"
    texts = _texts(synthetic_model[1], 1500, seed=9)
    _write_turn_shards(turns, texts, n_shards=3)
    env = dict(os.environ)
    env.pop("RAY_ADDRESS", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO)] + [p for p in [env.get("PYTHONPATH")] if p])
    # Own session, so a timeout can kill the Ray processes it started too.
    proc = subprocess.Popen(
        [sys.executable, "-c", _ONE_CPU_RUN, str(synthetic_model[0]),
         str(turns), str(out)], cwd=REPO, env=env, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=ONE_CPU_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stdout = None
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    assert stdout is not None, (
        f"run at num_cpus=1 not done in {ONE_CPU_TIMEOUT_S} s")
    assert proc.returncode == 0, stderr[-3000:]
    assert int(stdout.split()[-1]) == len(texts)

    key = [("conv_id", "ascending"), ("turn_idx", "ascending")]
    got = pads.dataset(str(out / "ordered")).to_table().sort_by(key)
    source = pads.dataset(str(turns)).to_table()
    want = keep_batch(scrub_batch(quality_batch(LangIdScorer()(source))))
    want = want.sort_by(key)
    assert got.num_rows == want.num_rows == len(texts)
    cols = ["conv_id", "turn_idx", "lang", "keep", "scrubbed_text"]
    _assert_same_columns(got.select(cols), want.select(cols))
    keep = want.column("keep").to_numpy()
    assert 0 < keep.sum() < len(keep)
    assert len(set(want.column("lang").to_pylist())) > 10
