"""Tests for the benchmark's input generator.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from perfbench import gen  # noqa: E402


def _forbidden_roots() -> list[str]:
    from lingua_ray import models
    from lingua_ray.stages import spill

    return [str(models.CORPUS_DIR), str(models.DEFAULT_MODEL_DIR.parent),
            str(spill._ROOT)]


@pytest.fixture(scope="module")
def generated(tmp_path_factory):
    """Seed 5 twice and seed 6 once, recording every path opened."""
    opened: list[str] = []
    recording = [True]

    def audit(event, args):
        if recording[0] and event == "open" and isinstance(args[0], (str, Path)):
            opened.append(str(args[0]))

    sys.addaudithook(audit)
    root = tmp_path_factory.mktemp("gen")
    dirs = {}
    for name, seed in (("a", 5), ("b", 5), ("c", 6)):
        dirs[name] = root / name
        gen.generate(seed, dirs[name])
    recording[0] = False
    return dirs, opened


def _files(d: Path) -> dict[str, bytes]:
    return {str(p.relative_to(d)): p.read_bytes()
            for p in sorted(d.rglob("*")) if p.is_file()}


def _turns(d: Path, workload: str) -> pa.Table:
    return pa.concat_tables([pq.read_table(p) for p in
                             sorted((d / workload).glob("part-*.parquet"))])


def test_same_seed_gives_identical_files(generated):
    dirs, _ = generated
    a, b = _files(dirs["a"]), _files(dirs["b"])
    assert a.keys() == b.keys()
    assert any(k.startswith("model/") for k in a)
    assert any(k.startswith("chat-mix/") for k in a)
    differing = [k for k in a if a[k] != b[k]]
    # The artifact's meta.json records the corpus path it was trained from.
    assert differing in ([], ["model/meta.json"])
    ma, mb = (json.loads(x["model/meta.json"]) for x in (a, b))
    assert ma.pop("corpus") != mb.pop("corpus") and ma == mb


def test_other_seed_differs(generated):
    dirs, _ = generated
    a, c = _files(dirs["a"]), _files(dirs["c"])
    for w in gen.WORKLOADS:
        assert a[f"{w}/part-00000.parquet"] != c[f"{w}/part-00000.parquet"]
    ida = gen.artifact_identity(dirs["a"] / "model")
    idc = gen.artifact_identity(dirs["c"] / "model")
    assert ida["sha256"] != idc["sha256"]


def test_artifact_has_keys_for_every_language_and_order(generated):
    from lingua_ray import constants as C
    from lingua_ray.models import MAX_N, NgramModels

    dirs, _ = generated
    ident = gen.artifact_identity(dirs["a"] / "model")
    assert ident["empty_tables"] == []
    assert ident["min_table_keys"] > 0
    models = NgramModels(dirs["a"] / "model")
    for li in range(C.NUM_LANGUAGES):
        for n in range(1, MAX_N + 1):
            assert len(models.keys[li][n - 1]) > 0, (C.ISO1_CODES[li], n)


def test_corpus_layout_covers_all_languages(generated):
    from lingua_ray import constants as C

    dirs, _ = generated
    for cat in gen.CATEGORIES:
        for iso1 in C.ISO1_CODES:
            lines = (dirs["a"] / "corpus" / cat / f"{iso1}.txt").read_text(
                encoding="utf-8").splitlines()
            assert len(lines) == gen.CORPUS_LINES and all(lines)


def test_program_sees_only_the_turn_columns(generated):
    dirs, _ = generated
    for w in gen.WORKLOADS:
        t = _turns(dirs["a"], w)
        assert t.column_names == ["conv_id", "turn_idx", "text"]
        assert t.num_rows == gen.WORKLOAD_TURNS[w]


def test_chat_mix_has_every_fixture_property(generated):
    from lingua_ray import constants as C
    from lingua_ray.chartables import IS_LETTER, SCRIPT_ID
    from lingua_ray.stages.scrub import PII_PATTERNS

    dirs, _ = generated
    t = _turns(dirs["a"], "chat-mix")
    texts = t.column("text").to_pylist()
    n = len(texts)

    def share(pred):
        return sum(1 for x in texts if pred(x)) / n

    assert share(lambda x: len(x) > 120) > 0.02
    pii = re.compile("|".join(f"(?:{p})" for _, p, _ in PII_PATTERNS))
    assert share(lambda x: pii.search(x) is not None) > 0.03

    def scripts(x):
        return {int(SCRIPT_ID[ord(c)]) for c in x if IS_LETTER[ord(c)]}

    assert share(lambda x: not scripts(x)) > 0.02          # junk / emoji / ""
    assert share(lambda x: len(scripts(x)) >= 2) > 0.01    # mixed script
    assert "" in texts
    assert share(lambda x: any(ord(c) >= 0x1F300 for c in x)) > 0.002
    seen = set().union(*(scripts(x) for x in texts))
    assert seen == set(range(C.NUM_SCRIPTS))               # every script

    conv = np.asarray(t.column("conv_id").to_pylist())
    _, counts = np.unique(conv, return_counts=True)
    assert counts.max() > 0.05 * n                          # mega-conversation
    idx = t.column("turn_idx").to_numpy()
    order = np.lexsort((idx, conv))
    assert not np.array_equal(order, np.arange(n))          # shuffled on disk
    s_conv, s_idx = conv[order], idx[order]
    first = np.concatenate([[True], s_conv[1:] != s_conv[:-1]])
    starts = np.flatnonzero(first)
    expect = np.arange(n) - np.repeat(starts, np.diff(np.append(starts, n)))
    assert np.array_equal(s_idx, expect)                    # 0..k-1 per conv


def test_long_answers_lengths(generated):
    dirs, _ = generated
    lengths = np.array([len(x) for x in
                        _turns(dirs["a"], "long-answers").column("text").to_pylist()])
    assert lengths.min() >= 300
    assert np.quantile(lengths, 0.99) <= 3000


def test_keep_only_filter_fails_cheap_checks_on_about_half(generated):
    from lingua_ray.stages.quality import quality_batch
    from lingua_ray.stages.scrub import scrub_batch

    dirs, _ = generated
    t = scrub_batch(quality_batch(_turns(dirs["a"], "keep-only-filter")))
    cheap_fail = ((t.column("quality_flags").to_numpy() != 0)
                  | (t.column("tox_count").to_numpy() > 0))
    assert 0.45 <= cheap_fail.mean() <= 0.75
    assert (t.column("tox_count").to_numpy() > 0).mean() > 0.08


def test_generation_reads_no_corpus_model_or_fixture_cache(generated):
    _, opened = generated
    assert opened, "audit hook saw no file opens"
    bad = [p for p in opened
           if any(p.startswith(root) for root in _forbidden_roots())]
    assert bad == []
