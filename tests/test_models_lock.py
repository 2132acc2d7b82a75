"""ensure_models lock lifecycle: orphaned locks are reclaimed, live
locks still block, and the waiter honors the original deadline; an
artifact built without corpus text is rebuilt once the corpus has text."""

import os
import time

import numpy as np
import pytest

from conftest import _write_corpus
from lingua_ray import models as M


def _fake_build(d):
    """A finished artifact: ``_SUCCESS`` and one table with a key (a keyless
    one is rebuilt wherever the corpus has text)."""
    d.mkdir(parents=True, exist_ok=True)
    np.save(d / "af_1_keys.npy", np.array([1], dtype=np.uint64))
    (d / "_SUCCESS").write_text("")


def test_ensure_models_reclaims_stale_lock(tmp_path, monkeypatch):
    """A lock whose holder died (mtime far older than the timeout) must
    be reclaimed instead of deadlocking every future run."""
    mdir = tmp_path / f"v{M.MODEL_VERSION}"
    lock = tmp_path / f"v{M.MODEL_VERSION}.lock"
    lock.write_text("")
    old = time.time() - 10_000
    os.utime(lock, (old, old))
    built = []
    monkeypatch.setattr(M, "build_model_artifact",
                        lambda d: (_fake_build(d), built.append(d)))
    out = M.ensure_models(mdir, timeout_s=30.0)
    assert built == [mdir]
    assert (out / "_SUCCESS").exists()
    assert not lock.exists()


def test_ensure_models_fresh_lock_times_out(tmp_path, monkeypatch):
    """A recent lock means a live builder: the waiter must NOT steal it,
    and must raise once the caller's deadline passes."""
    mdir = tmp_path / f"v{M.MODEL_VERSION}"
    lock = tmp_path / f"v{M.MODEL_VERSION}.lock"
    lock.write_text("")
    monkeypatch.setattr(M, "build_model_artifact",
                        lambda d: pytest.fail("must not build"))
    t0 = time.monotonic()
    with pytest.raises(TimeoutError):
        M.ensure_models(mdir, timeout_s=2.0)
    assert 1.5 < time.monotonic() - t0 < 10
    assert lock.exists()


def test_ensure_models_live_lock_older_than_caller_timeout(tmp_path,
                                                           monkeypatch):
    """Staleness is the FIXED _STALE_LOCK_S, never the caller's timeout:
    a lock older than timeout_s but younger than the stale threshold
    belongs to a live builder and must not be stolen."""
    mdir = tmp_path / f"v{M.MODEL_VERSION}"
    lock = tmp_path / f"v{M.MODEL_VERSION}.lock"
    lock.write_text("")
    mid = time.time() - 60  # older than timeout_s=2, far younger than stale
    os.utime(lock, (mid, mid))
    monkeypatch.setattr(M, "build_model_artifact",
                        lambda d: pytest.fail("must not steal a live lock"))
    with pytest.raises(TimeoutError):
        M.ensure_models(mdir, timeout_s=2.0)
    assert lock.exists()


def test_ensure_models_lock_released_mid_wait(tmp_path, monkeypatch):
    """Holder finishing (lock unlinked, _SUCCESS present) unblocks the
    waiter immediately."""
    mdir = tmp_path / f"v{M.MODEL_VERSION}"
    _fake_build(mdir)
    assert M.ensure_models(mdir, timeout_s=5.0) == mdir


def test_ensure_models_rebuilds_keyless_artifact_once_corpus_has_text(
        tmp_path, monkeypatch):
    """An artifact trained while the corpus was empty holds no keys; it is
    kept while the corpus stays empty, and replaced (not served) once the
    corpus has text."""
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    monkeypatch.setattr(M, "CORPUS_DIR", corpus)
    builds = []
    build = M.build_model_artifact
    monkeypatch.setattr(M, "build_model_artifact",
                        lambda d: (builds.append(d), build(d)))
    mdir = tmp_path / "models" / f"v{M.MODEL_VERSION}"

    def n_keys():
        m = M.NgramModels(mdir)
        return sum(len(k) for ks in m.keys for k in ks)

    assert M.ensure_models(mdir) == mdir
    assert n_keys() == 0
    M.ensure_models(mdir)
    assert len(builds) == 1

    _write_corpus(corpus)
    assert M.ensure_models(mdir) == mdir
    assert len(builds) == 2
    assert n_keys() > 0
    assert [p.name for p in mdir.parent.iterdir()] == [mdir.name]
    M.ensure_models(mdir)
    assert len(builds) == 2
