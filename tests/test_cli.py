"""Detection CLI (tools/detect_cli.py, the reference's console app
``app/App.kt:29-170``) driven via subprocess — S8 coverage."""

import subprocess
import sys
from pathlib import Path

from conftest import needs_corpus

CLI = str(Path(__file__).resolve().parent.parent / "tools" / "detect_cli.py")


def _run(args, stdin=""):
    return subprocess.run([sys.executable, CLI, *args], input=stdin,
                          capture_output=True, text=True, timeout=300)


@needs_corpus
def test_cli_basic_detection():
    r = _run([], "bonjour le monde\n日本語のテキスト\nÀ×\n\n")
    assert r.returncode == 0, r.stderr
    assert r.stdout.splitlines() == ["fr", "ja", "yo"]   # blank line skipped


@needs_corpus
def test_cli_language_subset_and_low_accuracy():
    r = _run(["--languages", "en,de", "--low-accuracy"],
             "Ich wohne in Berlin\nthe quick brown fox\n")
    assert r.returncode == 0, r.stderr
    assert r.stdout.splitlines() == ["de", "en"]


@needs_corpus
def test_cli_confidence_output():
    r = _run(["--confidence", "--languages", "en,de,fr"],
             "bonjour tout le monde\n")
    assert r.returncode == 0, r.stderr
    parts = r.stdout.split()
    assert parts[0].startswith("fr:")
    scores = [float(p.split(":")[1]) for p in parts]
    assert scores == sorted(scores, reverse=True)
    assert scores[0] == 1.0


def test_cli_errors_cleanly():
    # one language: needs >= 2
    r = _run(["--languages", "en"], "x\n")
    assert r.returncode == 2
    assert "at least 2 languages" in r.stderr
    # unknown ISO code
    r = _run(["--languages", "en,zz"], "x\n")
    assert r.returncode == 2
    assert "unknown ISO 639-1" in r.stderr
    # out-of-range minimum distance
    r = _run(["--min-distance", "1.5"], "x\n")
    assert r.returncode == 2
    assert "Traceback" not in r.stderr


@needs_corpus
def test_cli_multi_language_sections():
    r = _run(["--multi"],
             "this is english text 日本語のテキストです and back\n"
             "bonjour le monde\n")
    assert r.returncode == 0, r.stderr
    lines = r.stdout.splitlines()
    assert len(lines) == 2
    assert "en[0:21]" in lines[0] and "ja[21:32]" in lines[0]
    assert "'日本語のテキストです'" in lines[0]
    assert lines[1].startswith("fr[0:16]")


def test_run_pipeline_rejects_keep_only_with_conv_rollup():
    """--conv-rollup over a keep-filtered output would report
    keep_frac=1.0 for every surviving conversation; the entry refuses the
    combination with a clean argparse error (no traceback, no Ray)."""
    import subprocess
    import sys
    from pathlib import Path

    r = subprocess.run(
        [sys.executable, "tools/run_pipeline.py", "--input", "/tmp/x",
         "--output", "/tmp/y", "--keep-only", "--conv-rollup", "/tmp/z"],
        capture_output=True, text=True,
        cwd=Path(__file__).resolve().parent.parent, timeout=60)
    assert r.returncode == 2
    assert "keep-only" in r.stderr
    assert "Traceback" not in r.stderr
