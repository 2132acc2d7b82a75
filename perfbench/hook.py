"""Ray worker set-up hook: serve the benchmark's model artifact.

``lingua_ray.models.get_models()`` builds its artifact from the accuracy
corpus on first use.  The benchmark brings its own synthetic artifact
instead: :func:`setup` runs in every Ray worker before its first task (via
``runtime_env={"worker_process_setup_hook": "perfbench.hook.setup"}``) and
sets the process-wide model singleton to that artifact.  Every
``LangIdScorer`` actor then writes which artifact its detector holds, which
the health gate checks after the run.  With a trace directory set, the hook
also installs the tracing wrappers.
"""

from __future__ import annotations

import functools
import json
import os
from pathlib import Path

MODEL_ENV = "PERFBENCH_MODEL_DIR"
MARK_ENV = "PERFBENCH_MARK_DIR"
TRACE_ENV = "PERFBENCH_TRACE_DIR"


def inject(model_dir: str | Path):
    """Make ``model_dir`` the artifact every detector in this process uses."""
    import lingua_ray.models as M

    M._MODELS = M.NgramModels(model_dir)
    return M._MODELS


def _report_actor_artifact(mark_dir: Path) -> None:
    from lingua_ray.stages.langid import LangIdScorer

    init = LangIdScorer.__init__

    @functools.wraps(init)
    def wrapped(self, *args, **kwargs):
        init(self, *args, **kwargs)
        (mark_dir / f"actor-{os.getpid()}.json").write_text(json.dumps(
            {"model_dir": str(self.detector.models.model_dir)}))

    LangIdScorer.__init__ = wrapped


def worker_pid() -> int:
    """A no-op task: returns once a worker has finished :func:`setup`."""
    return os.getpid()


def setup() -> None:
    # Import the pipeline (and with it Ray Data) here in every session, so
    # that traced and untraced sessions start their runs in the same state.
    import lingua_ray.state.checkpoint  # noqa: F401

    inject(os.environ[MODEL_ENV])
    _report_actor_artifact(Path(os.environ[MARK_ENV]))
    trace_dir = os.environ.get(TRACE_ENV)
    if trace_dir:
        from perfbench.trace import install
        install(Path(trace_dir))
