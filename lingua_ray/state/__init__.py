from .checkpoint import CheckpointedRun

__all__ = ["CheckpointedRun"]
