from .quality_filter import PipelineOptions, apply_stages, write_ordered

__all__ = ["PipelineOptions", "apply_stages", "write_ordered"]
