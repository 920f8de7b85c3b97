"""Persistence and presentation helpers."""

from .cache import ArtifactCache, content_key
from .params import load_release, save_release
from .spool import SEGMENT_SUFFIX, load_segment, save_segment
from .tables import format_table, print_table
from .traces import read_trace, trace_to_string, write_trace

__all__ = [
    "ArtifactCache",
    "SEGMENT_SUFFIX",
    "content_key",
    "format_table",
    "load_release",
    "load_segment",
    "print_table",
    "read_trace",
    "save_release",
    "save_segment",
    "trace_to_string",
    "write_trace",
]
