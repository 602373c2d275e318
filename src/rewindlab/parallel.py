"""Thread-cap plumbing for the chunked Monte-Carlo sampler.

REWINDLAB_THREADS caps internal parallelism; chunk results are always
combined in index order, so estimates are bit-identical however many
workers run.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor


def thread_count() -> int:
    try:
        return max(1, int(os.environ.get("REWINDLAB_THREADS", "1")))
    except ValueError:
        return 1


def map_chunks(fn, chunk_args: list):
    """Apply fn over chunk arguments, preserving chunk order in the result."""
    workers = thread_count()
    if workers == 1 or len(chunk_args) <= 1:
        return [fn(arg) for arg in chunk_args]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, chunk_args))
