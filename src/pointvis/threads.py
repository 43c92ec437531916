"""Worker-count control for the parallel reduction paths.

The env var POINTVIS_THREADS (alias CENPBG_THREADS) caps the number of
chunks a candidate array is split into. Results are required to be
bit-identical to sequential execution, so this only affects speed. A set
variable that is not a positive integer raises DomainError.
"""
from __future__ import annotations

import os

from .errors import DomainError


def worker_count() -> int:
    for var in ("CENPBG_THREADS", "POINTVIS_THREADS"):
        raw = os.environ.get(var)
        if raw:
            try:
                n = int(raw)
            except ValueError:
                n = 0
            if n < 1:
                raise DomainError(f"{var} must be a positive integer, got {raw!r}")
            return n
    return 1
