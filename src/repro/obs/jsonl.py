"""Tolerant JSONL record files: the one reader and the one writer.

Every persistent artifact of the stack (sizing results, solution
certificates, lint rule results, interface contracts, run records) is a
JSONL file holding one JSON object per line, and every one of them is read
by :func:`read_records` and appended by :func:`append_record`.

Reading is tolerant: blank lines are ignored, and a line that is not JSON
(a torn append) or that the caller does not accept (another artifact kind,
an older schema) is skipped, counted and logged, never fatal.  Writing is
append-only, one canonical line (sorted keys, compact separators) per
record, so files are single-writer and duplicate keys resolve
last-write-wins on the next read.
"""

from __future__ import annotations

import json
import os
from typing import Callable, List, Mapping, Optional, Tuple

from .log import get_logger

log = get_logger(__name__)


def read_records(
    path: Optional[str], accepts: Callable[[dict], bool]
) -> Tuple[List[dict], int]:
    """``(records, skipped_lines)``: every line of ``path`` that parses to
    a dict ``accepts`` admits, in file order, and the count of corrupt or
    foreign lines skipped.  A missing file (or ``path=None``) is empty."""
    records: List[dict] = []
    skipped = 0
    if not path or not os.path.exists(path):
        return records, skipped
    with open(path) as fh:
        for line_no, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                problem = "corrupt"
            else:
                if isinstance(record, dict) and accepts(record):
                    records.append(record)
                    continue
                problem = "foreign"
            skipped += 1
            log.warning("%s:%d: skipping %s line", path, line_no, problem)
    return records, skipped


def append_record(path: str, record: Mapping) -> None:
    """Append ``record`` to ``path`` as one canonical JSON line."""
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "a") as fh:
        fh.write(
            json.dumps(record, sort_keys=True, separators=(",", ":"), default=str)
            + "\n"
        )
