#!/usr/bin/env python3
"""Function-length guard for the serving and fleet orchestration code.

Fails when a top-level definition in lib/cluster/*.ml or lib/serve/*.ml
spans more than 150 lines. A span runs from one column-0 `let`, `and` or
`type` to the next, or to the end of the file, so the comment heading a
definition counts against the one before it.

Usage (from anywhere): python3 tools/check_fn_length.py
"""

import glob
import os
import re
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DIRS = ("lib/cluster", "lib/serve")
LIMIT = 150
START = re.compile(r"(let|and|type)\b")


def spans(path):
    """Yield (line, length, header) for each top-level definition."""
    with open(path) as f:
        lines = f.read().splitlines()
    starts = [i + 1 for i, l in enumerate(lines) if START.match(l)]
    for start, end in zip(starts, starts[1:] + [len(lines) + 1]):
        yield start, end - start, lines[start - 1].strip()


def main():
    longest = (0, "")
    bad = 0
    for d in DIRS:
        for path in sorted(glob.glob(os.path.join(ROOT, d, "*.ml"))):
            rel = os.path.relpath(path, ROOT)
            for line, length, header in spans(path):
                longest = max(longest, (length, "%s:%d" % (rel, line)))
                if length > LIMIT:
                    print("%s:%d: %d lines (limit %d): %s"
                          % (rel, line, length, LIMIT, header))
                    bad += 1
    print("longest top-level definition: %d lines at %s" % longest)
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
