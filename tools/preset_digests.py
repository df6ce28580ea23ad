"""Run every preset and print the SHA-256 of each artifact it writes.

Usage::

    PYTHONPATH=<checkout>/src python tools/preset_digests.py DIR

Each preset writes into ``DIR/<preset>``.  The output is one
``sha256  relpath`` line per file under ``DIR``, sorted by path, so the
digests of two checkouts can be compared with ``diff``.
"""

from __future__ import annotations

import hashlib
import os
import sys

from gpinverse.presets import PRESETS, run_experiment


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    root = argv[0]
    for name, config in PRESETS.items():
        run_experiment(config, os.path.join(root, name))
    lines = []
    for dirpath, _, files in os.walk(root):
        for f in files:
            path = os.path.join(dirpath, f)
            with open(path, "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
            lines.append((os.path.relpath(path, root), digest))
    for relpath, digest in sorted(lines):
        print(f"{digest}  {relpath}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
