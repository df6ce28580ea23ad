"""Run presets and print the SHA-256 of each artifact they write.

Usage::

    PYTHONPATH=<checkout>/src python tools/preset_digests.py DIR [PRESET ...]

With no PRESET names every preset runs.  Each preset writes into
``DIR/<preset>``.  The output is one ``sha256  relpath`` line per file under
``DIR``, sorted by path, so the digests of two checkouts can be compared with
``diff``.
"""

from __future__ import annotations

import hashlib
import os
import sys

from gpinverse.presets import PRESETS, run_experiment


_CHUNK_BYTES = 1 << 20


def _sha256(path: str) -> str:
    """Hex SHA-256 of one file, read in 1 MiB chunks."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(_CHUNK_BYTES), b""):
            digest.update(chunk)
    return digest.hexdigest()


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__, file=sys.stderr)
        return 2
    root, names = argv[0], argv[1:] or list(PRESETS)
    unknown = [name for name in names if name not in PRESETS]
    if unknown:
        print(f"unknown preset(s): {', '.join(unknown)}; choose from "
              f"{', '.join(PRESETS)}", file=sys.stderr)
        return 2
    for name in names:
        run_experiment(PRESETS[name], os.path.join(root, name))
    lines = []
    for dirpath, _, files in os.walk(root):
        for f in files:
            path = os.path.join(dirpath, f)
            lines.append((os.path.relpath(path, root), _sha256(path)))
    for relpath, digest in sorted(lines):
        print(f"{digest}  {relpath}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
