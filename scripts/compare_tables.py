"""Compare the CSV tables of two output directories, column by column.

    python scripts/compare_tables.py OLD_DIR NEW_DIR

For every CSV under either directory (matched by relative path) it prints
"byte-identical", or each changed column with its largest absolute change
|new - old| and its largest relative change |new - old| / |old| over the
cells with |old| > 1e-3, and on a second line its direction: the signed
change new - old of largest size, and how many cells rose and how many
fell.  A NaN cell equals only a NaN cell; the
``error`` column is compared as text.

Each ``manifest.json`` is compared key by key (nested keys joined with
"."), skipping ``generated_at`` and ``duration_seconds``, which differ on
every run; it prints "equal" or the keys that differ.  Keys under
``files`` hold the CSVs' digests and sizes, so they differ exactly when a
CSV's bytes do.

Exit status 1 when the two directories hold different CSVs or manifests,
a CSV with different columns or row counts, or manifests that differ
outside ``files`` (the runs were set up differently); 0 otherwise,
whatever the values.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

REL_FLOOR = 1e-3
MANIFEST = "manifest.json"
RUN_STAMPS = ("generated_at", "duration_seconds")


def _read(path: Path):
    """(column names, rows of cells) of one table."""
    header, *lines = path.read_text(encoding="utf-8").splitlines()
    return (header.removeprefix("# ").split(","),
            [line.split(",") for line in lines])


def _column_change(old: list, new: list) -> str:
    """Text for one changed column, or "" when every cell agrees."""
    try:
        pairs = [(float(a), float(b)) for a, b in zip(old, new)]
    except ValueError:
        changed = sum(a != b for a, b in zip(old, new))
        return f"{changed} cells differ" if changed else ""
    nan_mismatch = sum(math.isnan(a) != math.isnan(b) for a, b in pairs)
    finite = [(a, b) for a, b in pairs
              if not (math.isnan(a) or math.isnan(b))]
    if not nan_mismatch and all(a == b for a, b in finite):
        return ""
    deltas = [b - a for a, b in finite]
    extreme = max(deltas, key=abs, default=0.0)
    rel = [abs(b - a) / abs(a) for a, b in finite if abs(a) > REL_FLOOR]
    text = f"max|d| = {abs(extreme):.3e}, max|d|/|old| = " + (
        f"{max(rel):.3e}" if rel else f"n/a (no |old| > {REL_FLOOR:g})")
    if nan_mismatch:
        text += f", {nan_mismatch} NaN cells differ"
    rose, fell = sum(d > 0 for d in deltas), sum(d < 0 for d in deltas)
    return (text + f"\n    direction: extreme new - old = {extreme:+.3e}, "
            f"{rose} rose, {fell} fell")


def _flat(tree, prefix: str = "") -> dict:
    """Leaves of a JSON tree keyed by their dotted paths."""
    if not isinstance(tree, dict) or not tree:
        return {prefix: tree}
    out = {}
    for key, value in tree.items():
        out.update(_flat(value, f"{prefix}.{key}" if prefix else key))
    return out


def _compare_manifests(rel: Path, old: Path, new: Path) -> int:
    """Print which keys of two manifests differ; 1 if any outside files."""
    old_keys, new_keys = (_flat(json.loads(p.read_text(encoding="utf-8")))
                          for p in (old, new))
    absent = object()
    keys = sorted(k for k in old_keys.keys() | new_keys.keys()
                  if k not in RUN_STAMPS
                  and old_keys.get(k, absent) != new_keys.get(k, absent))
    if not keys:
        print(f"{rel}: equal apart from " + ", ".join(RUN_STAMPS))
        return 0
    print(f"{rel}: keys differ: " + ", ".join(keys))
    return int(any(not k.startswith("files.") for k in keys))


def compare(old_dir: Path, new_dir: Path) -> int:
    paths = sorted({p.relative_to(d) for d in (old_dir, new_dir)
                    for pattern in ("*.csv", MANIFEST)
                    for p in d.rglob(pattern)})
    status = 0
    for rel in paths:
        old, new = old_dir / rel, new_dir / rel
        if not (old.exists() and new.exists()):
            print(f"{rel}: only in {old_dir if old.exists() else new_dir}")
            status = 1
            continue
        if rel.name == MANIFEST:
            status |= _compare_manifests(rel, old, new)
            continue
        if old.read_bytes() == new.read_bytes():
            print(f"{rel}: byte-identical")
            continue
        (cols, old_rows), (new_cols, new_rows) = _read(old), _read(new)
        if cols != new_cols:
            print(f"{rel}: columns differ: {cols} -> {new_cols}")
            status = 1
            continue
        if len(old_rows) != len(new_rows):
            print(f"{rel}: rows differ: {len(old_rows)} -> {len(new_rows)}")
            status = 1
            continue
        print(f"{rel}:")
        for j, name in enumerate(cols):
            change = _column_change([r[j] for r in old_rows],
                                    [r[j] for r in new_rows])
            if change:
                print(f"  {name}: {change}")
    return status


def main(argv) -> int:
    if len(argv) != 2:
        print("usage: python scripts/compare_tables.py OLD_DIR NEW_DIR",
              file=sys.stderr)
        return 2
    return compare(Path(argv[0]), Path(argv[1]))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
