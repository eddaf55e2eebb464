"""Deterministic CSV tables and the run manifest.

Every output file is a plain-text CSV: one ``#``-prefixed header line with
``name(unit)`` per column plus a trailing ``error`` column, then one row
per grid point with floats in scientific notation at 12 significant
digits.  Fixed formatting makes repeated runs byte-identical, so the
manifest can carry per-file checksums as a reproducibility contract.

The manifest is a JSON sidecar recording the fully resolved parameters,
the artifact version, per-file SHA-256 digests, the wall-clock duration,
and the BLAS thread variable as the package found it at import.  It is
written after every CSV and thereby doubles as the completion marker of a run.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Dict, Iterator, List, Sequence, Tuple

import numpy as np

from . import BLAS_THREADS, __version__, metrics

# CPython's built-in SHA-256, the module hashlib itself falls back to when
# it is built without OpenSSL: the same digest, and no run maps libcrypto
# (about 3.5 MB resident) only to checksum its tables.
try:
    from _sha2 import sha256 as _sha256         # Python 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256 as _sha256   # Python 3.10 and 3.11
    except ImportError:
        from hashlib import sha256 as _sha256

__all__ = [
    "U_TIME", "U_TEMP", "U_NONE", "U_CURRENT", "U_DERIV",
    "Table", "sweep_table", "write_table", "file_sha256", "write_manifest",
    "MANIFEST_NAME",
]

U_TIME = "t̃"            # t-tilde
U_TEMP = "T̃"            # T-tilde
U_NONE = "dimensionless"
U_CURRENT = "ħ/t̃²"
U_DERIV = "ħ/(t̃²·T̃)"

AXIS_UNITS = {"T_M": U_TEMP, "t": U_TIME, "g": "1/" + U_TIME,
              "epsilon": "1/" + U_TIME}

MANIFEST_NAME = "manifest.json"


@dataclass
class Table:
    """One CSV worth of results: header metadata plus rows."""

    stem: str
    columns: List[Tuple[str, str]]      # (name, unit)
    rows: List[List[float]]
    errors: List[str]                   # one entry per row, "" when clean

    @property
    def failed(self) -> bool:
        return any(self.errors)

    @property
    def failed_rows(self) -> int:
        return sum(1 for e in self.errors if e)


def sweep_table(result: metrics.SweepResult, stem: str,
                modulating: str = "M") -> Table:
    """Full per-point table for one sweep: currents, derivatives, alphas.

    The columns are the terminals the sweep was asked for, so a sweep
    whose every point failed keeps them.  The temperature axis and the
    derivative columns are named after the ``modulating`` terminal (``L``
    on the two-qubit device).
    """
    axis = f"T_{modulating}" if result.axis == "T_M" else result.axis
    columns = [(axis, AXIS_UNITS[result.axis])]
    columns += [(f"J_{x}", U_CURRENT) for x in result.currents]
    columns += [(f"dJ{x}_dT{modulating}", U_DERIV) for x in result.derivatives]
    columns += [(f"alpha_{x}", U_NONE) for x in result.alphas]
    data = np.column_stack([result.grid, *result.currents.values(),
                            *result.derivatives.values(),
                            *result.alphas.values()])
    return Table(stem=stem, columns=columns, rows=data.tolist(),
                 errors=list(result.errors))


def _csv_lines(table: Table) -> Iterator[str]:
    """The CSV of ``table``, one newline-terminated line at a time.

    Every row's width and the error count are checked when this is
    called, before any line is produced, so a bad table raises before a
    file is opened.
    """
    if len(table.rows) != len(table.errors):
        raise ValueError("one error entry per row required")
    width = len(table.columns)
    for row in table.rows:
        if len(row) != width:
            raise ValueError(
                f"row width {len(row)} != {width} columns in {table.stem}")
    header = "# " + ",".join(f"{n}({u})" for n, u in table.columns)
    line = "%.11e," * width + "%s\n"
    # + 0.0 turns -0.0 into 0.0: an exact zero is written unsigned;
    # errors may not introduce extra separators
    rows = (line % (*[v + 0.0 for v in row],
                    err.replace(",", ";").replace("\n", " "))
            for row, err in zip(table.rows, table.errors))
    return itertools.chain((header + ",error\n",), rows)


def render_table(table: Table) -> str:
    return "".join(_csv_lines(table))


def write_table(table: Table, out_dir: Path) -> Path:
    """Stream ``table`` into ``out_dir/<stem>.csv``; the file's bytes are
    ``render_table``'s, and the whole text is never held at once."""
    lines = _csv_lines(table)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{table.stem}.csv"
    # the encoding and newline handling of Path.write_text
    with path.open("w", encoding="utf-8") as fh:
        fh.writelines(lines)
    return path


def file_sha256(path: Path) -> str:
    digest = _sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def write_manifest(
    out_dir: Path,
    *,
    parameters: Dict,
    files: Sequence[Path],
    duration_seconds: float,
    failed_points: int = 0,
) -> Path:
    """JSON sidecar with everything needed to reproduce the CSVs.

    Written last on purpose: its presence marks a completed run.
    """
    out_dir = Path(out_dir)
    manifest = {
        "artifact_version": __version__,
        "generated_at": datetime.now(timezone.utc).isoformat(
            timespec="seconds"),
        "parameters": parameters,
        "duration_seconds": round(float(duration_seconds), 3),
        "failed_points": int(failed_points),
        "blas_threads": BLAS_THREADS,
        "status": "partial" if failed_points else "complete",
        "files": {
            Path(p).name: {
                "sha256": file_sha256(p),
                "bytes": Path(p).stat().st_size,
            }
            for p in sorted(files, key=lambda p: Path(p).name)
        },
    }
    path = out_dir / MANIFEST_NAME
    path.write_text(
        json.dumps(manifest, indent=2, sort_keys=True, ensure_ascii=False)
        + "\n",
        encoding="utf-8")
    return path
