"""Portable run artifacts: P2 graymaps, CSV tables, checksums.

Everything written here is plain ASCII so runs can be diffed and
checksummed across machines.  Images carry a companion CSV of the raw
matrix at full float64 precision (%.17g round-trips exactly).
"""

import hashlib
import io
from pathlib import Path

import numpy as np

from ..core import _require_finite, _require_finite_positive

DB_NOTE = "dB convention: 10*log10 for power quantities, 20*log10 for field quantities"


def _savetxt(rows, **kwargs) -> str:
    """What ``np.savetxt`` would write to a file, as text."""
    buf = io.StringIO()
    np.savetxt(buf, rows, **kwargs)
    return buf.getvalue()


def render_image(grid, scale, dynamic_range_db=60.0):
    """``grid`` as an 8-bit ASCII graymap plus a raw-value CSV.

    The top ``dynamic_range_db`` decibels below the peak map linearly to
    [0, 255]; anything deeper clips to black.  ``scale`` says how to read
    the input: linear power or linear field amplitude.
    Returns the (pgm, csv) texts; raises ValueError if ``grid`` is not
    2-D, non-empty and finite, or the range or scale is invalid.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 2 or grid.size == 0:
        raise ValueError("image grid must be 2-D and non-empty")
    _require_finite(grid=grid)
    _require_finite_positive(dynamic_range_db=dynamic_range_db)
    if scale not in ("power", "field"):
        raise ValueError("scale must be 'power' or 'field'")
    with np.errstate(divide="ignore"):
        db = (10.0 if scale == "power" else 20.0) * np.log10(np.abs(grid))
    peak = float(db.max())
    if np.isfinite(peak):
        # zeros come through as -inf and clip cleanly to 0
        scaled = (db - (peak - dynamic_range_db)) * (255.0 / dynamic_range_db)
        pixels = np.rint(np.clip(scaled, 0.0, 255.0)).astype(int)
    else:
        pixels = np.zeros(grid.shape, dtype=int)

    lines = [
        "P2",
        f"# [{peak - dynamic_range_db:.6g}, {peak:.6g}] dB -> [0, 255]; {DB_NOTE}",
        f"{grid.shape[1]} {grid.shape[0]}",
        "255",
    ]
    lines.extend(" ".join(str(v) for v in row) for row in pixels)
    return "\n".join(lines) + "\n", _savetxt(grid, delimiter=",", fmt="%.17g")


def render_table(columns) -> str:
    """CSV with a '# name,name' header row.

    ``columns`` maps column name to a 1-D array; all must be equal
    length.  Values print as %.17g so floats survive a round trip.
    """
    data = np.column_stack([np.asarray(col, dtype=float) for col in columns.values()])
    return _savetxt(data, delimiter=",", fmt="%.17g", header=",".join(columns))


def render_sweep(sweep) -> str:
    """Sweep interchange file: lattice and tone header, then one row
    `position_index, x, y, z, f_Hz, re, im` per (position, tone)."""
    lat, grid = sweep.lattice, sweep.grid
    pos = lat.active_positions()
    f = grid.frequencies()
    n_pos, s = pos.shape[0], f.size
    rows = np.empty((n_pos * s, 7))
    rows[:, 0] = np.repeat(np.arange(n_pos), s)
    rows[:, 1:4] = np.repeat(pos, s, axis=0)
    rows[:, 4] = np.tile(f, n_pos)
    rows[:, 5] = sweep.s21.real.ravel()
    rows[:, 6] = sweep.s21.imag.ravel()
    header = "\n".join(
        [
            f"lattice: {lat.shape[0]} x {lat.shape[1]}, d_x={lat.d_x:.17g} m,"
            f" d_y={lat.d_y:.17g} m, z=0 m, active={n_pos}",
            f"tones: f_start={grid.f_start:.17g} Hz, f_stop={grid.f_stop:.17g} Hz,"
            f" df={grid.df:.17g} Hz, s={s}",
            "position_index, x, y, z, f_Hz, re, im",
        ]
    )
    fmt = ["%d"] + ["%.17g"] * 6
    return _savetxt(rows, delimiter=", ", fmt=fmt, header=header)


class ArtifactSink:
    """Renders each artifact a scenario makes at the call, so a bad one
    fails inside the runner, and keeps its text by file name (a later
    call under the same name wins); `manifest` writes them all, so none
    reaches disk before the run has succeeded.  A class of artifact whose
    emit flag is off is not rendered."""

    def __init__(self, out_dir, emit_images=True, emit_csv=True):
        self.out_dir = Path(out_dir)
        self.emit_images = emit_images
        self.emit_csv = emit_csv
        self._texts = {}  # file name -> rendered text, in call order

    def image(self, name, grid, scale, dynamic_range_db=60.0):
        if self.emit_images:
            pgm, csv = render_image(grid, scale, dynamic_range_db)
            self._texts[f"{name}.pgm"], self._texts[f"{name}.csv"] = pgm, csv

    def table(self, name, columns):
        if self.emit_csv:
            self._texts[f"{name}.csv"] = render_table(columns)

    def sweep(self, name, sweep):
        if self.emit_csv:
            self._texts[f"{name}.csv"] = render_sweep(sweep)

    def manifest(self) -> dict:
        """Create ``out_dir``, write the rendered artifacts in call order
        and hash the bytes written."""
        self.out_dir.mkdir(parents=True, exist_ok=True)
        digests = {}
        for name, text in self._texts.items():
            data = text.encode()
            (self.out_dir / name).write_bytes(data)
            digests[name] = hashlib.sha256(data).hexdigest()
        return {name: {"path": name, "sha256": digests[name]} for name in sorted(digests)}
