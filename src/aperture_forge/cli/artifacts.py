"""Portable run artifacts: P2 graymaps, CSV tables, checksums.

Everything written here is plain ASCII so runs can be diffed and
checksummed across machines.  Images carry a companion CSV of the raw
matrix at full float64 precision (%.17g round-trips exactly).
"""

import hashlib
from pathlib import Path

import numpy as np

DB_NOTE = "dB convention: 10*log10 for power quantities, 20*log10 for field quantities"


def _to_db(grid, scale):
    if scale == "db":
        return grid
    with np.errstate(divide="ignore"):
        mag = np.log10(np.abs(grid))
    if scale == "power":
        return 10.0 * mag
    if scale == "field":
        return 20.0 * mag
    raise ValueError("scale must be 'db', 'power' or 'field'")


def render_image(grid, path, dynamic_range_db=60.0, scale="db"):
    """Write ``grid`` as an 8-bit ASCII graymap plus a raw-value CSV.

    The top ``dynamic_range_db`` decibels below the peak map linearly to
    [0, 255]; anything deeper clips to black.  ``scale`` says how to read
    the input: already in dB, linear power, or linear field amplitude.
    Returns the (pgm, csv) paths.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 2 or grid.size == 0:
        raise ValueError("image grid must be 2-D and non-empty")
    if not np.all(np.isfinite(grid)):
        raise ValueError("image grid must be finite")
    if dynamic_range_db <= 0:
        raise ValueError("dynamic_range_db must be positive")
    db = _to_db(grid, scale)
    peak = float(db.max())
    if np.isfinite(peak):
        # zeros come through as -inf and clip cleanly to 0
        scaled = (db - (peak - dynamic_range_db)) * (255.0 / dynamic_range_db)
        pixels = np.rint(np.clip(scaled, 0.0, 255.0)).astype(int)
    else:
        pixels = np.zeros(grid.shape, dtype=int)

    path = Path(path)
    lines = [
        "P2",
        f"# [{peak - dynamic_range_db:.6g}, {peak:.6g}] dB -> [0, 255]; {DB_NOTE}",
        f"{grid.shape[1]} {grid.shape[0]}",
        "255",
    ]
    lines.extend(" ".join(str(v) for v in row) for row in pixels)
    path.write_text("\n".join(lines) + "\n")

    csv_path = path.with_suffix(".csv")
    np.savetxt(csv_path, grid, delimiter=",", fmt="%.17g")
    return path, csv_path


def write_table(path, columns):
    """CSV with a '# name,name' header row.

    ``columns`` maps column name to a 1-D array; all must be equal
    length.  Values print as %.17g so floats survive a round trip.
    """
    names = list(columns)
    data = np.column_stack([np.asarray(columns[k], dtype=float) for k in names])
    np.savetxt(path, data, delimiter=",", fmt="%.17g", header=",".join(names))
    return Path(path)


def write_sweep(path, sweep):
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
    shape = f"{lat.shape[0]} x {lat.shape[1]}" if lat.shape else "irregular"
    header = "\n".join(
        [
            f"lattice: {shape}, d_x={lat.d_x:.17g} m, d_y={lat.d_y:.17g} m,"
            f" z={lat.z_plane:.17g} m, active={n_pos}",
            f"tones: f_start={grid.f_start:.17g} Hz, f_stop={grid.f_stop:.17g} Hz,"
            f" df={grid.df:.17g} Hz, s={s}",
            "position_index, x, y, z, f_Hz, re, im",
        ]
    )
    fmt = ["%d"] + ["%.17g"] * 6
    np.savetxt(path, rows, delimiter=", ", fmt=fmt, header=header)
    return Path(path)


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


class ArtifactSink:
    """Collects the files one scenario writes, for the run manifest.

    Emission honors the config's emit flags; a disabled class of
    artifact is simply skipped and never appears in the manifest.
    """

    def __init__(self, out_dir, emit_images=True, emit_csv=True):
        self.out_dir = Path(out_dir)
        self.emit_images = emit_images
        self.emit_csv = emit_csv
        self.paths = {}

    def image(self, name, grid, dynamic_range_db=60.0, scale="db"):
        if not self.emit_images:
            return
        pgm, csv = render_image(
            grid, self.out_dir / f"{name}.pgm", dynamic_range_db, scale=scale
        )
        self.paths[pgm.name] = pgm
        self.paths[csv.name] = csv

    def table(self, name, columns):
        if not self.emit_csv:
            return
        p = write_table(self.out_dir / f"{name}.csv", columns)
        self.paths[p.name] = p

    def sweep(self, name, sweep):
        if not self.emit_csv:
            return
        p = write_sweep(self.out_dir / f"{name}.csv", sweep)
        self.paths[p.name] = p

    def manifest(self) -> dict:
        return {
            name: {"path": name, "sha256": sha256_file(p)}
            for name, p in sorted(self.paths.items())
        }
