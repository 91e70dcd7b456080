"""On-disk formats: raw complex field files, binary PGM images, and CSV
tables.  Every write is atomic (temp file then rename)."""

from __future__ import annotations

import json
import math
import os
import tempfile

import numpy as np

from .modes import ComplexField, GridSpec

FIELD_FORMAT_VERSION = 1


def _atomic_write_bytes(path: str, *parts):
    """Write the bytes-like parts, in order, to path through a temp file in
    its directory and a rename."""
    directory = os.path.dirname(os.path.abspath(path))
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".evf-tmp-")
    except OSError as exc:
        # name the file asked for, not the temp name
        raise type(exc)(exc.errno, exc.strerror, path) from None
    try:
        with os.fdopen(fd, "wb") as handle:
            for part in parts:
                handle.write(part)
        os.chmod(tmp, 0o644)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_text(path: str, text: str):
    _atomic_write_bytes(path, text.encode())


def save_field(path: str, field: ComplexField, energy_ev: float,
               field_t: float, note: str = ""):
    """Write a field file: one JSON header line, then the raw payload.

    The payload is little-endian float64 (re, im) pairs, row-major,
    16 * n^2 bytes exactly.
    """
    header = {
        "format_version": FIELD_FORMAT_VERSION,
        "grid": {"n": field.grid.samples_per_side,
                 "side_m": field.grid.physical_side_length},
        "z_m": field.z_position,
        "energy_eV": energy_ev,
        "field_T": field_t,
        "note": note,
    }
    payload = np.ascontiguousarray(field.amplitudes, dtype="<c16")
    _atomic_write_bytes(path, json.dumps(header).encode() + b"\n",
                        memoryview(payload))


def load_field(path: str):
    """Read a field file; returns (ComplexField, header dict).  A malformed
    header or payload raises ValueError naming the path."""
    with open(path, "rb") as handle:
        blob = handle.read()
    newline = blob.find(b"\n")
    try:
        if newline < 0:
            raise ValueError("missing header terminator")
        header = json.loads(blob[:newline])
        if not isinstance(header, dict):
            raise ValueError("header is not a JSON object")
        version = header.get("format_version")
        if version != FIELD_FORMAT_VERSION:
            raise ValueError(f"unsupported format_version {version!r}")
        grid = header.get("grid")
        if not isinstance(grid, dict):
            raise ValueError(f"header grid is {grid!r}, not an object")
        side, z = grid.get("side_m"), header.get("z_m")
        for name, value in (("grid side_m", side), ("z_m", z)):
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ValueError(f"header {name} is {value!r}, not a number")
        grid = GridSpec(grid.get("n"), side)
        n = grid.samples_per_side
        payload = blob[newline + 1:]
        if len(payload) != 16 * n * n:
            raise ValueError(f"payload is {len(payload)} bytes, "
                             f"expected {16 * n * n}")
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    amps = np.frombuffer(payload, dtype="<c16").reshape(n, n).copy()
    return ComplexField(grid, z, amps), header


def write_pgm(path: str, gray: np.ndarray):
    """Binary PGM (P5, maxval 255) from a uint8 array."""
    gray = np.ascontiguousarray(gray, dtype=np.uint8)
    if gray.ndim != 2:
        raise ValueError("PGM output needs a 2-D array")
    header = f"P5\n{gray.shape[1]} {gray.shape[0]}\n255\n".encode()
    _atomic_write_bytes(path, header, memoryview(gray))


def write_mask_pgm(path: str, values: np.ndarray):
    """Binary mask as 0/255 pixels."""
    write_pgm(path, values.astype(np.uint8) * 255)


#: Rows quantise_intensity scales at a time, bounding its float scratch;
#: also the block height of a plane op's column spectrum, frame and band
#: power.
QUANTISE_BLOCK_ROWS = 64


def quantise_block(intensity: np.ndarray, peak: float, scratch: np.ndarray,
                   out: np.ndarray) -> np.ndarray:
    """Write rint(255 * intensity / peak) of a block of rows into the uint8
    array out, all zeros unless peak > 0; returns out.

    The block is scaled in the float array scratch of its shape, in that
    operation order; scratch may be intensity itself, which is then
    overwritten.
    """
    if not peak > 0:
        out.fill(0)
        return out
    np.multiply(intensity, 255.0, out=scratch)
    scratch /= peak
    np.rint(scratch, out=scratch)
    out[...] = scratch
    return out


def quantise_intensity(intensity: np.ndarray, peak: float) -> np.ndarray:
    """8-bit frame rint(255 * intensity / peak) of a 2-D intensity, all
    zeros unless peak > 0.

    The rows are scaled a block at a time (quantise_block) through one
    scratch, so the bytes do not depend on the block size and the input is
    not modified.
    """
    if intensity.ndim != 2:
        raise ValueError("PGM output needs a 2-D array")
    out = np.empty(intensity.shape, dtype=np.uint8)
    rows = intensity.shape[0]
    scratch = np.empty((min(rows, QUANTISE_BLOCK_ROWS), intensity.shape[1]),
                       dtype=np.result_type(intensity, 255.0))
    for lo in range(0, rows, QUANTISE_BLOCK_ROWS):
        hi = min(lo + QUANTISE_BLOCK_ROWS, rows)
        quantise_block(intensity[lo:hi], peak, scratch[:hi - lo],
                       out[lo:hi])
    return out


def write_frame_pgm(path: str, gray: np.ndarray, peak: float) -> float:
    """Quantised intensity frame plus its '<path>.json' sidecar recording the
    peak, so frames remain quantitatively comparable; returns the peak."""
    # a non-finite peak is refused before the frame is written
    sidecar = json.dumps({"max_intensity": peak}, allow_nan=False) + "\n"
    write_pgm(path, gray)
    write_text(path + ".json", sidecar)
    return peak


def write_intensity_pgm(path: str, intensity: np.ndarray) -> float:
    """Intensity frame with per-frame max normalisation (quantise_intensity)
    and its peak sidecar; returns the peak."""
    peak = float(intensity.max())
    return write_frame_pgm(path, quantise_intensity(intensity, peak), peak)


def format_csv(comment: str, columns, rows) -> str:
    """CSV with a '#' comment line naming columns and units.  A row with a
    non-finite value is refused with ValueError."""
    lines = [f"# {comment}" if comment else "#", ",".join(columns)]
    for row in rows:
        line = ",".join(f"{value:.12e}" for value in row)
        if not all(math.isfinite(value) for value in row):
            raise ValueError(f"refusing to write a non-finite CSV row: {line}")
        lines.append(line)
    return "\n".join(lines) + "\n"
