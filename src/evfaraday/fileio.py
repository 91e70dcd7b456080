"""On-disk formats: raw complex field files with a strict-JSON header,
binary PGM images and the 8-bit rule of intensity frames, and CSV tables.
Every write is atomic (temp file then rename)."""

from __future__ import annotations

import json
import math
import os
import tempfile

import numpy as np

from .modes import ComplexField, GridSpec

FIELD_FORMAT_VERSION = 1


def _atomic_write_bytes(path: str, parts, size: int):
    """Write a file of size bytes to path through a temp file in its
    directory and a rename: each (offset, bytes-like data) of parts is
    written at its offset, in order, and the file is then extended to size.
    Bytes no part covers are a hole, which reads back as zeros.  An OSError
    on the way names path, not the temp file, which is removed."""
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)),
                                   prefix=".evf-tmp-")
        with os.fdopen(fd, "wb") as handle:
            for offset, data in parts:
                handle.seek(offset)
                handle.write(data)
            handle.truncate(size)
        os.chmod(tmp, 0o644)
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError):
            raise type(exc)(exc.errno, exc.strerror, path) from None
        raise


def write_text(path: str, text: str):
    data = text.encode()
    _atomic_write_bytes(path, [(0, data)], len(data))


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
    # a nan or inf is not JSON: refused before anything is written
    head = json.dumps(header, allow_nan=False).encode() + b"\n"
    _atomic_write_bytes(path, [(0, head), (len(head), memoryview(payload))],
                        len(head) + payload.nbytes)


def _refuse_constant(name: str):
    raise ValueError(f"header holds {name}, which is not JSON")


def load_field(path: str):
    """Read a field file; returns (ComplexField, header dict).  A malformed
    header or payload, or a header that save_field would refuse to write
    (the constants NaN and Infinity, or a number such as 1e999 that parses
    to inf), raises ValueError naming the path."""
    with open(path, "rb") as handle:
        blob = handle.read()
    newline = blob.find(b"\n")
    try:
        if newline < 0:
            raise ValueError("missing header terminator")
        header = json.loads(blob[:newline], parse_constant=_refuse_constant)
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
        if not -math.inf < z < math.inf:
            raise ValueError(f"header z_m is {z!r}, not finite")
        grid = GridSpec(grid.get("n"), side)
        # what save_field would refuse to write back, such as an
        # "energy_eV": 1e999 that parsed to inf
        json.dumps(header, allow_nan=False)
        n = grid.samples_per_side
        payload = blob[newline + 1:]
        if len(payload) != 16 * n * n:
            raise ValueError(f"payload is {len(payload)} bytes, "
                             f"expected {16 * n * n}")
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    amps = np.frombuffer(payload, dtype="<c16").reshape(n, n).copy()
    return ComplexField(grid, z, amps), header


def _write_pgm_rows(path: str, shape: tuple[int, int], pieces):
    """Binary PGM (P5, maxval 255) of a rows x cols frame given as pieces
    (first row, uint8 rows x cols array); rows no piece covers are zero."""
    rows, cols = shape
    header = f"P5\n{cols} {rows}\n255\n".encode()
    parts = [(0, header)]
    for first, gray in pieces:
        parts.append((len(header) + first * cols,
                      memoryview(np.ascontiguousarray(gray, dtype=np.uint8))))
    _atomic_write_bytes(path, parts, len(header) + rows * cols)


def write_pgm(path: str, gray: np.ndarray):
    """Binary PGM (P5, maxval 255) from a uint8 array."""
    if np.ndim(gray) != 2:
        raise ValueError("PGM output needs a 2-D array")
    _write_pgm_rows(path, np.shape(gray), [(0, gray)])


def write_mask_pgm(path: str, values: np.ndarray):
    """Binary mask as 0/255 pixels."""
    write_pgm(path, values.astype(np.uint8) * 255)


def quantise_block(intensity: np.ndarray, peak: float,
                   out: np.ndarray) -> np.ndarray:
    """Write rint(255 * intensity / peak) of a float intensity into the
    uint8 array out of its shape, all zeros unless peak > 0; returns out.

    The intensity is scaled in place, in that operation order, and so is
    overwritten.
    """
    if not peak > 0:
        out.fill(0)
        return out
    intensity *= 255.0
    intensity /= peak
    np.rint(intensity, out=intensity)
    out[...] = intensity
    return out


def write_frame_pgm(path: str, shape: tuple[int, int], pieces,
                    peak: float) -> float:
    """Quantised intensity frame of this (rows, cols) shape, given as pieces
    (first row, uint8 rows), plus its '<path>.json' sidecar recording the
    peak, so frames remain quantitatively comparable; returns the peak.
    Rows no piece covers are zero bytes, left as a hole in the file."""
    # a non-finite peak is refused before the frame is written
    sidecar = json.dumps({"max_intensity": peak}, allow_nan=False) + "\n"
    _write_pgm_rows(path, shape, pieces)
    write_text(path + ".json", sidecar)
    return peak


def write_intensity_pgm(path: str, field: ComplexField) -> float:
    """The field's intensity frame with per-frame max normalisation
    (quantise_block) and its peak sidecar; returns the peak."""
    intensity = field.intensity()
    peak = float(intensity.max())
    gray = np.empty(intensity.shape, dtype=np.uint8)
    return write_frame_pgm(path, gray.shape,
                           [(0, quantise_block(intensity, peak, gray))], peak)


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
