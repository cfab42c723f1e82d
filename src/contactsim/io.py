"""Flat-file emission and parsing: trajectory CSV, summary JSON, SVG plots.

The CSV schema, in exact column order, is

    t, q1..qn, v1..vn, z, E, ell, event_flag

for the Lagrangian formulation, whose v columns hold velocities; the
Hamiltonian formulation names its momentum columns p1..pn instead, so a
file says how to read it back. ell is the planar angular quantity
x vy - y vx (0.0 for non-planar systems),
and event_flag is 0 for flow samples, 1 for the pre-impact limit, 2 for
the post-impact limit. Floats are printed with 17 significant digits so
a written file round-trips bit for bit. JSON output is sorted-key and
indent-2, so identical runs produce identical bytes. SVG plots are
hand-assembled (no rendering dependency): boundary outline plus the
sampled polyline in a fixed 800 x 800 viewport.
"""

from __future__ import annotations

import json
from typing import Optional

import numpy as np

__all__ = [
    "format_float",
    "write_trajectory_csv",
    "read_trajectory_csv",
    "write_summary_json",
    "svg_document",
    "write_svg",
]


def format_float(x: float) -> str:
    return format(float(x), ".17g")


# Prefix of the second block of state columns, per formulation.
_SECOND_BLOCK = {"lagrangian": "v", "hamiltonian": "p"}


def csv_header(n: int, formulation: str) -> list:
    x = _SECOND_BLOCK[formulation]
    return (["t"]
            + [f"q{i + 1}" for i in range(n)]
            + [f"{x}{i + 1}" for i in range(n)]
            + ["z", "E", "ell", "event_flag"])


def write_trajectory_csv(path, times, states, flags, energies, ells,
                         formulation: str) -> None:
    states = np.asarray(states, dtype=float)
    header = csv_header(states.shape[1] // 2, formulation)
    # every float as format_float prints it, and the flag as an integer
    table = np.column_stack([times, states, energies, ells, flags])
    with open(path, "w") as fh:   # a handle: given a path, savetxt imports gzip
        np.savetxt(fh, table, fmt=["%.17g"] * (len(header) - 1) + ["%d"], delimiter=",",
                   header=",".join(header), comments="")


def _parses(line: str, width: int) -> bool:
    """Whether np.loadtxt reads line as one row of width numbers."""
    try:
        return np.loadtxt([line], delimiter=",", comments=None, ndmin=2).shape == (1, width)
    except ValueError:
        return False


def read_trajectory_csv(path) -> dict:
    """Parse a trajectory CSV back into arrays, the writer's inverse; infers n
    and the formulation from the header. "v" holds the velocity or momentum
    columns, and "row" each data row's 1-based file row. A ValueError names
    the path, and the file row of a row that does not parse or has a flag
    not 0, 1, 2."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    # 0-based: the first line not blank, and the later ones np.loadtxt reads
    top = next((i for i, line in enumerate(lines) if line.strip()), len(lines))
    rows = [i for i in range(top + 1, len(lines)) if lines[i]]
    if not any(lines[i].strip() for i in rows):   # np.loadtxt would only warn
        raise ValueError(f"{path}: trajectory file has no data rows")
    header = lines[top].strip().split(",")
    n_state_cols = len(header) - 5   # t, z, E, ell, event_flag
    if n_state_cols <= 0 or n_state_cols % 2 != 0:
        raise ValueError(f"{path}: malformed header {header!r}")
    n = n_state_cols // 2
    formulation = next((f for f in _SECOND_BLOCK if header == csv_header(n, f)), None)
    if formulation is None:
        raise ValueError(f"{path}: header does not match the trajectory schema")
    try:   # comments=None: a '#' is a bad cell, not the end of the row
        data = np.loadtxt([lines[i] for i in rows], delimiter=",", comments=None, ndmin=2)
    except ValueError:   # its message counts only the rows it read
        data = None
    if data is None or data.shape[1] != len(header):   # then some row fails alone
        bad = next(i + 1 for i in rows if not _parses(lines[i], len(header)))
        raise ValueError(f"{path}: row {bad} does not parse into {len(header)} numbers")
    flag = data[:, -1]
    bad = np.flatnonzero(~np.isin(flag, (0, 1, 2)))
    if bad.size:
        raise ValueError(f"{path}: row {rows[bad[0]] + 1} has event_flag "
                         f"{format_float(flag[bad[0]])}, expected 0, 1 or 2")
    return {
        "n": n,
        "formulation": formulation,
        "t": data[:, 0],
        "q": data[:, 1:1 + n],
        "v": data[:, 1 + n:1 + 2 * n],
        "z": data[:, 1 + 2 * n],
        "E": data[:, 2 + 2 * n],
        "ell": data[:, 3 + 2 * n],
        "flag": flag.astype(int),
        "row": np.array(rows) + 1,
    }


def write_summary_json(path, summary: dict) -> None:
    with open(path, "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _viewbox(boundary, points: Optional[np.ndarray]):
    xs, ys = [], []
    if boundary is not None:   # the semi-axes: r and r of a circle, a and b of an ellipse
        a, b = boundary[1], boundary[-1]
        xs += [-a, a]; ys += [-b, b]
    if points is not None and len(points):
        xs += [float(np.min(points[:, 0])), float(np.max(points[:, 0]))]
        ys += [float(np.min(points[:, 1])), float(np.max(points[:, 1]))]
    if not xs:
        xs, ys = [-1.0, 1.0], [-1.0, 1.0]
    return 1.05 * max(max(abs(v) for v in xs), max(abs(v) for v in ys), 1e-9)


_STROKE = "#1f4e8c"   # trajectory polyline colour


def svg_document(boundary, points: Optional[np.ndarray]) -> str:
    """SVG with the boundary outline and the sampled (x, y) polyline.

    ``boundary`` is ("circle", r), ("ellipse", a, b), or None; the y axis
    is flipped so the picture is in the usual mathematical orientation.
    """
    half = _viewbox(boundary, points)
    vb = f"{-half:.6f} {-half:.6f} {2 * half:.6f} {2 * half:.6f}"
    lw = 2 * half / 400.0
    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" width="800" height="800" '
        f'viewBox="{vb}">',
        f'<rect x="{-half:.6f}" y="{-half:.6f}" width="{2 * half:.6f}" '
        f'height="{2 * half:.6f}" fill="white"/>',
        '<g transform="scale(1,-1)">',
    ]
    if boundary is not None:
        if boundary[0] == "circle":
            parts.append(
                f'<circle cx="0" cy="0" r="{boundary[1]:.6f}" fill="none" '
                f'stroke="black" stroke-width="{lw:.6f}"/>')
        elif boundary[0] == "ellipse":
            parts.append(
                f'<ellipse cx="0" cy="0" rx="{boundary[1]:.6f}" ry="{boundary[2]:.6f}" '
                f'fill="none" stroke="black" stroke-width="{lw:.6f}"/>')
    if points is not None and len(points):
        pts = " ".join(f"{p[0]:.6f},{p[1]:.6f}" for p in points)
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{_STROKE}" '
            f'stroke-width="{lw:.6f}"/>')
    return "\n".join(parts + ["</g>", "</svg>"]) + "\n"


def write_svg(path, boundary, points) -> None:
    with open(path, "w") as fh:
        fh.write(svg_document(boundary, points))
