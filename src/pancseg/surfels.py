"""Dual-grid surface elements (surfels) for area-weighted surface metrics.

A surfel is located at each corner of the voxel grid where the surrounding
2x2x2 voxel neighborhood is neither fully inside nor fully outside the mask.
The 8-bit occupancy code of that neighborhood indexes a marching-cubes lookup
table of (possibly multiple) triangle normals; scaling each normal by the
three face areas of the voxel spacing and summing the magnitudes yields the
surface area the surfel carries.  The normals come from the published
256-entry standard table used across segmentation evaluation tooling, which
the test suite keeps verbatim (``tests/oracles.py``).  An area needs only each
normal's absolute value and the order of a code's normals, so this module
keeps the ten distinct absolute rows and, per code, the indices of its rows in
table order; the areas are bit-compatible with that lineage.
"""
from __future__ import annotations

import numpy as np

# Bit assignment of the 2x2x2 neighborhood. The code computed at grid index i
# covers source voxels i-1 and i along each axis (zero outside), so code
# positions live on the dual grid at (i - 0.5) * spacing.
CODE_KERNEL = np.array([[[128, 64], [32, 16]], [[8, 4], [2, 1]]])

# The ten distinct absolute normals of the table, zero row first.
_ROWS = np.array(
    [
        [0.0, 0.0, 0.0],
        [0.125, 0.125, 0.125],
        [0.25, 0.25, 0.0],
        [0.25, 0.0, 0.25],
        [0.5, 0.0, 0.0],
        [0.25, 0.25, 0.25],
        [0.0, 0.25, 0.25],
        [0.0, 0.5, 0.0],
        [0.0, 0.0, 0.5],
        [0.375, 0.375, 0.375],
    ]
)

# One token per code 0..255, sixteen codes a line: digit k is the index into
# _ROWS of the code's k-th normal in table order.
_CODE_ROWS = """
    0 1 1 22 1 33 11 451 1 11 33 451 22 451 451 44
    1 66 11 751 11 851 111 1551 11 661 331 1963 122 9612 4151 415
    1 11 66 715 11 133 661 9613 11 111 851 5511 122 4511 6912 451
    22 751 715 77 221 9312 1751 751 122 7511 9213 751 2222 221 122 22
    1 11 11 122 66 851 661 9612 11 111 133 4511 751 5511 3961 451
    33 851 133 3921 851 88 1158 158 331 8511 3333 133 3921 851 133 33
    11 111 166 7151 661 8511 6666 661 111 1111 8511 111 7511 111 661 11
    451 5151 9613 751 9261 158 166 66 4511 111 331 11 221 11 11 1
    1 11 11 221 11 331 111 4511 66 166 158 9261 751 9613 5151 451
    11 661 111 7511 111 8511 1111 111 661 6666 8511 661 7151 166 111 11
    33 133 851 3921 133 3333 8511 331 158 1158 88 851 3921 133 851 33
    451 3961 5511 751 4511 133 111 11 9612 661 851 66 122 11 11 1
    22 122 221 2222 751 9213 7511 122 751 1751 9312 221 77 715 751 22
    451 6912 4511 122 5511 851 111 11 9613 661 133 11 715 66 11 1
    415 4151 9612 122 1963 331 661 11 1551 111 851 11 751 11 66 1
    44 451 451 22 451 33 11 1 451 11 33 1 22 1 1 0
"""

# every code's row indices, padded to four with the zero row: it adds no area
_ROW_INDEX = np.array([[int(d) for d in token.ljust(4, "0")] for token in _CODE_ROWS.split()])


def surfel_area_table(spacing) -> np.ndarray:
    """Surface area (mm^2) contributed by each of the 256 neighborhood codes.

    Component i of every normal is scaled by the voxel face area orthogonal
    to axis i; the code's area is the sum of the scaled normal magnitudes.
    Codes 0 and 255 (fully outside/inside) carry zero area.
    """
    s0, s1, s2 = (float(s) for s in spacing)
    scaled = _ROWS * np.array([s1 * s2, s0 * s2, s0 * s1])
    row_area = np.sqrt((scaled * scaled).sum(axis=1))
    return row_area[_ROW_INDEX].sum(axis=1)


def neighbour_codes(bits: np.ndarray) -> np.ndarray:
    """8-bit occupancy code of every 2x2x2 neighborhood (zeros outside)."""
    nx, ny, nz = bits.shape
    padded = np.zeros((nx + 1, ny + 1, nz + 1), dtype=np.uint8)
    padded[1:, 1:, 1:] = bits
    codes = np.zeros(bits.shape, dtype=np.uint8)
    for (a, b, c), weight in np.ndenumerate(CODE_KERNEL):
        codes += padded[a : a + nx, b : b + ny, c : c + nz] * int(weight)
    return codes


def border_map(codes: np.ndarray) -> np.ndarray:
    """True where a code marks a surfel (mixed inside/outside neighborhood)."""
    return (codes != 0) & (codes != 255)
