"""Uniform spatial grid index over 2-D point sets.

The truncated mean-shift asks "which points lie near this seed?" once per
gather.  Brute force scans every particle per query; this index buckets
the points into a uniform grid once per population revision and answers
each query by scanning only the cells overlapping the disc's bounding
box.  With cell size around half the query radius that is a handful of
cells -- per-query cost is bounded by the local point density, not the
population size.

The index is CSR-style: one ``argsort`` of the flattened cell ids, after
which every cell is a contiguous slice of the sort order.  Cells sharing
a grid column are contiguous in id, so a query resolves one
``searchsorted`` pair per column instead of one per cell.

:meth:`query_disc` applies the true distance test and sorts the
surviving indices ascending, making the result *bit-identical* to the
brute-force ``ParticleSet.indices_within``.  :meth:`query_candidates`
skips both steps for callers -- like the truncated mean-shift -- that
only need a superset cheaply.
"""

from __future__ import annotations

from typing import Optional

import numpy as np


class SpatialGridIndex:
    """A uniform-grid index over point arrays.

    The index snapshots nothing: it keeps references to the coordinate
    arrays it was built from, so binning is only valid while those arrays
    are unchanged.  :class:`~repro.core.particles.ParticleSet` owns the
    rebuild-on-revision logic.
    """

    __slots__ = (
        "xs", "ys", "cell_size", "x0", "y0", "n_cols", "n_rows",
        "_order", "_sorted_cids", "queries", "candidates_scanned",
    )

    def __init__(self, xs: np.ndarray, ys: np.ndarray, cell_size: float):
        if cell_size <= 0 or not np.isfinite(cell_size):
            raise ValueError(f"cell_size must be positive and finite, got {cell_size}")
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        if len(xs) != len(ys):
            raise ValueError(f"coordinate length mismatch: {len(xs)} vs {len(ys)}")
        if len(xs) == 0:
            raise ValueError("cannot index an empty point set")
        self.xs = xs
        self.ys = ys
        self.cell_size = float(cell_size)
        inv = 1.0 / self.cell_size
        self.x0 = float(xs.min())
        self.y0 = float(ys.min())
        cx = np.floor((xs - self.x0) * inv).astype(np.int64)
        cy = np.floor((ys - self.y0) * inv).astype(np.int64)
        self.n_cols = int(cx.max()) + 1
        self.n_rows = int(cy.max()) + 1
        cids = cx * self.n_rows + cy
        # Stable sort keeps within-cell indices ascending, so per-cell
        # slices come out pre-sorted.
        self._order = np.argsort(cids, kind="stable")
        self._sorted_cids = cids[self._order]
        #: Query instrumentation (cheap int bumps; read by the localizer's
        #: metrics path, ignored otherwise).  Every query bumps ``queries``
        #: once and ``candidates_scanned`` by the number of candidate rows
        #: it touched -- including the empty and out-of-bounds exits,
        #: which contribute zero.
        self.queries = 0
        self.candidates_scanned = 0

    def __len__(self) -> int:
        return len(self.xs)

    # --- queries ---------------------------------------------------------------

    def _column_ranges(self, x: float, y: float, radius: float):
        """Clamped (cx_lo, cx_hi, cy_lo, cy_hi) or ``None`` off-grid."""
        if radius < 0:
            raise ValueError(f"radius must be non-negative, got {radius}")
        inv = 1.0 / self.cell_size
        cx_lo = int(np.floor((x - radius - self.x0) * inv))
        cx_hi = int(np.floor((x + radius - self.x0) * inv))
        cy_lo = int(np.floor((y - radius - self.y0) * inv))
        cy_hi = int(np.floor((y + radius - self.y0) * inv))
        if cx_hi < 0 or cy_hi < 0 or cx_lo >= self.n_cols or cy_lo >= self.n_rows:
            return None
        return (
            max(cx_lo, 0),
            min(cx_hi, self.n_cols - 1),
            max(cy_lo, 0),
            min(cy_hi, self.n_rows - 1),
        )

    def query_candidates(self, x: float, y: float, radius: float) -> np.ndarray:
        """Indices whose *cells* overlap the disc's bounding box.

        A superset of the exact answer, unsorted; no distance test is
        applied.  Callers that evaluate a kernel over the result anyway
        (mean-shift) use this to skip the redundant filtering pass.
        """
        self.queries += 1
        ranges = self._column_ranges(x, y, radius)
        if ranges is None:
            return np.empty(0, dtype=np.int64)
        cx_lo, cx_hi, cy_lo, cy_hi = ranges
        # A fixed column's cy range is one contiguous cell-id interval;
        # resolve every column's interval with one searchsorted pair.
        bases = np.arange(cx_lo, cx_hi + 1, dtype=np.int64) * self.n_rows
        lo = np.searchsorted(self._sorted_cids, bases + cy_lo, side="left")
        hi = np.searchsorted(self._sorted_cids, bases + cy_hi + 1, side="left")
        order = self._order
        slices = [order[l:h] for l, h in zip(lo, hi) if h > l]
        if not slices:
            return np.empty(0, dtype=np.int64)
        candidates = slices[0] if len(slices) == 1 else np.concatenate(slices)
        self.candidates_scanned += len(candidates)
        return candidates

    def query_disc(
        self,
        x: float,
        y: float,
        radius: float,
        stats: Optional[dict] = None,
    ) -> np.ndarray:
        """Indices of points with ``(px-x)^2 + (py-y)^2 <= radius^2``.

        Sorted ascending: the result is array-equal to the brute-force
        scan, so fast-path selection stays bit-identical.  ``stats``, when
        given, receives ``candidates`` (points scanned) and ``selected``
        on every exit path, including empty and off-grid queries.
        """
        candidates = self.query_candidates(x, y, radius)
        if len(candidates) == 0:
            if stats is not None:
                stats["candidates"] = 0
                stats["selected"] = 0
            return candidates
        dx = self.xs[candidates] - x
        dy = self.ys[candidates] - y
        inside = candidates[dx * dx + dy * dy <= radius * radius]
        inside.sort()
        if stats is not None:
            stats["candidates"] = int(len(candidates))
            stats["selected"] = int(len(inside))
        return inside

    def __repr__(self) -> str:
        return (
            f"SpatialGridIndex(n={len(self)}, cell={self.cell_size:.2f}, "
            f"{self.n_cols}x{self.n_rows} cells)"
        )
