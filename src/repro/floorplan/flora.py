"""The FLORA-style pblock packer.

FLORA formulates DPR floorplanning as an optimization over column-
granular rectangles; this adaptation keeps its essential structure —
column-aware candidate enumeration, per-resource coverage, forbidden
column avoidance, non-overlap — with a deterministic best-fit heuristic
in place of the MILP (the flow only needs *a* legal floorplan; pblock
geometry does not feed the runtime model).

The candidate search is vectorized per band *height*. The fabric's
per-resource column prefix sums turn "does window [lo, hi] cover the
demand" into an O(1) subtraction, and a window of height ``h`` covers
resource ``k`` iff its column sum reaches ``ceil(need_k / h)``. So the
*minimal* satisfying ``col_hi`` of every anchor column — and with it
the window's area — depends on the height alone, not on which
clock-region rows the band spans: one ``np.searchsorted`` per resource
kind yields it for every (height, anchor) pair. Occupancy is a boolean
column x region-row grid; its summed-area table (blocked cells in rows
``[0, r)`` x columns ``[0, x)``) gives, for all bands of a height at
once, the blocked-cell count between an anchor and its ``col_hi`` as a
``(bands, columns)`` difference, and a window is free iff that count
is zero. A height therefore costs a fixed handful of numpy calls
however many bands it has; the Python loop runs over heights only.

:class:`ReferenceFloraFloorplanner` keeps the original scalar
per-window search as the executable specification; the equivalence
tests pin the vectorized planner to it bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.errors import FloorplanError
from repro.fabric.device import Device
from repro.fabric.pblock import Pblock
from repro.fabric.resources import ResourceKind, ResourceVector


@dataclass(frozen=True)
class RegionAssignment:
    """One RP's placement with its demand and provided resources."""

    rp_name: str
    pblock: Pblock
    demand: ResourceVector
    provided: ResourceVector

    @property
    def lut_utilization(self) -> float:
        """Demanded over provided LUTs."""
        return self.demand.lut / max(self.provided.lut, 1)


@dataclass(frozen=True)
class Floorplan:
    """A complete floorplan: one assignment per RP."""

    device_name: str
    assignments: Tuple[RegionAssignment, ...]

    def pblocks(self) -> List[Pblock]:
        """All pblocks in assignment order."""
        return [a.pblock for a in self.assignments]

    @cached_property
    def _by_name(self) -> Dict[str, RegionAssignment]:
        return {assignment.rp_name: assignment for assignment in self.assignments}

    def assignment_for(self, rp_name: str) -> RegionAssignment:
        """Assignment lookup by RP name (cached name->assignment map)."""
        assignment = self._by_name.get(rp_name)
        if assignment is None:
            raise FloorplanError(f"no assignment for RP {rp_name!r}")
        return assignment


class FloraFloorplanner:
    """Deterministic best-fit floorplanner over a device."""

    def __init__(
        self,
        device: Device,
        target_utilization: float = 0.7,
        max_height_regions: Optional[int] = None,
    ) -> None:
        if not 0.1 <= target_utilization <= 1.0:
            raise FloorplanError(
                f"target utilization must be in [0.1, 1.0], got {target_utilization}"
            )
        if max_height_regions is None:
            max_height_regions = device.region_rows
        elif max_height_regions < 1:
            raise FloorplanError(
                f"max height must be at least 1 region row, got {max_height_regions}"
            )
        self.device = device
        self.target_utilization = target_utilization
        # Taller bands than the device has rows hold no candidates.
        self.max_height = min(max_height_regions, device.region_rows)
        self._forbidden: Set[int] = set(device.forbidden_columns())
        self._forbidden_mask = np.zeros(device.num_columns, dtype=bool)
        self._forbidden_mask[list(self._forbidden)] = True
        # Per-resource prefix sums over column segments: prefix[x][k] is
        # the sum of resource k over columns [0, x) — owned and cached
        # by the device, shared across every planner instance.
        kinds = list(ResourceKind)
        self._prefix = device.resource_prefix()
        # Contiguous per-kind views: searchsorted needs 1-D sorted input.
        self._prefix_by_kind = [
            np.ascontiguousarray(self._prefix[:, k]) for k in range(len(kinds))
        ]
        self._kinds = kinds
        self._column_indices = np.arange(device.num_columns, dtype=np.int64)

    # ------------------------------------------------------------------
    def plan(self, demands: Sequence[Tuple[str, ResourceVector]]) -> Floorplan:
        """Place every RP; raises :class:`FloorplanError` if any fails.

        RPs are placed in descending LUT-demand order (hardest first),
        but the returned assignments preserve the caller's order.
        """
        if not demands:
            raise FloorplanError("nothing to floorplan")
        names = [name for name, _ in demands]
        if len(set(names)) != len(names):
            raise FloorplanError("RP names must be unique")

        occupied = self._empty_occupancy()
        placed: Dict[str, RegionAssignment] = {}
        order = sorted(demands, key=lambda item: (-item[1].lut, item[0]))
        for rp_name, demand in order:
            assignment = self._place_with_relaxation(rp_name, demand, occupied)
            placed[rp_name] = assignment
            self._mark_occupied(occupied, assignment.pblock)
        return Floorplan(
            device_name=self.device.name,
            assignments=tuple(placed[name] for name in names),
        )

    # ------------------------------------------------------------------
    # occupancy representation (the reference planner overrides these)
    # ------------------------------------------------------------------
    def _empty_occupancy(self) -> np.ndarray:
        return np.zeros((self.device.num_columns, self.device.region_rows), dtype=bool)

    def _mark_occupied(self, occupied: np.ndarray, pb: Pblock) -> None:
        occupied[pb.col_lo : pb.col_hi + 1, pb.row_lo : pb.row_hi + 1] = True

    # ------------------------------------------------------------------
    def _place_with_relaxation(
        self,
        rp_name: str,
        demand: ResourceVector,
        occupied: np.ndarray,
    ) -> RegionAssignment:
        """Place one RP, relaxing the routability headroom if needed.

        Dense designs (the paper's SOC_4 puts ~80% of the device into
        reconfigurable regions) cannot afford the full slack on every
        region; like FLORA, the planner degrades gracefully to tighter
        packing before giving up.
        """
        last_error: Optional[FloorplanError] = None
        for utilization in self._relaxation_ladder():
            try:
                return self._place_one(rp_name, demand, occupied, utilization)
            except FloorplanError as error:
                last_error = error
        assert last_error is not None
        raise last_error

    def _relaxation_ladder(self) -> List[float]:
        ladder = [self.target_utilization]
        for step in (0.8, 0.9, 0.97):
            if step > ladder[-1]:
                ladder.append(step)
        return ladder

    def _inflated(
        self, demand: ResourceVector, utilization: Optional[float] = None
    ) -> ResourceVector:
        """Demand inflated by the routability headroom (LUT/FF only;
        BRAM/DSP are column-quantized and need no slack)."""
        utilization = utilization or self.target_utilization
        return ResourceVector(
            lut=int(np.ceil(demand.lut / utilization)),
            ff=int(np.ceil(demand.ff / utilization)),
            bram=demand.bram,
            dsp=demand.dsp,
        )

    def _place_one(
        self,
        rp_name: str,
        demand: ResourceVector,
        occupied: np.ndarray,
        utilization: Optional[float] = None,
    ) -> RegionAssignment:
        """Smallest legal rectangle covering the inflated demand.

        Ties on area prefer the leftmost, bottom-most anchor so regions
        pack densely instead of fragmenting the fabric; area ties
        between band heights resolve to the shorter band (the scan goes
        height-ascending and only strictly better keys replace).
        """
        inflated = self._inflated(demand, utilization)
        need = np.array([inflated.get(kind) for kind in self._kinds], dtype=np.int64)
        device = self.device
        num_columns = device.num_columns
        columns = self._column_indices
        heights = np.arange(1, self.max_height + 1)
        # A window of height h satisfies resource k iff its column sum
        # reaches ceil(need_k / h) — both sides of "window * h >= need"
        # are integers. So the minimal satisfying col_hi of an anchor
        # depends on the height alone, never on the band's rows: one
        # binary search per kind over the prefix sums serves every
        # (height, anchor) pair. hi1[h - 1, a] is that col_hi plus one,
        # or num_columns + 1 when the demand runs past the right edge.
        hi1 = np.broadcast_to(columns + 1, (heights.size, num_columns))
        for k in np.flatnonzero(need > 0):
            prefix_k = self._prefix_by_kind[k]
            thresholds = -(-need[k] // heights)[:, None]
            hi1 = np.maximum(hi1, prefix_k.searchsorted(prefix_k[:-1] + thresholds))
        widths = hi1 - columns
        # blocked_sat[r, x]: blocked (occupied or forbidden) cells in rows
        # [0, r) x columns [0, x) — a summed-area table, so band
        # [row_lo, row_lo + h) holds no blocked cell in columns [a, hi1)
        # iff its row difference is equal at columns a and hi1. The last
        # column reads -r: its band difference is -h, which never equals
        # a count, so anchors whose demand runs off the edge fail.
        cells = (occupied | self._forbidden_mask[:, None]).T
        blocked_sat = np.zeros((device.region_rows + 1, num_columns + 2), dtype=np.int32)
        np.cumsum(
            np.cumsum(cells, axis=0), axis=1, out=blocked_sat[1:, 1 : num_columns + 1]
        )
        blocked_sat[:, -1] = -np.arange(device.region_rows + 1)
        best: Optional[Pblock] = None
        best_key: Optional[Tuple[int, int, int]] = None

        for height in heights.tolist():
            # Any candidate of this height has area >= height (width is
            # at least one column), so once a best key exists no taller
            # band can beat or tie it — identical results, less work.
            if best_key is not None and height > best_key[0]:
                break
            # band[row_lo, x]: blocked cells of band row_lo in columns
            # [0, x), every band of this height at once.
            band = blocked_sat[height:] - blocked_sat[:-height]
            feasible = band.take(hi1[height - 1], axis=1) == band[:, :num_columns]
            # Area is width x height, so within a height the key
            # (area, col_lo, row_lo) orders by width, then anchor (argmin
            # takes the first, leftmost minimum), then the lowest band.
            width = np.where(feasible.any(axis=0), widths[height - 1], num_columns + 1)
            col_lo = int(width.argmin())
            if width[col_lo] > num_columns:
                continue  # no feasible anchor in any band
            row_lo = int(feasible[:, col_lo].argmax())
            key = (int(width[col_lo]) * height, col_lo, row_lo)
            if best_key is None or key < best_key:
                best = Pblock(
                    name=f"pblock_{rp_name}",
                    col_lo=col_lo,
                    col_hi=int(hi1[height - 1, col_lo]) - 1,
                    row_lo=row_lo,
                    row_hi=row_lo + height - 1,
                )
                best_key = key

        if best is None:
            raise FloorplanError(
                f"cannot place RP {rp_name!r}: demand {demand} (inflated "
                f"{inflated}) does not fit the remaining fabric of {device.name}"
            )
        return RegionAssignment(
            rp_name=rp_name,
            pblock=best,
            demand=demand,
            provided=best.resources(self.device),
        )


class ReferenceFloraFloorplanner(FloraFloorplanner):
    """The original scalar per-window search, kept as the spec.

    Enumerates every candidate window with a two-pointer sweep and an
    O(1) prefix-sum check per step. Orders of magnitude slower than the
    vectorized planner but trivially auditable; the equivalence tests
    assert both produce identical :class:`Floorplan`s (relaxation
    ladder included) on seeded random demand sets. Occupancy is a set
    of (col, row) cells rather than the planner's boolean grid.
    """

    def _empty_occupancy(self) -> Set[Tuple[int, int]]:
        return set()

    def _mark_occupied(self, occupied: Set[Tuple[int, int]], pb: Pblock) -> None:
        for col in range(pb.col_lo, pb.col_hi + 1):
            for row in range(pb.row_lo, pb.row_hi + 1):
                occupied.add((col, row))

    @staticmethod
    def _unblocked_runs(blocked: np.ndarray) -> List[Tuple[int, int]]:
        """Maximal inclusive [lo, hi] runs of False in a boolean mask."""
        runs: List[Tuple[int, int]] = []
        start: Optional[int] = None
        for index, is_blocked in enumerate(blocked):
            if not is_blocked and start is None:
                start = index
            elif is_blocked and start is not None:
                runs.append((start, index - 1))
                start = None
        if start is not None:
            runs.append((start, len(blocked) - 1))
        return runs

    def _window_satisfies(
        self, need: np.ndarray, col_lo: int, col_hi: int, height: int
    ) -> bool:
        window = (self._prefix[col_hi + 1] - self._prefix[col_lo]) * height
        return bool(np.all(window >= need))

    def _place_one(
        self,
        rp_name: str,
        demand: ResourceVector,
        occupied: Set[Tuple[int, int]],
        utilization: Optional[float] = None,
    ) -> RegionAssignment:
        inflated = self._inflated(demand, utilization)
        need = np.array([inflated.get(kind) for kind in self._kinds], dtype=np.int64)
        device = self.device
        best: Optional[Pblock] = None
        best_key: Optional[Tuple[int, int, int]] = None

        for height in range(1, self.max_height + 1):
            for row_lo in range(0, device.region_rows - height + 1):
                row_hi = row_lo + height - 1
                blocked = np.array(
                    [
                        (x in self._forbidden)
                        or any((x, row) in occupied for row in range(row_lo, row_hi + 1))
                        for x in range(device.num_columns)
                    ]
                )
                # Two-pointer sweep within each maximal unblocked run.
                for run_lo, run_hi in self._unblocked_runs(blocked):
                    col_hi = run_lo
                    for col_lo in range(run_lo, run_hi + 1):
                        col_hi = max(col_hi, col_lo)
                        while col_hi <= run_hi and not self._window_satisfies(
                            need, col_lo, col_hi, height
                        ):
                            col_hi += 1
                        if col_hi > run_hi:
                            break  # even the full run cannot satisfy the need
                        area = (col_hi - col_lo + 1) * height
                        key = (area, col_lo, row_lo)
                        if best_key is None or key < best_key:
                            best = Pblock(
                                name=f"pblock_{rp_name}",
                                col_lo=col_lo,
                                col_hi=col_hi,
                                row_lo=row_lo,
                                row_hi=row_hi,
                            )
                            best_key = key

        if best is None:
            raise FloorplanError(
                f"cannot place RP {rp_name!r}: demand {demand} (inflated "
                f"{inflated}) does not fit the remaining fabric of {device.name}"
            )
        return RegionAssignment(
            rp_name=rp_name,
            pblock=best,
            demand=demand,
            provided=best.resources(self.device),
        )
