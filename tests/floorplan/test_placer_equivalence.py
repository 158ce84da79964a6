"""Vectorized placer vs the scalar reference, output for output.

The numpy ``FloraFloorplanner._place_one`` is an optimization, not a
behavior change: for every demand set the plan it produces must be
*identical* — same pblocks, same order, same relaxation outcomes — to
the original two-pointer sweep kept alive as
:class:`~repro.floorplan.flora.ReferenceFloraFloorplanner`. These tests
pin that equivalence over seeded random demand sets on every catalog
part, including demand mixes dense enough to walk the relaxation
ladder and ones that fail outright.
"""

import random

import pytest

from repro.errors import FloorplanError
from repro.fabric.device import ColumnKind, Device
from repro.fabric.pblock import Pblock
from repro.fabric.parts import PART_CATALOG, make_device
from repro.fabric.resources import ResourceVector
from repro.floorplan.flora import FloraFloorplanner, ReferenceFloraFloorplanner

BOARDS = sorted(PART_CATALOG)


def random_demands(rng, device, count, utilization):
    """A demand set filling roughly ``utilization`` of the device."""
    capacity = device.capacity()
    demands = []
    for index in range(count):
        share = utilization / count * rng.uniform(0.4, 1.6)
        demands.append(
            (
                f"rp{index}",
                ResourceVector(
                    lut=max(1, int(capacity.lut * share)),
                    ff=max(1, int(capacity.ff * share * rng.uniform(0.5, 1.0))),
                    bram=int(capacity.bram * share * rng.uniform(0.0, 0.8)),
                    dsp=int(capacity.dsp * share * rng.uniform(0.0, 0.8)),
                ),
            )
        )
    return demands


def plans_agree(device, demands, **kwargs):
    """Run both planners; assert identical outcome (plan or failure)."""
    fast = FloraFloorplanner(device, **kwargs)
    reference = ReferenceFloraFloorplanner(device, **kwargs)
    try:
        expected = reference.plan(demands)
    except FloorplanError:
        with pytest.raises(FloorplanError):
            fast.plan(demands)
        return None
    actual = fast.plan(demands)
    assert actual == expected
    return actual


class TestSeededEquivalence:
    @pytest.mark.parametrize("board", BOARDS)
    @pytest.mark.parametrize("utilization", [0.3, 0.5, 0.7])
    def test_random_demand_sets_match(self, board, utilization):
        device = make_device(board)
        rng = random.Random(f"{board}:{utilization}")
        rounds = 4 if board == "vc707" else 2
        for round_index in range(rounds):
            demands = random_demands(
                rng, device, count=rng.randint(1, 6), utilization=utilization
            )
            plans_agree(device, demands)

    @pytest.mark.parametrize("board", BOARDS)
    def test_dense_sets_walk_the_relaxation_ladder(self, board):
        # High fill pressure forces _place_with_relaxation past the
        # first ladder step on at least some rounds — the equivalence
        # must hold through every relaxation level, not just the first.
        device = make_device(board)
        rng = random.Random(f"dense:{board}")
        saw_plan = saw_failure = False
        for utilization in (0.3, 0.6, 0.95, 1.2):
            demands = random_demands(
                rng, device, count=rng.randint(2, 5), utilization=utilization
            )
            if plans_agree(device, demands, target_utilization=0.7) is None:
                saw_failure = True
            else:
                saw_plan = True
        assert saw_plan  # the sweep exercised real placements...
        assert saw_failure  # ...and genuine exhaustion, identically

    def test_max_height_cap_matches(self):
        device = make_device("vc707")
        rng = random.Random("capped")
        for _ in range(4):
            demands = random_demands(rng, device, count=3, utilization=0.4)
            plans_agree(device, demands, max_height_regions=1)

    def test_bram_dsp_heavy_demands_match(self):
        device = make_device("vcu118")
        capacity = device.capacity()
        demands = [
            ("rp0", ResourceVector(lut=200, ff=200, bram=capacity.bram // 3, dsp=0)),
            ("rp1", ResourceVector(lut=200, ff=200, bram=0, dsp=capacity.dsp // 3)),
            ("rp2", ResourceVector(lut=5000, ff=4000, bram=16, dsp=16)),
        ]
        plans_agree(device, demands)

    @pytest.mark.parametrize("board", ["vcu118", "vcu128"])
    @pytest.mark.parametrize("count", [7, 9, 12])
    def test_many_rps_on_twelve_row_parts_match(self, board, count):
        # The largest builds of the flow sweep: many regions on the
        # 12-region-row parts, where every height has up to 12 bands.
        device = make_device(board)
        assert device.region_rows == 12
        rng = random.Random(f"many:{board}:{count}")
        demands = random_demands(rng, device, count=count, utilization=0.4)
        plans_agree(device, demands)

    @pytest.mark.parametrize("max_height", [2, 3, 6])
    def test_intermediate_height_caps_match(self, max_height):
        device = make_device("vcu118")
        rng = random.Random(f"cap:{max_height}")
        outcomes = []
        for utilization in (0.1, 0.4):
            demands = random_demands(rng, device, count=5, utilization=utilization)
            outcomes.append(plans_agree(device, demands, max_height_regions=max_height))
        assert outcomes[0] is not None  # a capped plan, not only failures

    def test_height_tie_goes_to_the_shorter_band(self):
        # One inflated demand of 200 LUTs on 100-LUT column segments:
        # two columns x one row and one column x two rows both have area
        # 2 at column 0, row 0 — the same (area, col_lo, row_lo) key.
        # The shorter band is scanned first and must keep the win.
        device = Device(
            "tie",
            columns=[ColumnKind.CLB] * 4,
            region_rows=2,
            region_cols=1,
            segment_resources={ColumnKind.CLB: ResourceVector(lut=100, ff=200)},
        )
        demands = [("rp0", ResourceVector(lut=140, ff=140))]
        assert device.rect_resources(0, 0, 0, 1).lut >= 200  # the tall twin fits
        plan = plans_agree(device, demands, target_utilization=0.7)
        assert plan.pblocks() == [
            Pblock(name="pblock_rp0", col_lo=0, col_hi=1, row_lo=0, row_hi=0)
        ]

    def test_reference_is_meaningfully_slower_shape(self):
        # Not a benchmark — just pins that the two classes really are
        # different implementations (occupancy representations differ),
        # so the equivalence tests cannot silently compare a planner
        # with itself after a refactor.
        device = make_device("vc707")
        fast = FloraFloorplanner(device)
        reference = ReferenceFloraFloorplanner(device)
        assert type(fast._empty_occupancy()) is not type(
            reference._empty_occupancy()
        )
