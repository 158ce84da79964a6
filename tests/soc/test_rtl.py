"""Tests for RTL hierarchy generation and DPR rule checking."""

import dataclasses
import pickle

from repro.soc.rtl import Module, generate_rtl


class TestModuleTree:
    def test_walk_is_preorder(self):
        root = Module("root")
        a = root.add(Module("a"))
        a.add(Module("a1"))
        root.add(Module("b"))
        assert [m.name for m in root.walk()] == ["root", "a", "a1", "b"]

    def test_pickle_round_trip_keeps_fields_and_sharing(self):
        root = Module("root", luts=3, black_box=True)
        leaf = root.add(Module("rp", luts=7, reconfigurable=True, route_through=True))
        root.add(Module("clk", clock_modifying=True))
        copy_root, copy_leaf = pickle.loads(pickle.dumps((root, leaf)))
        assert copy_root == root
        assert copy_root.children[0] is copy_leaf
        # The compact reduce must name every field the dataclass has.
        assert len(root.__reduce__()[1]) == len(dataclasses.fields(Module))

    def test_total_luts_sums_subtree(self):
        root = Module("root", luts=1)
        root.add(Module("a", luts=10)).add(Module("a1", luts=100))
        assert root.total_luts() == 111

    def test_find(self):
        root = Module("root")
        root.add(Module("needle"))
        assert root.find("needle") is not None
        assert root.find("missing") is None

    def test_reconfigurable_roots_do_not_nest(self):
        root = Module("root")
        wrapper = root.add(Module("w", reconfigurable=True))
        wrapper.add(Module("inner", reconfigurable=True))
        assert [m.name for m in root.reconfigurable_roots()] == ["w"]

    def test_static_luts_excludes_rp_subtrees(self):
        root = Module("root", luts=5)
        wrapper = root.add(Module("w", luts=100, reconfigurable=True))
        wrapper.add(Module("acc", luts=1000))
        assert root.static_luts() == 5
        assert root.total_luts() == 1105


class TestDprRules:
    def test_clock_modifier_inside_rp_flagged(self):
        root = Module("root")
        wrapper = root.add(Module("w", reconfigurable=True))
        wrapper.add(Module("pll", clock_modifying=True))
        violations = root.check_dpr_rules()
        assert len(violations) == 1
        assert "clock-modifying" in violations[0]

    def test_route_through_inside_rp_flagged(self):
        root = Module("root")
        wrapper = root.add(Module("w", reconfigurable=True))
        wrapper.add(Module("feedthrough", route_through=True))
        assert any("route-through" in v for v in root.check_dpr_rules())

    def test_clock_modifier_in_static_is_fine(self):
        root = Module("root")
        root.add(Module("pll", clock_modifying=True))
        root.add(Module("w", reconfigurable=True))
        assert root.check_dpr_rules() == []


class TestGeneratedHierarchy:
    def test_static_total_matches_config_accounting(self, soc2):
        rtl = generate_rtl(soc2)
        assert rtl.static_luts() == soc2.static_luts()

    def test_total_matches_design_total(self, soc2):
        rtl = generate_rtl(soc2)
        assert rtl.total_luts() == soc2.total_design_luts()

    def test_one_wrapper_per_reconf_tile(self, soc2):
        rtl = generate_rtl(soc2)
        roots = rtl.reconfigurable_roots()
        assert len(roots) == len(soc2.reconfigurable_tiles)

    def test_wrapper_holds_all_modes(self, socy):
        rtl = generate_rtl(socy)
        tile = socy.reconfigurable_tiles[0]
        wrapper = rtl.find(f"{tile.name}_wrapper")
        children = {m.name for m in wrapper.walk()} - {wrapper.name}
        for ip in tile.modes:
            assert f"{tile.name}_{ip.name}" in children

    def test_aux_tile_contains_dfx_controller(self, soc2):
        rtl = generate_rtl(soc2)
        assert rtl.find("aux0_dfx_controller") is not None
        assert rtl.find("aux0_icap_primitive") is not None

    def test_generated_tree_is_dpr_legal(self, soc2):
        assert generate_rtl(soc2).check_dpr_rules() == []

    def test_every_tile_has_a_socket(self, soc2):
        rtl = generate_rtl(soc2)
        for tile in soc2.tiles:
            assert rtl.find(f"{tile.name}_socket") is not None

    def test_reconf_socket_has_decoupler(self, soc2):
        rtl = generate_rtl(soc2)
        tile = soc2.reconfigurable_tiles[0]
        assert rtl.find(f"{tile.name}_decoupler") is not None
