#!/usr/bin/env python
"""CI smoke test for the hot-path performance work.

Guards the profile-guided optimization of the Fig. 4 workloads
(vectorized floorplanner, flattened DES kernel, analytic NoC fast
path, warm worker pool) against regression:

1. the fig4_smoke workload (build + 2-frame deployment) finishes
   under a generous wall-clock ceiling, uninstrumented;
2. ``flow.floorplan`` host self-time share of the fig4_smoke profile
   stays under about twice its measured share (87.2% before the placer
   was vectorized, ~48% with a per-band loop, ~20% per band height);
3. the aggregate ``flow.floorplan`` share of the full
   fig4_wami_runtime profile likewise stays under about twice its
   measured share (~82%, ~30%, ~10% in the same three regimes), so a
   placer that falls back to the per-band loop fails both;
4. the analytic NoC backend still matches the cycle-level simulator
   exactly at zero load on every fig4 fetch path.

Run:  PYTHONPATH=src python tools/perf_smoke.py
"""

from __future__ import annotations

import contextlib
import io
import sys
import tempfile
import time
from pathlib import Path

from repro import api
from repro.cli import main
from repro.core.designs import wami_deployment_socs, wami_soc_y
from repro.noc import AnalyticNocModel, Mesh, cycle_transfer_latency_cycles
from repro.obs.profdiff import self_time_shares
from repro.obs.profiler import load_profile
from repro.soc.tiles import TileKind

#: Ceiling on the host self-time share of ``flow.floorplan`` in the
#: fig4_smoke profile: about twice the measured 18-21% (5 runs). The
#: per-band placer it replaced measured 41-51%.
SMOKE_FLOORPLAN_SHARE_CEILING = 0.40

#: Ceiling on the aggregate ``flow.floorplan`` share of
#: fig4_wami_runtime (three deployments): about twice the measured
#: 9.5-10.4% (5 runs). The per-band placer measured 24-31%.
RUNTIME_FLOORPLAN_SHARE_CEILING = 0.20

#: Generous uninstrumented wall ceiling for fig4_smoke (measured
#: ~0.01 s on a warm interpreter; the ceiling absorbs slow CI hosts).
SMOKE_WALL_CEILING_S = 5.0


def run_cli(argv: list) -> tuple:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main(argv)
    return code, buffer.getvalue()


def check(condition: bool, message: str) -> None:
    if not condition:
        print(f"FAIL: {message}", file=sys.stderr)
        sys.exit(1)
    print(f"ok: {message}")


def floorplan_share(document: dict) -> float:
    """Total host self-time share attributed to ``flow.floorplan``."""
    shares = self_time_shares(document)
    return sum(
        share for path, share in shares.items() if "flow.floorplan" in path
    )


def main_smoke() -> None:
    out_dir = Path(tempfile.mkdtemp(prefix="perf_smoke_"))

    # 1. Wall-clock ceiling, uninstrumented (the real fast path: DES
    # monomorphic loop, analytic NoC, vectorized placer all active).
    api.deploy(wami_soc_y(), frames=2)  # warm imports and device cache
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        api.deploy(wami_soc_y(), frames=2)
        best = min(best, time.perf_counter() - start)
    check(
        best < SMOKE_WALL_CEILING_S,
        f"fig4_smoke workload wall {best * 1000:.1f} ms under "
        f"{SMOKE_WALL_CEILING_S:.0f} s ceiling",
    )

    # 2. The floorplanner stays at its per-height cost.
    code, _ = run_cli(["profile", "fig4_smoke", "--out", str(out_dir)])
    check(code == 0, "repro profile fig4_smoke exits 0")
    smoke = load_profile(out_dir / "PROFILE_fig4_smoke.json")
    share = floorplan_share(smoke)
    check(
        share < SMOKE_FLOORPLAN_SHARE_CEILING,
        f"flow.floorplan self-time share {share:.1%} under "
        f"{SMOKE_FLOORPLAN_SHARE_CEILING:.0%} (per-band placer ~48%)",
    )

    # 3. On the full runtime workload the placer stays a minor frame.
    code, _ = run_cli(["profile", "fig4_wami_runtime", "--out", str(out_dir)])
    check(code == 0, "repro profile fig4_wami_runtime exits 0")
    runtime = load_profile(out_dir / "PROFILE_fig4_wami_runtime.json")
    runtime_share = floorplan_share(runtime)
    check(
        runtime_share < RUNTIME_FLOORPLAN_SHARE_CEILING,
        f"fig4_wami_runtime flow.floorplan share {runtime_share:.1%} under "
        f"{RUNTIME_FLOORPLAN_SHARE_CEILING:.0%} (per-band placer ~30%)",
    )

    # 4. Analytic NoC == cycle-level at zero load on every fetch path.
    for name, config in sorted(wami_deployment_socs().items()):
        mesh = Mesh(rows=config.rows, cols=config.cols)
        mem = config.position_of(config.tiles_of_kind(TileKind.MEM)[0].name)
        aux = config.position_of(config.tiles_of_kind(TileKind.AUX)[0].name)
        model = AnalyticNocModel(mesh)
        exact = all(
            model.latency_cycles(mem, aux, size)
            == cycle_transfer_latency_cycles(mesh, mem, aux, size)
            for size in (1, 4096, 123_457, 3_000_000)
        )
        check(exact, f"analytic NoC exact vs cycle-level on {name} fetch path")

    print("perf smoke: all checks passed")


if __name__ == "__main__":
    main_smoke()
