"""Seeded input generator for the four workloads.

Everything here is plain data (strings, numbers, lists, dicts) drawn
from ``random.Random`` streams keyed by the seed and the workload name,
so the same seed gives byte-identical inputs (:func:`input_bytes`) and
nothing depends on the program under test. The workloads turn this data
into ``SocConfig`` objects, fault models and job submissions.

Where an input property drives the cost of an operation (number of
reconfigurable partitions, board, frame count, job kind), the *multiset*
of values is fixed and the seed only decides pairing and order. That
keeps the op-time distribution of one seed close to that of another, so
medians compare across seeds; the seed still changes every design,
accelerator choice, fault draw and op order.
"""

from __future__ import annotations

import json
import random
from typing import Dict, Iterator, List

WORKLOADS = ("flow_sweep", "wami_deploy", "service_mixed", "traced_fig4")

#: The 11 named designs of the paper's evaluation (``repro designs``).
PAPER_DESIGNS = (
    "soc_1", "soc_2", "soc_3", "soc_4",
    "soc_a", "soc_b", "soc_c", "soc_d",
    "soc_x", "soc_y", "soc_z",
)
DEPLOY_SOCS = ("soc_x", "soc_y", "soc_z")

#: Stock ESP accelerators and their synthesis LUTs (Table II).
STOCK_LUTS = {
    "mac": 2450, "conv2d": 36741, "gemm": 30617, "fft": 33690, "sort": 20468,
}
#: Device LUT capacity per board (xc7vx485t, xcvu9p, xcvu37p).
BOARD_LUTS = {"vc707": 302400, "vcu118": 1175040, "vcu128": 1290240}
BOARDS = tuple(BOARD_LUTS)

#: Static part with a CPU tile, in LUTs (Table II).
STATIC_LUTS = 82267
#: Share of the device a generated SoC may fill: its static part plus
#: every partition's largest mode, inflated to the floorplanner's 70%
#: target utilization.
FIT_SHARE = 0.6

STRATEGIES = ("serial", "semi-parallel", "fully-parallel")
FLOW_GENERATED = 66
DEPLOY_VARIANTS = ("plain", "power_gating", "pipelined", "runtime_faults")
DEPLOY_KEYS_PER_COMBO = 4
#: One unit of the service mix: warm builds, cold builds, deploys.
SERVICE_BLOCK = {"warm": 14, "cold": 3, "deploy": 3}
#: Mix units per daemon lifetime (one round, one timing block): 100
#: jobs, so a round's p90 has ten jobs above it; 15 of them are cold,
#: so the cold configs cover every partition count from 2 to 12.
SERVICE_ROUND_MIXES = 5
SERVICE_COLD_FILES = SERVICE_ROUND_MIXES * SERVICE_BLOCK["cold"]
SERVICE_DEPLOY_FRAMES = (1, 2, 3, 4)
FIG4_FRAMES = (1, 2, 3, 4)


def _rng(seed: int, workload: str, part: str) -> random.Random:
    return random.Random(f"{seed}:{workload}:{part}")


def generated_soc(rng: random.Random, name: str, rps: int, board: str) -> str:
    """An ``esp_config`` text: CPU/MEM/AUX plus ``rps`` stock-accelerator
    tiles of one or two modes, sized to fit ``board``.

    A partition's demand is its largest mode, inflated to the
    floorplanner's 70% target utilization. Each tile draws its modes
    from the accelerators that still fit the board's budget with every
    remaining tile at the smallest accelerator, so the board and the
    partition count stay as asked.
    """
    smallest = min(STOCK_LUTS.values())
    budget = (FIT_SHARE * BOARD_LUTS[board] - STATIC_LUTS) * 0.7
    modes_per_tile = []
    for index in range(rps):
        room = budget - smallest * (rps - index - 1)
        allowed = sorted(m for m, luts in STOCK_LUTS.items() if luts <= room)
        modes = rng.sample(allowed, min(len(allowed), rng.choice((1, 2))))
        budget -= max(STOCK_LUTS[m] for m in modes)
        modes_per_tile.append(modes)
    tiles = 3 + rps
    cols = 1
    while cols * cols < tiles:
        cols += 1
    rows = -(-tiles // cols)
    lines = [
        "[soc]", f"name = {name}", f"board = {board}",
        f"rows = {rows}", f"cols = {cols}", "",
        "[tile cpu0]", "type = cpu", "core = leon3", "",
        "[tile mem0]", "type = mem", "",
        "[tile aux0]", "type = aux",
    ]
    for index, modes in enumerate(modes_per_tile):
        lines += ["", f"[tile rt{index}]", "type = reconf", "modes = " + ", ".join(modes)]
    return "\n".join(lines) + "\n"


def _spread(count: int, low: int, high: int) -> List[int]:
    """``count`` integers spread evenly over ``[low, high]``."""
    return [low + round(i * (high - low) / (count - 1)) for i in range(count)]


def _flow_variant(index: int) -> str:
    """Fixed by position, so every seed has the same (board, partition
    count, variant) multiset: the paper designs cycle plain, plain,
    strategy, faults; the first 33 generated designs (one of each
    board x partition count) are plain, the next 33 alternate faults
    and strategy overrides."""
    paper = len(PAPER_DESIGNS)
    if index < paper:
        return ("plain", "plain", "strategy", "faults")[index % 4]
    generated = index - paper
    if generated < 33:
        return "plain"
    return "strategy" if generated % 2 else "faults"


def flow_sweep_inputs(seed: int) -> Dict:
    """Paper designs plus generated SoCs, each with one variant: plain,
    a strategy override, or a seeded CAD fault specification."""
    rng = _rng(seed, "flow_sweep", "designs")
    designs = [{"name": name, "esp_config": None} for name in PAPER_DESIGNS]
    for index in range(FLOW_GENERATED):
        name = f"gen_{seed}_{index:02d}"
        text = generated_soc(rng, name, 2 + index % 11, BOARDS[index % len(BOARDS)])
        designs.append({"name": name, "esp_config": text})
    keys = []
    for index, design in enumerate(designs):
        variant = _flow_variant(index)
        key = {"design": design["name"], "strategy": None, "faults": None}
        if variant == "strategy":
            key["strategy"] = rng.choice(STRATEGIES)
        elif variant == "faults":
            # Partition indexes are taken modulo the design's partition
            # count. One partition exhausts the default retry budget
            # and goes dark (a degraded build); 1-2 others, at distinct
            # offsets from it, fail 1-2 attempts each and retry (an
            # offset that lands on the dark partition or on one already
            # hit is skipped, so the build always keeps a partition).
            key["faults"] = {
                "seed": rng.randrange(1 << 30),
                "context_par_rate": 0.1,
                "dark": rng.randrange(64),
                "retry": [
                    [offset, rng.choice((1, 2))]
                    for offset in rng.sample(range(1, 64), rng.choice((1, 2)))
                ],
            }
        keys.append(key)
    return {"designs": designs, "keys": keys}


#: The frame counts of the deploy specs, spread evenly over 1-32.
DEPLOY_FRAMES = tuple(
    _spread(len(DEPLOY_SOCS) * len(DEPLOY_VARIANTS) * DEPLOY_KEYS_PER_COMBO, 1, 32)
)


def wami_deploy_inputs(seed: int) -> Dict:
    """Deploy specs over soc_x/y/z x four variants, frames 1-32.

    The 48 frame counts are spread evenly over 1-32; every (SoC,
    variant) pair gets one from each quarter of that range. That
    pairing is the same for every seed: an op's cost is about its frame
    count times a per-(SoC, variant) rate, so a seeded pairing moved the
    median op time by up to 20% from seed to seed. The seed draws the
    runtime-fault seeds (the specs cycle through three CRC rates) and
    the op order.
    """
    rng = _rng(seed, "wami_deploy", "keys")
    pairing = random.Random("wami_deploy:pairing")
    combos = [(soc, variant) for soc in DEPLOY_SOCS for variant in DEPLOY_VARIANTS]
    frames = list(DEPLOY_FRAMES)
    crc_rates = (0.05, 0.1, 0.15)
    keys = []
    for quarter in range(DEPLOY_KEYS_PER_COMBO):
        chunk = frames[quarter * len(combos):(quarter + 1) * len(combos)]
        pairing.shuffle(chunk)
        for (soc, variant), frame_count in zip(combos, chunk):
            key = {"soc": soc, "frames": frame_count, "variant": variant, "faults": None}
            if variant == "runtime_faults":
                key["faults"] = {
                    "seed": rng.randrange(1 << 30),
                    "crc": crc_rates[(quarter + DEPLOY_SOCS.index(soc)) % 3],
                    "stuck": 0.02,
                    "hang": 0.02,
                }
            keys.append(key)
    return {"keys": keys}


def service_mixed_inputs(seed: int) -> Dict:
    """Warm paper-design builds, generated ``esp_config`` files for the
    cold builds (one per cold job of a round) and small deploys."""
    rng = _rng(seed, "service_mixed", "configs")
    cold = []
    for index in range(SERVICE_COLD_FILES):
        name = f"svc_{seed}_{index:03d}"
        cold.append(
            {
                "name": name,
                "esp_config": generated_soc(
                    rng, name, 2 + index % 11, BOARDS[index % len(BOARDS)]
                ),
            }
        )
    deploys = [
        {"soc": soc, "frames": frames}
        for soc in DEPLOY_SOCS
        for frames in SERVICE_DEPLOY_FRAMES
    ]
    return {"warm": list(PAPER_DESIGNS), "cold": cold, "deploys": deploys}


def traced_fig4_inputs(seed: int) -> Dict:
    """Build + monitor keys over soc_x/y/z and 1-4 frames."""
    keys = [
        {"soc": soc, "frames": frames}
        for soc in DEPLOY_SOCS
        for frames in FIG4_FRAMES
    ]
    return {"keys": keys, "request_id_seed": seed}


GENERATORS = {
    "flow_sweep": flow_sweep_inputs,
    "wami_deploy": wami_deploy_inputs,
    "service_mixed": service_mixed_inputs,
    "traced_fig4": traced_fig4_inputs,
}


def key_stream(seed: int, workload: str, count: int) -> Iterator[int]:
    """Key indices forever: each pass visits every key once, in a fresh
    seeded order, so the first pass is the reference pass."""
    rng = _rng(seed, workload, "order")
    while True:
        order = list(range(count))
        rng.shuffle(order)
        yield from order


def service_round(seed: int, inputs: Dict) -> List[Dict]:
    """The jobs of one round: ``SERVICE_ROUND_MIXES`` shuffled units of
    warm/cold/deploy jobs. Each round runs on a fresh daemon, so every
    cold config is used exactly once per daemon."""
    rng = _rng(seed, "service_mixed", "order")
    warm = key_stream(seed, "service_mixed/warm", len(inputs["warm"]))
    deploys = key_stream(seed, "service_mixed/deploy", len(inputs["deploys"]))
    cold = iter(range(len(inputs["cold"])))
    jobs = []
    for _ in range(SERVICE_ROUND_MIXES):
        block = [kind for kind, n in SERVICE_BLOCK.items() for _ in range(n)]
        rng.shuffle(block)
        for kind in block:
            if kind == "cold":
                jobs.append({"kind": "cold", "index": next(cold)})
            elif kind == "deploy":
                jobs.append({"kind": "deploy", **inputs["deploys"][next(deploys)]})
            else:
                jobs.append({"kind": "warm", "design": inputs["warm"][next(warm)]})
    return jobs


def inputs_for(workload: str, seed: int) -> Dict:
    """The generated inputs of ``workload`` for ``seed``."""
    if workload not in GENERATORS:
        raise ValueError(
            f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}"
        )
    return GENERATORS[workload](seed)


def input_bytes(workload: str, seed: int, stream_ops: int = 500) -> bytes:
    """Canonical bytes of the inputs plus the first ``stream_ops`` ops
    (one whole round on ``service_mixed``)."""
    inputs = inputs_for(workload, seed)
    if workload == "service_mixed":
        stream = service_round(seed, inputs)
    else:
        order = key_stream(seed, workload, len(inputs["keys"]))
        stream = [next(order) for _ in range(stream_ops)]
    document = {"workload": workload, "seed": seed, "inputs": inputs, "stream": stream}
    return json.dumps(document, sort_keys=True, separators=(",", ":")).encode()
