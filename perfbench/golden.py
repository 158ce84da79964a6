"""Committed reference digests of the workloads' outputs.

An output's digest is the first 16 hex digits of the SHA-256 of its
canonical JSON. ``golden.json`` beside this file holds two tables:

- ``fixed``: outputs whose inputs do not depend on the seed (the paper
  designs built with each strategy, fault-free deploys, the Fig. 4
  build + monitor outputs);
- ``seeds``: per seed in ``SEEDS``, the outputs of the seeded inputs
  (generated SoCs, CAD and runtime fault specs, cold service configs).

Every op whose key has an entry is compared with it, so a change that
deterministically alters a floorplan, schedule, modelled time or frame
result fails the run. Seeded keys of a seed outside ``SEEDS`` are only
checked against the run's own references. Regenerate the table (only
when an output change is intended) with::

    python3 perfbench/golden.py
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path
from typing import Dict, Optional

PATH = Path(__file__).resolve().with_name("golden.json")
SEEDS = range(0, 64)


def digest(document) -> str:
    """Digest of ``document`` as it reads after a JSON round trip."""
    canonical = json.dumps(
        json.loads(json.dumps(document)), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


class Golden:
    """The committed digests that apply to one workload and seed."""

    def __init__(self, seed: int, path: Path = PATH) -> None:
        tables = json.loads(path.read_text()) if path.is_file() else {}
        self.fixed: Dict[str, str] = tables.get("fixed", {})
        self.seeded: Dict[str, str] = tables.get("seeds", {}).get(str(seed), {})

    def expected(self, key: str) -> Optional[str]:
        return self.fixed.get(key, self.seeded.get(key))


def generate(seeds=SEEDS) -> Dict:
    """Compute every digest in-process, uninstrumented."""
    from perfbench.workloads import WORKLOADS

    fixed: Dict[str, str] = {}
    per_seed: Dict[str, Dict[str, str]] = {}
    with tempfile.TemporaryDirectory() as scratch:
        for cls in WORKLOADS.values():
            workload = cls(0, Path(scratch))
            workload.load()
            for key in workload.fixed_keys():
                fixed.setdefault(workload.golden_key(key), digest(workload.reference(key)))
        for seed in seeds:
            table = per_seed.setdefault(str(seed), {})
            for cls in WORKLOADS.values():
                workload = cls(seed, Path(scratch))
                workload.load()
                for key in workload.all_keys():
                    name = workload.golden_key(key)
                    if name not in fixed and name not in table:
                        table[name] = digest(workload.reference(key))
            print(f"seed {seed}: {len(table)} seeded digests", file=sys.stderr)
    return {"fixed": dict(sorted(fixed.items())), "seeds": per_seed}


if __name__ == "__main__":
    root = Path(__file__).resolve().parents[1]
    sys.path[:0] = [str(root / "src"), str(root)]
    PATH.write_text(json.dumps(generate(), sort_keys=True, indent=0) + "\n")
