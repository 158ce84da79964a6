"""Stage-level checkpointing of ``DprFlow.build()``.

A killed build — machine reboot, scheduler preemption, ctrl-C — should
not lose hours of modelled CAD time. The checkpointer persists each
completed flow stage (and, inside the long stages, each completed tool
job) to a directory:

* ``manifest.json`` — the build key (the same content digest the
  :class:`~repro.flow.cache.FlowCache` uses), schema version, and one
  record per completed stage: payload file, wall minutes, detail line.
* ``<stage>.pkl`` — the stage's pickled outputs (netlists, floorplan,
  bitstreams...), exactly what downstream stages consume.
* ``jobs/<job>.pkl`` — sub-stage granularity: individual OoC synthesis
  runs and implementation runs, so a build killed *inside* the
  synthesis or implementation stage resumes mid-stage instead of
  repeating every sibling job.

Resume is content-keyed: ``repro build --resume`` only restores stages
whose manifest key matches the current (config, model, options,
request, fault/retry policy) digest — a checkpoint from a different
build is silently ignored rather than trusted. Writes are atomic
(:func:`~repro.atomic.atomic_write`), and the manifest is rewritten
after every stage so the directory is always consistent with *some*
prefix of the build.
"""

from __future__ import annotations

import json
import pickle
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional, Tuple, Union

from repro.atomic import atomic_write
from repro.errors import FlowError
from repro.obs.logconfig import get_logger

logger = get_logger("flow.checkpoint")

#: Bump when the manifest layout or the payload schema changes; stale
#: checkpoints then stop matching instead of being mis-read.
CHECKPOINT_SCHEMA_VERSION = 1

MANIFEST_NAME = "manifest.json"


@dataclass(frozen=True)
class StageRecord:
    """One completed stage as recorded in the manifest."""

    stage: str
    payload_file: str
    wall_minutes: float
    detail: str


class FlowCheckpointer:
    """Reads and writes one build's checkpoint directory.

    ``key`` is the build's content digest; a directory holding a
    different key is treated as empty (and overwritten as the new
    build progresses). All writes are atomic and crash-consistent:
    payloads land before the manifest references them.
    """

    def __init__(self, directory: Union[str, Path], key: str) -> None:
        if not key:
            raise FlowError("checkpointer needs a non-empty build key")
        self.directory = Path(directory)
        self.key = key
        self._stages: Dict[str, StageRecord] = {}
        self._load_manifest()

    # ------------------------------------------------------------------
    # manifest
    # ------------------------------------------------------------------
    def _manifest_path(self) -> Path:
        return self.directory / MANIFEST_NAME

    def _load_manifest(self) -> None:
        try:
            raw = json.loads(self._manifest_path().read_text())
        except (OSError, ValueError):
            return
        if (
            raw.get("version") != CHECKPOINT_SCHEMA_VERSION
            or raw.get("key") != self.key
        ):
            logger.info(
                "checkpoint at %s belongs to a different build; ignoring",
                self.directory,
            )
            return
        for entry in raw.get("stages", []):
            record = StageRecord(
                stage=entry["stage"],
                payload_file=entry["file"],
                wall_minutes=float(entry["wall_minutes"]),
                detail=entry["detail"],
            )
            self._stages[record.stage] = record

    def _write_manifest(self) -> None:
        payload = {
            "version": CHECKPOINT_SCHEMA_VERSION,
            "key": self.key,
            "stages": [
                {
                    "stage": record.stage,
                    "file": record.payload_file,
                    "wall_minutes": record.wall_minutes,
                    "detail": record.detail,
                }
                for record in self._stages.values()
            ],
        }
        atomic_write(
            self._manifest_path(), json.dumps(payload, indent=2).encode("utf-8")
        )

    # ------------------------------------------------------------------
    # stages
    # ------------------------------------------------------------------
    def completed_stages(self) -> Tuple[str, ...]:
        """Stages recorded for this build key, manifest order."""
        return tuple(self._stages)

    def has_stage(self, stage: str) -> bool:
        """True when ``stage`` completed under this key."""
        return stage in self._stages

    def save_stage(
        self, stage: str, payload: object, wall_minutes: float, detail: str
    ) -> None:
        """Persist one completed stage (payload first, then manifest)."""
        file_name = f"{stage}.pkl"
        atomic_write(
            self.directory / file_name,
            pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL),
        )
        self._stages[stage] = StageRecord(
            stage=stage,
            payload_file=file_name,
            wall_minutes=wall_minutes,
            detail=detail,
        )
        self._write_manifest()
        logger.debug("checkpointed stage %s (%s)", stage, detail)

    def load_stage(self, stage: str) -> Tuple[object, float, str]:
        """(payload, wall_minutes, detail) of a completed stage.

        A referenced-but-unreadable payload raises ``FlowError`` — a
        torn checkpoint should fail loudly, not resume wrongly.
        """
        try:
            record = self._stages[stage]
        except KeyError:
            raise FlowError(f"no checkpointed stage {stage!r}") from None
        path = self.directory / record.payload_file
        try:
            payload = pickle.loads(path.read_bytes())
        except (OSError, pickle.UnpicklingError, EOFError) as error:
            raise FlowError(
                f"checkpointed stage {stage!r} is unreadable ({error}); "
                "delete the checkpoint directory and rebuild"
            ) from error
        return payload, record.wall_minutes, record.detail

    # ------------------------------------------------------------------
    # sub-stage jobs (OoC syntheses, implementation runs)
    # ------------------------------------------------------------------
    def _job_path(self, job_name: str) -> Path:
        return self.directory / "jobs" / f"{job_name}.pkl"

    def save_job(self, job_name: str, payload: object) -> None:
        """Persist one completed tool job inside a running stage."""
        atomic_write(
            self._job_path(job_name),
            pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL),
        )

    def load_job(self, job_name: str) -> Optional[object]:
        """The job's payload, or None when absent/unreadable.

        Job payloads are an optimization (skip re-running a completed
        sibling); a torn job file falls back to recomputation, unlike a
        torn stage payload.
        """
        path = self._job_path(job_name)
        try:
            return pickle.loads(path.read_bytes())
        except (OSError, pickle.UnpicklingError, EOFError):
            return None

    # ------------------------------------------------------------------
    def clear(self) -> None:
        """Forget and delete everything recorded for this build."""
        self._stages.clear()
        if not self.directory.is_dir():
            return
        for path in self.directory.glob("*.pkl"):
            path.unlink(missing_ok=True)
        jobs = self.directory / "jobs"
        if jobs.is_dir():
            for path in jobs.glob("*.pkl"):
                path.unlink(missing_ok=True)
        self._manifest_path().unlink(missing_ok=True)
