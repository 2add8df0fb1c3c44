"""Golden-result regression store.

Small, committed JSON snapshots of what a handful of canonical runs must
produce — checksums, task/message counts, total simulated time — keyed by
the run's :class:`~repro.core.RunSpec` content.  Any behavioural drift
(physics, task graph shape, communication volume, or the simulated clock)
shows up as a diff against the stored golden; deliberate changes are
refreshed with ``miniamr-sim verify --update-goldens`` and reviewed like
any other diff.

Layout: one ``<name>.json`` file per golden under a directory (the repo
commits ``goldens/``)::

    {"name": ..., "key": ..., "spec": {...}, "expected": {...}}

``key`` is the sha256 of the canonical JSON of the *fully resolved* spec —
deliberately **without** the package version (unlike the result cache's
:meth:`~repro.core.RunSpec.fingerprint`): a golden asserts that behaviour
is stable *across* versions, so a version bump must compare against the
old golden rather than orphan it.  A key mismatch means the golden's spec
itself changed and the file needs regenerating.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path

import numpy as np

from ..amr import AmrConfig, sphere
# Submodule import (not the package) — repro.core.driver imports
# repro.verify at load time, so importing repro.core here would cycle.
from ..core.spec import RunSpec

#: Default on-disk location of the committed goldens (relative to the
#: repository root / current working directory; override with
#: ``miniamr-sim verify --goldens-dir``).
DEFAULT_GOLDENS_DIR = "goldens"


class GoldenMismatchError(RuntimeError):
    """Raised when a run's results drifted from its committed golden."""


def golden_key(spec: RunSpec) -> str:
    """Content key of a golden: sha256 of the resolved spec (no version)."""
    blob = json.dumps(
        spec.resolve().to_dict(), sort_keys=True, separators=(",", ":"),
        allow_nan=False,
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def expected_from_result(result) -> dict:
    """The golden payload of one :class:`~repro.core.RunResult`."""
    comm = result.comm_stats
    return {
        "total_time": result.total_time,
        "refine_time": result.refine_time,
        "flops": result.flops,
        "num_blocks": result.num_blocks,
        "imbalance": result.imbalance,
        "checksums": [
            [float(t), np.asarray(c, dtype=np.float64).tolist(), float(d)]
            for t, c, d in result.checksums
        ],
        "messages": comm.messages if comm else 0,
        "bytes_sent": comm.bytes_sent if comm else 0,
        "collectives": comm.collectives if comm else 0,
        "tasks_spawned": sum(
            s.tasks_spawned for s in result.runtime_stats
        ),
        "tasks_executed": sum(
            s.tasks_executed for s in result.runtime_stats
        ),
    }


def diff_expected(expected: dict, actual: dict) -> list:
    """Field-by-field mismatches between two golden payloads."""
    problems = []
    for key in ("total_time", "refine_time", "flops", "num_blocks",
                "imbalance", "messages", "bytes_sent", "collectives",
                "tasks_spawned", "tasks_executed"):
        if expected.get(key) != actual.get(key):
            problems.append(
                f"{key}: expected {expected.get(key)!r}, "
                f"got {actual.get(key)!r}"
            )
    exp_cs, act_cs = expected.get("checksums", []), actual.get("checksums", [])
    if len(exp_cs) != len(act_cs):
        problems.append(
            f"checksums: expected {len(exp_cs)} validations, "
            f"got {len(act_cs)}"
        )
    else:
        for i, (e, a) in enumerate(zip(exp_cs, act_cs)):
            if e != a:
                problems.append(f"checksums[{i}]: expected {e!r}, got {a!r}")
    return problems


class GoldenStore:
    """Directory of committed golden-result JSON files."""

    def __init__(self, root=DEFAULT_GOLDENS_DIR):
        self.root = Path(root)

    def path(self, name: str) -> Path:
        return self.root / f"{name}.json"

    def names(self) -> list:
        if not self.root.is_dir():
            return []
        return sorted(p.stem for p in self.root.glob("*.json"))

    def __contains__(self, name: str) -> bool:
        return self.path(name).is_file()

    # ------------------------------------------------------------------
    def load(self, name: str) -> dict:
        """The stored golden envelope (raises ``FileNotFoundError``)."""
        with open(self.path(name), "r", encoding="utf-8") as fh:
            return json.load(fh)

    def save(self, name: str, spec: RunSpec, result):
        """(Re)write one golden atomically (write-to-temp + rename)."""
        envelope = {
            "name": name,
            "key": golden_key(spec),
            "spec": spec.to_dict(),
            "expected": expected_from_result(result),
        }
        self.root.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(
            dir=self.root, prefix=".tmp-", suffix=".json"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(envelope, fh, indent=2, sort_keys=True)
                fh.write("\n")
            os.replace(tmp, self.path(name))
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    # ------------------------------------------------------------------
    def compare(self, name: str, spec: RunSpec, result) -> list:
        """Mismatches of a fresh result against the stored golden.

        Returns a list of problem strings (empty = no drift).  A missing
        golden or a spec-key mismatch is itself a problem — the store
        must be refreshed deliberately, never silently.
        """
        if name not in self:
            hint = ("run --update-goldens" if self.root.is_dir() else
                    f"no directory {self.root.resolve()}; pass --goldens-dir")
            return [f"{name}: no golden on file ({hint})"]
        try:
            envelope = self.load(name)
        except (OSError, ValueError) as exc:
            return [f"{name}: unreadable golden ({exc})"]
        problems = []
        key = golden_key(spec)
        if envelope.get("key") != key:
            problems.append(
                f"{name}: spec key changed "
                f"(golden {str(envelope.get('key'))[:12]}..., "
                f"current {key[:12]}...) — the golden's RunSpec itself "
                f"drifted; regenerate with --update-goldens"
            )
        problems += [
            f"{name}: {p}"
            for p in diff_expected(
                envelope.get("expected", {}), expected_from_result(result)
            )
        ]
        return problems

    def check(self, name: str, spec: RunSpec, result):
        """Raise :class:`GoldenMismatchError` on any drift."""
        problems = self.compare(name, spec, result)
        if problems:
            raise GoldenMismatchError(
                f"golden drift detected:\n" +
                "\n".join(f"  - {p}" for p in problems)
            )


# ----------------------------------------------------------------------
# The canonical golden runs
# ----------------------------------------------------------------------
def _golden_objects():
    return (
        sphere(center=(0.4, 0.45, 0.5), radius=0.2, move=(0.05, 0.0, 0.0)),
    )


def default_golden_specs(quick=False) -> dict:
    """The committed golden runs: one small config per variant.

    All three run the same physics on the ``laptop`` preset; MPI-only
    fills the 4-core node with 4 single-core ranks while the hybrids use
    2 ranks x 2 cores, exactly like the cross-variant equivalence tests.
    """
    base = dict(
        nx=4, ny=4, nz=4, num_vars=2,
        num_tsteps=1 if quick else 2, stages_per_ts=3, refine_freq=1,
        checksum_freq=3, max_refine_level=1, objects=_golden_objects(),
    )
    mpi_cfg = AmrConfig(
        npx=2, npy=2, npz=1, init_x=1, init_y=1, init_z=2, **base
    )
    hybrid_cfg = AmrConfig(
        npx=2, npy=1, npz=1, init_x=1, init_y=2, init_z=2, **base
    )
    return {
        "mpi_only_small": RunSpec(
            config=mpi_cfg, machine="laptop", variant="mpi_only",
            num_nodes=1, ranks_per_node=4,
        ),
        "fork_join_small": RunSpec(
            config=hybrid_cfg, machine="laptop", variant="fork_join",
            num_nodes=1, ranks_per_node=2,
        ),
        "tampi_dataflow_small": RunSpec(
            config=hybrid_cfg, machine="laptop", variant="tampi_dataflow",
            num_nodes=1, ranks_per_node=2,
        ),
    }
