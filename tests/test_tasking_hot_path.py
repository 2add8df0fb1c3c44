"""Contracts of the tasking hot path that no golden covers.

* Task ids are the run's own: a run numbers its tasks from 1, whatever
  ran before it in the process, so the same spec traces the same way.
* A run writes no class attribute.  In CPython such a write invalidates
  the class's type version, and every specialized attribute access on
  its instances falls back to the slow path (DESIGN.md §6).
* The ``fuzz`` scheduler with ``commutative_ghosts`` reproduces a
  recorded payload exactly: it drives the ready/complete early exits and
  the commutative lock path that the ``locality`` goldens never reach.
"""

import inspect
import json
import sys
from pathlib import Path

import pytest

from repro import AmrConfig, sphere
from repro.core import RunSpec, driver
from repro.core.spec import VARIANT_NAMES
from repro.obs.export import chrome_trace_events
from repro.verify.goldens import expected_from_result

#: ``expected_from_result`` of :func:`_fuzz_commutative_spec`'s run.
#: Regenerate it only for a deliberate change of behaviour.
FUZZ_COMMUTATIVE_EXPECTED = (
    Path(__file__).with_name("fuzz_commutative_expected.json")
)


def _spec(variant, nodes=2, **overrides):
    cfg = AmrConfig(
        npx=2, npy=nodes, npz=1, init_x=1, init_y=1, init_z=2,
        nx=4, ny=4, nz=4, num_vars=2,
        num_tsteps=2, stages_per_ts=2, refine_freq=1, checksum_freq=2,
        max_refine_level=1,
        objects=(sphere(center=(0.4, 0.45, 0.5), radius=0.2,
                        move=(0.05, 0.0, 0.0)),),
    )
    fields = dict(config=cfg, machine="laptop", variant=variant,
                  num_nodes=nodes, ranks_per_node=2)
    fields.update(overrides)
    return RunSpec(**fields)


def _fuzz_commutative_spec():
    cfg = AmrConfig(
        npx=2, npy=1, npz=1, init_x=1, init_y=2, init_z=2,
        nx=4, ny=4, nz=4, num_vars=2,
        num_tsteps=2, stages_per_ts=2, refine_freq=1, checksum_freq=2,
        max_refine_level=1, commutative_ghosts=True,
        objects=(sphere(center=(0.4, 0.45, 0.5), radius=0.2,
                        move=(0.05, 0.0, 0.0)),),
    )
    return RunSpec(config=cfg, machine="laptop", variant="tampi_dataflow",
                   num_nodes=1, ranks_per_node=2, scheduler="fuzz",
                   sched_seed=5)


def test_task_ids_are_run_local():
    spec = _spec("tampi_dataflow", nodes=1, profile=True)
    traces = []
    for _ in range(2):
        result = driver.execute(spec)
        traces.append(chrome_trace_events(result.profiler, "tampi_dataflow"))
    assert traces[0] == traces[1]
    tids = [e["args"]["tid"] for e in traces[0] if e.get("cat") == "task"]
    assert min(tids) == 1


def _repro_classes():
    classes = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for _, cls in inspect.getmembers(module, inspect.isclass):
            if cls.__module__ == name:
                classes.append(cls)
    return classes


@pytest.mark.parametrize("profile", [False, True], ids=["plain", "profile"])
@pytest.mark.parametrize("variant", VARIANT_NAMES)
def test_a_run_leaves_every_class_unchanged(variant, profile):
    spec = _spec(variant, profile=profile)
    before = {cls: dict(vars(cls)) for cls in _repro_classes()}
    driver.execute(spec)
    changed = []
    for cls, attrs in before.items():
        now = vars(cls)
        for key in attrs.keys() | now.keys():
            if key not in attrs or key not in now or now[key] is not attrs[key]:
                changed.append(f"{cls.__qualname__}.{key}")
    assert sorted(changed) == []


def test_fuzz_commutative_run_matches_recorded_payload():
    result = driver.execute(_fuzz_commutative_spec())
    expected = json.loads(FUZZ_COMMUTATIVE_EXPECTED.read_text())
    assert expected_from_result(result) == expected
