"""The spawn path: the task table it produces, and lazily formatted labels.

* The task table of two small profiled runs is pinned by digest: each
  task's ``(tid, rank, label, phase, spawn time)`` in spawn order.  It
  guards task numbering, label text and the simulated time every task is
  created at, which a change to how spawns are charged would move.
* The data-flow variant passes label templates ``(fmt, *args)``; each
  formats to the text its f-string produced, and an unread label stays
  a template.
* Every reader of a label — ``repr``, the access witness and the
  profiler — sees the formatted string.
"""

import hashlib

import pytest

from repro import AmrConfig, sphere
from repro.core import RunSpec, driver
from repro.obs import Profiler
from repro.simx import Environment
from repro.tasking import RankRuntime, Task
from repro.verify import WRITE, AccessWitness

#: sha256 of the task table of :func:`_spec` per variant.  Regenerate
#: only for a deliberate change of behaviour.
TASK_TABLE_DIGESTS = {
    "tampi_dataflow":
        "dd19749f21cb47d3cd28b2d6f06b9a173d7ac6f1f9f60b65c2fbd9664bf6bf91",
    "fork_join":
        "ff93821603c463020b5de3cbc70508d4ec1aa0644abe81a8d98818525ecfe611",
}

#: The data-flow variant's label templates, each with the f-string it
#: replaced.
OLD_LABELS = {
    "recv d{} p{} m{}": lambda axis, peer, gi: f"recv d{axis} p{peer} m{gi}",
    "pack d{} {.coords}": lambda axis, src: f"pack d{axis} {src.coords}",
    "send d{} p{} m{}": lambda axis, peer, gi: f"send d{axis} p{peer} m{gi}",
    "intra d{} {.coords}": lambda axis, dst: f"intra d{axis} {dst.coords}",
    "unpack d{} {.coords}": lambda axis, dst: f"unpack d{axis} {dst.coords}",
    "stencil {.coords}": lambda bid: f"stencil {bid.coords}",
    "checksum {.coords}": lambda bid: f"checksum {bid.coords}",
    "split {.coords}": lambda bid: f"split {bid.coords}",
    "consolidate {.coords}": lambda parent: f"consolidate {parent.coords}",
    "xrecv {.coords}": lambda bid: f"xrecv {bid.coords}",
    "xunpack {.coords}": lambda bid: f"xunpack {bid.coords}",
    "xpack {.coords}": lambda bid: f"xpack {bid.coords}",
    "xsend {.coords}": lambda bid: f"xsend {bid.coords}",
}


def _spec(variant, **overrides):
    """A small run that refines, coarsens and moves blocks between ranks,
    so the data-flow variant spawns every kind of task it has."""
    cfg = AmrConfig(
        npx=2, npy=1, npz=1, init_x=1, init_y=2, init_z=2,
        nx=4, ny=4, nz=4, num_vars=2,
        num_tsteps=3, stages_per_ts=2, refine_freq=1, checksum_freq=2,
        max_refine_level=1,
        objects=(sphere(center=(0.4, 0.45, 0.5), radius=0.2,
                        move=(0.25, 0.0, 0.0)),),
    )
    fields = dict(config=cfg, machine="laptop", variant=variant,
                  num_nodes=1, ranks_per_node=2)
    fields.update(overrides)
    return RunSpec(**fields)


@pytest.mark.parametrize("variant", sorted(TASK_TABLE_DIGESTS))
def test_task_table_is_pinned(variant):
    result = driver.execute(_spec(variant, profile=True))
    digest = hashlib.sha256()
    for rec in result.profiler.tasks.values():  # spawn order
        assert type(rec.label) is str and rec.label
        row = (rec.tid, rec.rank, rec.label, rec.phase, rec.t_spawn)
        digest.update(repr(row).encode())
    assert digest.hexdigest() == TASK_TABLE_DIGESTS[variant]


def test_label_templates_format_like_their_f_strings(monkeypatch):
    spawned = []
    spawn = RankRuntime.spawn

    def recording_spawn(rt, label, *args, **kwargs):
        task = spawn(rt, label, *args, **kwargs)
        spawned.append((label, task))
        return task

    monkeypatch.setattr(RankRuntime, "spawn", recording_spawn)
    driver.execute(_spec("tampi_dataflow"))

    assert {label[0] for label, _task in spawned} == set(OLD_LABELS)
    for label, task in spawned:
        fmt, *args = label
        # Arguments are objects the run holds anyway, not new tuples.
        assert not any(type(arg) is tuple for arg in args), label
        # Unprofiled and unwitnessed, nothing read the label.
        assert task._label is label
        assert task.label == OLD_LABELS[fmt](*args)
        assert task._label == task.label  # cached


def test_readers_see_the_formatted_label():
    env = Environment()
    task = Task(env, ("stencil {}", 7), accesses=(), phase="stencil")
    assert repr(task) == "<Task #1 'stencil 7' created>"

    profiler = Profiler()
    task = Task(env, ("pack d{} {}", 0, 3), phase="pack")
    profiler.task_spawned(task, 0, 0.0)
    assert profiler.tasks[task.tid].label == "pack d0 3"

    witness = AccessWitness(env)
    task = Task(env, ("unpack d{} {}", 1, 2), phase="unpack")
    witness.task_begin(task, 0)
    witness.touch(WRITE, "undeclared")
    witness.task_end(task)
    (violation,) = witness.violations
    assert violation.task_label == "unpack d1 2"


def test_phase_defaults_to_the_formatted_label():
    env = Environment()
    assert Task(env, ("omp-for[{}]", 2)).phase == "omp-for[2]"
    task = Task(env, ("omp-for[{}]", 2), phase="stencil")
    assert task.phase == "stencil"
    assert type(task._label) is tuple
