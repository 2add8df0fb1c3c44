"""Access-witness race detector: coverage rules, attribution, end-to-end.

The acceptance property for this layer: a deliberately under-declared
dependency in a task (here, a stencil task spawned without its block
inout) must be caught with a message naming the task and the handle.
"""

from dataclasses import replace

import pytest

from repro import run_simulation
from repro.core import driver
from repro.core.variants.tampi_dataflow import TampiDataflowProgram
from repro.simx import Environment
from repro.tasking.task import AccessMode, Task
from repro.verify import (
    READ,
    WRITE,
    AccessRaceError,
    AccessWitness,
    covers,
    default_golden_specs,
)


# ----------------------------------------------------------------------
# covers(): the coverage rules in isolation
# ----------------------------------------------------------------------
def test_read_covered_by_any_declared_mode():
    for mode in AccessMode:
        assert covers(mode, "h", READ, "h")


def test_write_requires_a_write_mode():
    assert not covers(AccessMode.IN, "h", WRITE, "h")
    for mode in (AccessMode.OUT, AccessMode.INOUT, AccessMode.COMMUTATIVE):
        assert covers(mode, "h", WRITE, "h")


def test_scalar_handles_cover_by_equality():
    assert covers(AccessMode.INOUT, ("blk", 1, 0), WRITE, ("blk", 1, 0))
    assert not covers(AccessMode.INOUT, ("blk", 1, 0), WRITE, ("blk", 2, 0))


# ----------------------------------------------------------------------
# AccessWitness mechanics
# ----------------------------------------------------------------------
def _task(env, label, **kw):
    from repro.tasking.task import normalize_accesses

    return Task(env, label, accesses=normalize_accesses(**kw), phase=label)


def test_witness_flags_undeclared_touch_with_task_and_handle():
    env = Environment()
    w = AccessWitness(env)
    t = _task(env, "stencil b1", ins=[("blk", 1, 0)])
    w.task_begin(t, rank=0, timestep=3)
    w.touch(READ, ("blk", 1, 0))  # declared: fine
    w.touch(WRITE, ("blk", 1, 0))  # in does not permit a write
    w.touch(READ, ("blk", 2, 0))  # undeclared handle
    w.task_end(t)
    assert len(w.violations) == 2
    report = w.report()
    assert "stencil b1" in report
    assert "('blk', 1, 0)" in report and "('blk', 2, 0)" in report
    assert "timestep 3" in report
    with pytest.raises(AccessRaceError, match="stencil b1"):
        w.check()


def test_witness_clean_run_and_main_thread_touches_ignored():
    env = Environment()
    w = AccessWitness(env)
    w.touch(WRITE, "anything")  # outside any task: program-ordered
    t = _task(env, "ok", inouts=["h"])
    w.task_begin(t, rank=0)
    w.touch(READ, "h")
    w.touch(WRITE, "h")
    w.task_end(t)
    assert w.clean
    assert w.touches_checked == 2
    w.check()  # does not raise


def test_unchecked_tasks_are_exempt_but_still_framed():
    env = Environment()
    w = AccessWitness(env)
    outer = _task(env, "outer", ins=["h"])
    chunk = _task(env, "chunk")
    chunk.unchecked = True
    w.task_begin(outer, rank=0)
    w.task_begin(chunk, rank=0)
    # The chunk's touches must be swallowed, not attributed to `outer`.
    w.touch(WRITE, "something-outer-never-declared")
    w.task_end(chunk)
    w.task_end(outer)
    assert w.clean


def test_duplicate_violations_deduplicate_with_count():
    env = Environment()
    w = AccessWitness(env)
    t = _task(env, "loop", ins=["h"])
    w.task_begin(t, rank=0)
    for _ in range(5):
        w.touch(WRITE, "h")
    w.task_end(t)
    assert len(w.violations) == 1
    assert w.violations[0].count == 5
    assert "(x5)" in w.report()


# ----------------------------------------------------------------------
# End-to-end: RunSpec(check_access=True)
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "name", ["mpi_only_small", "fork_join_small", "tampi_dataflow_small"]
)
def test_all_variants_are_race_clean(name):
    spec = default_golden_specs(quick=True)[name]
    run_simulation(replace(spec, check_access=True))  # must not raise


class UnderDeclaredStencilProgram(TampiDataflowProgram):
    """Fixture: the stencil task 'forgets' its (block, group) inout."""

    def stencil(self, group):
        cfg = self.cfg
        vs = cfg.group_slice(group)
        nvars = cfg.group_size(group)
        cost = self.stencil_cost(nvars)
        for bid in sorted(self.blocks):
            yield self.rt.charge_spawn()
            self.rt.spawn(
                f"stencil {bid.coords}",
                cost=cost,
                body=self._stencil_body(bid, vs),
                # BUG under test: no ins/inouts declared at all.
                phase="stencil",
            )
            self.count_stencil_flops(nvars)


def test_under_declared_stencil_is_caught(monkeypatch):
    monkeypatch.setitem(
        driver.VARIANTS, "tampi_dataflow", UnderDeclaredStencilProgram
    )
    spec = default_golden_specs(quick=True)["tampi_dataflow_small"]
    with pytest.raises(AccessRaceError) as exc:
        run_simulation(replace(spec, check_access=True))
    message = str(exc.value)
    assert "stencil" in message  # names the task
    assert "'blk'" in message  # names the handle
    assert "undeclared" in message
