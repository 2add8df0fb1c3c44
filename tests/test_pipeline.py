"""Pipelines: spec validation, DAG scheduling, deps flow, caching."""

import json
import random
import time

import pytest

from repro import AmrConfig, RunSpec, sphere
from repro.exec import ResultCache, SweepEngine, SweepError, run_spec_dict
from repro.obs.telemetry import TelemetryBus, read_records
from repro.pipeline import (
    JobGraph,
    JobNode,
    PipelineNode,
    PipelineSpec,
    get_generator,
    register_generator,
)


def small_config(num_ranks=2, **overrides):
    kwargs = dict(
        npx=num_ranks, npy=1, npz=1, init_x=1, init_y=2, init_z=2,
        nx=4, ny=4, nz=4, num_vars=2, num_tsteps=1, stages_per_ts=2,
        refine_freq=1, checksum_freq=2, max_refine_level=1,
        payload="synthetic",
        objects=(sphere(center=(0.3, 0.3, 0.3), radius=0.25),),
    )
    kwargs.update(overrides)
    return AmrConfig(**kwargs)


def small_spec(**overrides):
    kwargs = dict(
        config=small_config(), machine="laptop", variant="tampi_dataflow",
        num_nodes=1, ranks_per_node=2,
    )
    kwargs.update(overrides)
    return RunSpec(**kwargs)


# ----------------------------------------------------------------------
# Test generators (module level: registered once, picklable by name)
# ----------------------------------------------------------------------
@register_generator("test.echo_spec")
def _echo_spec(params, deps):
    """Build the canonical small RunSpec, varied by ``sched_seed``."""
    return small_spec(sched_seed=int(params.get("sched_seed", 0)))


@register_generator("test.spec_from_dep")
def _spec_from_dep(params, deps):
    """A downstream run sized from its predecessor's *measured* result."""
    base = deps[params["dep"]]
    # The dependency's result must be a real RunResult by the time the
    # builder runs; fold a derived quantity into the new spec.
    seed = int(base.num_blocks % 7)
    return small_spec(scheduler="fuzz", sched_seed=seed)


@register_generator("test.join_stats")
def _join_stats(params, deps):
    """Analysis node: reduce every predecessor to plain JSON."""
    return {
        name: {"blocks": deps[name].num_blocks,
               "total_time": deps[name].total_time}
        for name in sorted(deps)
    }


@register_generator("test.boom")
def _boom(params, deps):
    raise RuntimeError("builder exploded")


@register_generator("test.set_value")
def _set_value(params, deps):
    """Analysis value that is not JSON: the node must fail on its own."""
    return {"x": {1, 2}}


@register_generator("test.fan_out")
def _fan_out(params, deps):
    """Fan-out: one child per listed ``sched_seed``; ``bad`` children
    declare a rank grid that cannot run."""
    bad = small_spec(config=small_config(num_ranks=2), ranks_per_node=4)
    return [
        bad if seed == "bad" else small_spec(sched_seed=seed)
        for seed in params.get("seeds", [])
    ]


@register_generator("test.children")
def _children(params, deps):
    """Reduce a fan-out's child outcomes to plain JSON."""
    return [
        {"status": "ok" if o.ok else o.status,
         "blocks": o.result.num_blocks if o.ok else None}
        for o in deps["fan"]
    ]


# ----------------------------------------------------------------------
# PipelineSpec validation and round trips
# ----------------------------------------------------------------------
def test_node_requires_exactly_one_of_run_or_generator():
    with pytest.raises(ValueError, match="exactly one"):
        PipelineNode("n")
    with pytest.raises(ValueError, match="exactly one"):
        PipelineNode("n", run=small_spec(), generator="test.echo_spec")


def test_params_only_allowed_on_generator_nodes():
    with pytest.raises(ValueError, match="params"):
        PipelineNode("n", run=small_spec(), params={"x": 1})


def test_self_dependency_rejected():
    with pytest.raises(ValueError, match="itself"):
        PipelineNode("n", run=small_spec(), after=("n",))


def test_duplicate_node_names_rejected():
    with pytest.raises(ValueError, match="duplicate"):
        PipelineSpec(name="p", nodes=(
            PipelineNode("a", run=small_spec()),
            PipelineNode("a", run=small_spec()),
        ))


def test_unknown_dependency_rejected():
    with pytest.raises(ValueError, match="ghost"):
        PipelineSpec(name="p", nodes=(
            PipelineNode("a", run=small_spec(), after=("ghost",)),
        ))


def test_cycle_rejected_naming_the_stuck_nodes():
    with pytest.raises(ValueError) as exc:
        PipelineSpec(name="p", nodes=(
            PipelineNode("a", run=small_spec(), after=("b",)),
            PipelineNode("b", run=small_spec(), after=("a",)),
        ))
    assert "a" in str(exc.value) and "b" in str(exc.value)


def test_pipeline_json_round_trip():
    spec = PipelineSpec(name="diamond", nodes=(
        PipelineNode("root", run=small_spec()),
        PipelineNode("left", generator="test.echo_spec",
                     params={"sched_seed": 1}, after=("root",)),
        PipelineNode("right", generator="test.echo_spec",
                     params={"sched_seed": 2}, after=("root",)),
        PipelineNode("join", generator="test.join_stats",
                     after=("left", "right")),
    ))
    again = PipelineSpec.from_json(spec.to_json())
    assert again == spec
    assert json.loads(spec.to_json())["pipeline"] == "diamond"


def test_unknown_generator_error_lists_registered_names():
    with pytest.raises(KeyError, match="test.echo_spec"):
        get_generator("no.such.generator")


# ----------------------------------------------------------------------
# Graph mechanics: priorities and virtual-time scheduling
# ----------------------------------------------------------------------
def synthetic_graph(nodes, edges, name="synthetic"):
    preds = [[] for _ in range(nodes)]
    for a, b in edges:
        preds[b].append(a)
    return JobGraph(
        [JobNode(index=i, name=f"n{i}", label=f"n{i}") for i in range(nodes)],
        preds, name=name,
    )


def test_critical_path_priorities_are_downward_ranks():
    g = synthetic_graph(3, [(0, 1), (1, 2)])
    assert g.critical_path_priorities([1.0, 2.0, 4.0]) == [7.0, 6.0, 4.0]


def test_critical_path_first_beats_fifo_on_a_crafted_dag():
    # Four cheap independents (low indices: FIFO starts them first) plus
    # a 4-3-2 chain.  On two workers FIFO delays the chain behind the
    # cheap work; critical-path-first starts the chain immediately.
    g = synthetic_graph(7, [(4, 5), (5, 6)])
    costs = [1.0, 1.0, 1.0, 1.0, 4.0, 3.0, 2.0]
    cp = g.simulate_makespan(costs, workers=2, policy="critical_path")
    fifo = g.simulate_makespan(costs, workers=2, policy="fifo")
    assert cp == 9.0
    assert fifo == 11.0


def test_critical_path_beats_fifo_across_seeded_random_dags():
    """List scheduling is a heuristic (anomalies exist), so the claim is
    statistical: over a seeded ensemble, critical-path-first wins in
    aggregate and on the large majority of DAGs."""
    wins = ties = losses = 0
    cp_total = fifo_total = 0.0
    for seed in range(40):
        rng = random.Random(seed)
        n = rng.randint(4, 14)
        edges = [
            (i, j)
            for i in range(n) for j in range(i + 1, n)
            if rng.random() < 0.25
        ]
        g = synthetic_graph(n, edges, name=f"seed{seed}")
        costs = [rng.uniform(0.1, 5.0) for _ in range(n)]
        workers = rng.randint(1, 3)
        cp = g.simulate_makespan(costs, workers, "critical_path")
        fifo = g.simulate_makespan(costs, workers, "fifo")
        cp_total += cp
        fifo_total += fifo
        if cp < fifo - 1e-9:
            wins += 1
        elif cp > fifo + 1e-9:
            losses += 1
        else:
            ties += 1
    assert cp_total <= fifo_total
    assert losses <= (wins + ties) // 4, (wins, ties, losses)


def test_schedule_respects_dependencies_and_worker_count():
    g = synthetic_graph(4, [(0, 2), (1, 2)])
    makespan, sched = g.simulate_schedule([2.0, 1.0, 1.0, 3.0], workers=2)
    for a, b in ((0, 2), (1, 2)):
        assert sched[b][0] >= sched[a][1]
    # Never more than 2 tasks overlapping.
    for t in (s for s, _ in sched):
        active = sum(1 for s, f in sched if s <= t < f)
        assert active <= 2
    assert makespan == max(f for _, f in sched)


def test_ascii_dag_marks_the_critical_path():
    g = synthetic_graph(4, [(0, 2), (1, 2), (2, 3)])
    text = g.ascii(costs=[5.0, 1.0, 1.0, 1.0], workers=2)
    assert "*" in text
    # Node 1 (the cheap root off the path) is not marked.
    n1 = next(l for l in text.splitlines() if "] n1" in l)
    assert not n1.rstrip().endswith("*")
    for idx in (0, 2, 3):
        line = next(l for l in text.splitlines() if f"] n{idx}" in l)
        assert line.rstrip().endswith("*")


def test_graph_cycle_detection():
    g = synthetic_graph(2, [(0, 1), (1, 0)])
    with pytest.raises(ValueError, match="cycle"):
        g.topo_order()


# ----------------------------------------------------------------------
# End-to-end execution: deps flow, caching, blocking
# ----------------------------------------------------------------------
def diamond(name="diamond"):
    return PipelineSpec(name=name, nodes=(
        PipelineNode("root", run=small_spec()),
        PipelineNode("left", generator="test.spec_from_dep",
                     params={"dep": "root"}, after=("root",)),
        PipelineNode("right", generator="test.echo_spec",
                     params={"sched_seed": 3}, after=("root",)),
        PipelineNode("join", generator="test.join_stats",
                     after=("left", "right")),
    ))


def test_predecessor_results_reach_dependent_builders():
    report = SweepEngine().run(diamond())
    assert report.ok
    base = report.result("root")
    left = report.outcome("left")
    # test.spec_from_dep derives sched_seed from the measured result.
    assert left.spec.sched_seed == base.num_blocks % 7
    assert left.spec.scheduler == "fuzz"
    join = report.result("join")
    assert join["left"]["blocks"] == report.result("left").num_blocks
    assert join["right"]["total_time"] == report.result("right").total_time


def test_diamond_second_run_is_fully_cached_and_byte_identical(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    first = SweepEngine(jobs=1, cache=cache).run(diamond())
    second = SweepEngine(jobs=1, cache=cache).run(diamond())
    assert first.executed == 4 and first.cached == 0
    assert second.executed == 0 and second.cached == 4
    blob1 = json.dumps(first.results_dict(), sort_keys=True)
    blob2 = json.dumps(second.results_dict(), sort_keys=True)
    assert blob1 == blob2


def test_analysis_fingerprint_tracks_inputs(tmp_path):
    """Changing a *direct* input re-runs the join; unchanged nodes stay
    cached."""
    cache = ResultCache(tmp_path / "cache")
    SweepEngine(jobs=1, cache=cache).run(diamond())
    changed = PipelineSpec(name="diamond", nodes=(
        PipelineNode("root", run=small_spec()),
        PipelineNode("left", generator="test.spec_from_dep",
                     params={"dep": "root"}, after=("root",)),
        PipelineNode("right", generator="test.echo_spec",
                     params={"sched_seed": 5}, after=("root",)),
        PipelineNode("join", generator="test.join_stats",
                     after=("left", "right")),
    ))
    rerun = SweepEngine(jobs=1, cache=cache).run(changed)
    assert rerun.outcome("root").status == "cached"  # untouched
    assert rerun.outcome("left").status == "cached"  # same derived spec
    assert rerun.outcome("right").status == "ok"     # new params
    assert rerun.outcome("join").status == "ok"      # a dep changed


def test_failed_predecessor_blocks_the_dependent_subtree():
    bad = small_spec(config=small_config(num_ranks=2), ranks_per_node=4)
    pipe = PipelineSpec(name="p", nodes=(
        PipelineNode("bad", run=bad),
        PipelineNode("good", run=small_spec()),
        PipelineNode("child", generator="test.echo_spec",
                     params={"sched_seed": 4}, after=("bad",)),
        PipelineNode("grandchild", generator="test.join_stats",
                     after=("child",)),
        PipelineNode("unaffected", generator="test.join_stats",
                     after=("good",)),
    ))
    report = SweepEngine().run(pipe)
    assert report.outcome("bad").status == "failed"
    assert report.outcome("child").status == "blocked"
    assert report.outcome("grandchild").status == "blocked"
    assert report.outcome("unaffected").status == "ok"
    assert report.failed == 1 and report.blocked == 2
    assert "2 blocked" in report.summary()
    with pytest.raises(SweepError, match="blocked downstream"):
        report.raise_failures()
    # Blocked != failed: the blocked outcomes name their blocker.
    assert "bad" in report.outcome("child").error


def test_builder_exception_fails_the_node_and_blocks_children():
    pipe = PipelineSpec(name="p", nodes=(
        PipelineNode("root", run=small_spec()),
        PipelineNode("boom", generator="test.boom", after=("root",)),
        PipelineNode("after", generator="test.join_stats",
                     after=("boom",)),
    ))
    report = SweepEngine().run(pipe)
    assert report.outcome("root").status == "ok"
    assert report.outcome("boom").status == "failed"
    assert "builder exploded" in report.outcome("boom").error
    assert report.outcome("after").status == "blocked"


def test_raise_failures_raises_on_a_failed_pipeline_node():
    bad = small_spec(config=small_config(num_ranks=2), ranks_per_node=4)
    pipe = PipelineSpec(name="p", nodes=(PipelineNode("bad", run=bad),))
    report = SweepEngine().run(pipe)
    with pytest.raises(SweepError):
        report.raise_failures()


def test_flat_sweeps_still_run_through_the_same_engine():
    specs = [small_spec(), small_spec(variant="fork_join")]
    report = SweepEngine(jobs=1).run(specs)
    assert report.failed == 0
    assert report.blocked == 0
    assert "blocked" not in report.summary()


# ----------------------------------------------------------------------
# Acceptance (a): eager start — no level barriers
# ----------------------------------------------------------------------
def _sleepy_runner(spec_dict):
    """Worker body sleeping ``sched_seed`` hundredths before running."""
    time.sleep(int(spec_dict.get("sched_seed", 0)) * 0.01)
    return run_spec_dict(spec_dict)


def test_node_starts_as_soon_as_its_own_predecessors_finish(tmp_path):
    """With two workers, ``child`` (after the fast root) must start while
    the unrelated slow root is still running — a level-barrier scheduler
    would stall it until the whole first level drained."""
    pipe = PipelineSpec(name="eager", nodes=(
        PipelineNode("slow", run=small_spec(scheduler="fuzz",
                                            sched_seed=120)),
        PipelineNode("fast", run=small_spec(sched_seed=1)),
        PipelineNode("child", generator="test.echo_spec",
                     params={"sched_seed": 2}, after=("fast",)),
    ))
    bus = TelemetryBus(tmp_path / "tel.jsonl")
    engine = SweepEngine(jobs=2, retries=0, runner=_sleepy_runner,
                         telemetry=bus)
    report = engine.run(pipe)
    assert report.ok
    order = [(r["type"], r.get("attempt", r.get("status")), r.get("node"))
             for r in read_records(bus.path)]
    child_start = order.index(("job_launched", 1, "child"))
    slow_done = order.index(("job_done", "ok", "slow"))
    assert child_start < slow_done, order


# ----------------------------------------------------------------------
# Analysis values and fan-out nodes
# ----------------------------------------------------------------------
@pytest.mark.parametrize("cached", [False, True])
def test_non_json_analysis_value_fails_only_its_node(tmp_path, cached):
    cache = ResultCache(tmp_path / "cache") if cached else None
    pipe = PipelineSpec(name="p", nodes=(
        PipelineNode("root", run=small_spec()),
        PipelineNode("bad", generator="test.set_value", after=("root",)),
        PipelineNode("after", generator="test.join_stats",
                     after=("bad",)),
        PipelineNode("other", generator="test.join_stats",
                     after=("root",)),
    ))
    report = SweepEngine(jobs=1, cache=cache).run(pipe)
    bad = report.outcome("bad")
    assert bad.status == "failed"
    assert "TypeError" in bad.error and "Traceback" in bad.error
    assert report.outcome("after").status == "blocked"
    assert report.outcome("other").status == "ok"


def fan_pipeline(seeds):
    return PipelineSpec(name="fan", nodes=(
        PipelineNode("fan", generator="test.fan_out",
                     params={"seeds": seeds}),
        PipelineNode("sum", generator="test.children", after=("fan",)),
    ))


def test_empty_fan_out_settles_at_once(tmp_path):
    bus = TelemetryBus(tmp_path / "tel.jsonl")
    report = SweepEngine(telemetry=bus).run(fan_pipeline([]))
    assert report.outcome("fan").status == "ok"
    assert report.result("fan") == []
    assert report.result("sum") == []
    types = [r["type"] for r in read_records(bus.path)]
    assert types.count("job_done") == 2  # the stream saw both nodes
    assert "job_launched" not in types


def test_failed_child_is_data_for_the_successor():
    report = SweepEngine().run(fan_pipeline([1, "bad", 2]))
    children = report.result("fan")
    assert [c.status for c in children] == ["ok", "failed", "ok"]
    assert "bad" not in children[1].name
    assert children[1].name == "fan[1]"
    assert report.outcome("fan").status == "ok"
    assert report.outcome("sum").status == "ok"
    summary = report.result("sum")
    assert [c["status"] for c in summary] == ["ok", "failed", "ok"]
    assert summary[0]["blocks"] == children[0].result.num_blocks
    assert report.failed == 0 and report.blocked == 0


def test_fan_out_children_hit_the_cache_one_by_one(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    SweepEngine(jobs=1, cache=cache).run(fan_pipeline([1]))
    def launched(path):
        return [r["node"] for r in read_records(path)
                if r["type"] == "job_launched" and r["attempt"] == 1]

    # The wider fan-out shares child 0 with the first run.
    bus = TelemetryBus(tmp_path / "wider.jsonl")
    wider = SweepEngine(jobs=1, cache=cache, telemetry=bus).run(
        fan_pipeline([1, 2])
    )
    assert [c.status for c in wider.result("fan")] == ["cached", "ok"]
    assert wider.outcome("fan").status == "ok"
    assert launched(bus.path) == ["fan[1]"]
    bus = TelemetryBus(tmp_path / "warm.jsonl")
    warm = SweepEngine(jobs=1, cache=cache, telemetry=bus).run(
        fan_pipeline([1, 2])
    )
    assert warm.executed == 0
    assert launched(bus.path) == []
    assert [c.status for c in warm.result("fan")] == ["cached", "cached"]
    assert warm.outcome("fan").status == "cached"
    assert warm.results_dict() == wider.results_dict()


def test_fan_out_results_dict_is_identical_across_jobs():
    pipe = fan_pipeline([1, "bad", 2, 3])
    serial = SweepEngine(jobs=1).run(pipe)
    parallel = SweepEngine(jobs=2).run(pipe)
    blob1 = json.dumps(serial.results_dict(), sort_keys=True)
    blob2 = json.dumps(parallel.results_dict(), sort_keys=True)
    assert blob1 == blob2
    fan = serial.results_dict()["fan"]
    assert fan[1] is None
    assert fan[0] == serial.result("fan")[0].result.to_dict()


def test_show_dag_renders_a_fan_out_node(tmp_path, capsys):
    from repro.cli import main

    path = tmp_path / "fan.json"
    path.write_text(fan_pipeline([1, 2]).to_json())
    assert main(["pipeline", "--file", str(path), "--show-dag",
                 "--no-cache", "--no-stats"]) == 0
    out = capsys.readouterr().out
    assert "[0] fan  [generator test.fan_out]" in out
    assert "sum <- fan" in out
