"""Quick-mode runs of the experiment harness (structure, not timing)."""

import pytest

from repro.bench import (
    ScalingPoint,
    ScalingResult,
    table1,
    table2,
    trace_runs,
    weak_scaling,
)


@pytest.fixture(scope="module")
def weak():
    return weak_scaling(node_counts=(1, 2), quick=True)


def test_weak_scaling_has_all_points(weak):
    assert len(weak.points) == 6  # 2 node counts x 3 variants
    for variant in ("mpi_only", "fork_join", "tampi_dataflow"):
        series = weak.series(variant)
        assert [p.num_nodes for p in series] == [1, 2]
        for p in series:
            assert p.gflops > 0
            assert p.total_time > 0
            assert p.flops > 0


def test_weak_scaling_doubles_work(weak):
    """Weak scaling: FLOPs grow with the node count."""
    for variant in ("mpi_only", "tampi_dataflow"):
        series = weak.series(variant)
        assert series[1].flops > 1.5 * series[0].flops


def test_efficiency_is_one_at_base(weak):
    for variant in ("mpi_only", "fork_join", "tampi_dataflow"):
        assert weak.efficiency(variant, 1) == pytest.approx(1.0)


def test_speedup_vs_self_is_one(weak):
    assert weak.speedup_vs("mpi_only", "mpi_only", 2) == pytest.approx(1.0)


def test_gflops_at_unknown_point_raises(weak):
    with pytest.raises(KeyError):
        weak.gflops_at("mpi_only", 99)


def test_scaling_result_text_rendering(weak):
    assert "weak scaling" in weak.text
    assert "tampi_dataflow" in weak.text


def test_non_refine_time_property():
    p = ScalingPoint(
        variant="x", num_nodes=1, gflops=1.0, total_time=10.0,
        refine_time=2.0, flops=1e9,
    )
    assert p.non_refine_time == 8.0


def test_table1_quick_structure():
    result = table1(ranks_per_node_list=(2, 4), quick=True)
    assert len(result.rows) == 4  # 2 configs x 2 variants
    variants = {v for _rpn, v, *_ in result.rows}
    assert variants == {"fork_join", "tampi_dataflow"}
    assert "Table I" in result.text


def test_table2_quick_structure():
    result = table2(task_counts=(1, 0), num_nodes=2, quick=True)
    labels = [l for l, _t in result.rows]
    assert labels == ["1", "all"]
    assert all(t > 0 for _l, t in result.rows)


def test_trace_runs_quick_structure():
    exp = trace_runs(quick=True)
    assert set(exp.results) == {"mpi_only", "tampi_dataflow"}
    for res in exp.results.values():
        assert res.tracer is not None
        assert res.tracer.events
    assert "speedup" in exp.text


def test_scaling_result_csv_export(weak):
    csv = weak.to_csv()
    lines = csv.splitlines()
    assert lines[0].startswith("nodes,variant")
    assert len(lines) == 1 + len(weak.points)
    assert any("tampi_dataflow" in l for l in lines[1:])


# ----------------------------------------------------------------------
# Fig 4 tuning problem
# ----------------------------------------------------------------------
def test_fig4_tune_keeps_the_paper_default_in_the_space():
    from repro.bench import SCALED_RPN, fig4_tune

    tune = fig4_tune(quick=True)
    assert tune.base.variant == "tampi_dataflow"
    assert tune.base.num_nodes == 4
    # The baseline point must be searchable, so the winner is provably
    # no worse than the paper default.
    assert tune.base.variant in tune.space["variant"]
    assert SCALED_RPN["tampi_dataflow"] in tune.space["ranks_per_node"]
    # Construction is deterministic: CI diffs reports built from it.
    assert tune.fingerprint() == fig4_tune(quick=True).fingerprint()
    assert tune.fingerprint() != fig4_tune(quick=False).fingerprint()


def test_tune_pipeline_orders_tune_behind_calibration():
    from repro.bench import PIPELINES, fig4_tune, get_pipeline, tune_pipeline
    from repro.tune import tune_pipeline as lower_tune

    flow = tune_pipeline(quick=True)
    names = [node.name for node in flow.nodes]
    lowered = [n.name for n in lower_tune(fig4_tune(quick=True)).nodes]
    assert names == ["calibrate"] + lowered[:-1] + ["tune"]
    assert lowered[-1] == "report"
    tune_node = flow.nodes[-1]
    assert tune_node.generator == "tune.report"
    # The tune's roots wait on the calibration run; nothing else does.
    roots = [n.name for n in flow.nodes[1:] if n.after == ("calibrate",)]
    assert roots == ["baseline", "round0"]
    assert PIPELINES["tune"] is tune_pipeline
    assert get_pipeline("tune", quick=True).name == flow.name


def test_tune_nodes_in_a_pipeline_report_like_run_tune():
    from repro import AmrConfig, RunSpec, sphere
    from repro.exec import SweepEngine
    from repro.pipeline import PipelineNode, PipelineSpec
    from repro.tune import TuneSpec, run_tune, tune_pipeline

    base = RunSpec(
        config=AmrConfig(
            npx=2, npy=1, npz=1, init_x=1, init_y=2, init_z=2,
            nx=4, ny=4, nz=4, num_vars=2, num_tsteps=1,
            stages_per_ts=2, refine_freq=1, checksum_freq=2,
            max_refine_level=1, payload="synthetic",
            objects=(sphere(center=(0.3, 0.3, 0.3), radius=0.25),),
        ),
        machine="laptop", variant="tampi_dataflow", ranks_per_node=2,
    )
    tune = TuneSpec(
        base=base, space={"variant": ("mpi_only", "tampi_dataflow")},
        name="node-tune",
    )
    flow = PipelineSpec(name="flow", nodes=(
        PipelineNode("calibrate", run=base),
        *tune_pipeline(tune).nodes,
    ))
    run = SweepEngine().run(flow)
    run.raise_failures()
    report = run.result("report")
    assert report == run_tune(tune).to_dict()
    assert report["name"] == "node-tune"
    assert [e["rank"] for e in report["entries"]] == [1, 2]
    assert report["fingerprint"] == tune.fingerprint()
