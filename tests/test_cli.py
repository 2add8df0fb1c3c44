"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main


def test_run_command_prints_metrics(capsys):
    rc = main([
        "run", "--variant", "mpi_only", "--preset", "laptop",
        "--nodes", "1", "--root", "2", "2", "1",
        "--nx", "4", "--num-vars", "2", "--tsteps", "1", "--stages", "2",
        "--checksum-freq", "2", "--max-refine-level", "1",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "total time:" in out
    assert "GFLOPS" in out
    assert "mpi_only" in out


def test_run_partitioned_matches_serial_output(capsys):
    argv = [
        "run", "--variant", "mpi_only", "--preset", "laptop",
        "--nodes", "1", "--root", "2", "2", "1",
        "--nx", "4", "--num-vars", "2", "--tsteps", "1", "--stages", "2",
        "--checksum-freq", "2", "--max-refine-level", "1",
    ]
    assert main(argv) == 0
    serial = capsys.readouterr().out
    assert main(argv + ["--pdes-workers", "2"]) == 0
    partitioned = capsys.readouterr().out
    # Same simulation, same printed metrics — the worker count is a
    # host-side knob, not a model change.
    assert partitioned == serial
    assert main(argv + ["--pdes-workers", "2",
                        "--pdes-partition", "contiguous"]) == 0
    assert capsys.readouterr().out == serial


def test_run_rejects_bad_pdes_partition(capsys):
    with pytest.raises(SystemExit):
        main([
            "run", "--variant", "mpi_only", "--preset", "laptop",
            "--pdes-partition", "striped",
        ])


def test_run_tampi_with_paper_options(capsys):
    rc = main([
        "run", "--variant", "tampi_dataflow", "--preset", "laptop",
        "--nodes", "1", "--ranks-per-node", "2", "--root", "2", "2", "2",
        "--nx", "4", "--num-vars", "2", "--tsteps", "1", "--stages", "2",
        "--max-refine-level", "1", "--send-faces", "--separate-buffers",
        "--max-comm-tasks", "4",
    ])
    assert rc == 0
    assert "tampi_dataflow" in capsys.readouterr().out


def test_bench_table1_quick(capsys):
    rc = main(["bench", "table1", "--quick"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "Table I" in out
    assert "tampi_dataflow" in out


def test_bench_weak_quick(capsys):
    rc = main(["bench", "weak", "--quick", "--nodes", "1", "2"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "weak scaling" in out


def test_bench_weak_parallel_matches_serial_and_caches(capsys, tmp_path):
    cache = str(tmp_path / "cache")
    argv = ["bench", "weak", "--quick", "--nodes", "1", "2",
            "--cache-dir", cache]
    assert main(argv + ["--jobs", "2"]) == 0
    parallel = capsys.readouterr().out
    assert main(argv) == 0  # warm cache, serial
    warm = capsys.readouterr().out
    assert main(["bench", "weak", "--quick", "--nodes", "1", "2",
                 "--no-cache"]) == 0
    serial = capsys.readouterr().out
    assert parallel == serial == warm


def test_sweep_command_prints_table(capsys, tmp_path):
    rc = main([
        "sweep", "--variants", "mpi_only", "tampi_dataflow",
        "--nodes", "1", "2", "--preset", "laptop", "--ranks-per-node", "2",
        "--root", "2", "2", "2", "--nx", "4", "--num-vars", "2",
        "--tsteps", "1", "--stages", "2", "--checksum-freq", "2",
        "--max-refine-level", "1", "--jobs", "2",
        "--cache-dir", str(tmp_path / "cache"),
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "sweep on laptop" in out
    assert "tampi_dataflow" in out and "mpi_only" in out
    assert "4 executed" in out


def test_sweep_progress_line_is_a_view_over_the_job_records(capsys,
                                                             tmp_path):
    import re
    from collections import Counter

    from repro.obs.telemetry import read_records, validate_file

    def sweep(jobs, name):
        stream = tmp_path / f"{name}.jsonl"
        assert main([
            "sweep", "--variants", "mpi_only", "tampi_dataflow",
            "--nodes", "1", "--preset", "laptop", "--ranks-per-node", "2",
            "--root", "2", "2", "2", "--nx", "4", "--num-vars", "2",
            "--tsteps", "1", "--stages", "2", "--checksum-freq", "2",
            "--max-refine-level", "1", "--jobs", str(jobs), "--no-stats",
            "--cache-dir", str(tmp_path / name),  # cold by construction
            "--telemetry", str(stream),
        ]) == 0
        validate_file(stream)
        return read_records(stream), capsys.readouterr().err

    records, err = sweep(2, "printed")
    lines = err.splitlines()
    assert len(lines) == 2, err
    done = []
    for k, line in enumerate(lines, 1):
        m = re.fullmatch(rf"\[{k}/2\] (\S+): ok \(\d+\.\d\ds\)", line)
        assert m, line
        done.append(m.group(1))
    assert sorted(done) == ["mpi_only@1n", "tampi_dataflow@1n"]

    # Without the printer (--jobs 1) the stream holds the same job
    # records: the printer forwards every record unchanged.
    bare, bare_err = sweep(1, "bare")
    assert bare_err == ""

    def jobs_of(stream):
        return Counter(
            (r["type"], r["node"], tuple(sorted(r)))
            for r in stream if r["type"].startswith("job_")
        )

    assert [r["type"] for r in records].count("engine_start") == 1
    assert jobs_of(records) == jobs_of(bare)
    assert [r["node"] for r in records if r["type"] == "job_done"] == done


def test_run_hybrid_defaults_to_paper_ranks_per_node(capsys):
    """cmd_run and the driver resolve the same default (4, Table I)."""
    rc = main([
        "run", "--variant", "tampi_dataflow", "--preset", "laptop",
        "--nodes", "1", "--root", "2", "2", "2",
        "--nx", "4", "--num-vars", "2", "--tsteps", "1", "--stages", "2",
        "--checksum-freq", "2", "--max-refine-level", "1",
    ])
    assert rc == 0
    assert "1 nodes x 4 ranks" in capsys.readouterr().out


def test_help_lists_verify_subcommand(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "verify" in capsys.readouterr().out


def test_verify_help_documents_flags(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for flag in ("--update-goldens", "--seeds", "--goldens-dir", "--quick"):
        assert flag in out


def test_verify_names_missing_goldens_by_absolute_path(tmp_path, capsys):
    empty = tmp_path / "goldens"
    empty.mkdir()
    argv = ["verify", "--quick", "--skip-fuzz", "--skip-race",
            "--goldens-dir"]
    assert main(argv + [str(empty)]) == 1
    out = capsys.readouterr().out
    assert "DRIFT" not in out
    for name in ("fork_join_small", "mpi_only_small",
                 "tampi_dataflow_small"):
        assert f"golden {name}: MISSING ({empty / name}.json)" in out

    # No such directory: the one problem names it, resolved, and the
    # option that points verify at the committed goldens.
    assert main(argv + [str(tmp_path / "absent")]) == 1
    out = capsys.readouterr().out
    problems = out.split("verify FAILED", 1)[1]
    assert str((tmp_path / "absent").resolve()) in problems
    assert "--goldens-dir" in problems
    assert "--update-goldens" not in problems


def test_run_scheduler_choices_are_centralized(capsys):
    """The run parser must accept exactly repro.tasking.runtime.SCHEDULERS."""
    from repro.tasking.runtime import SCHEDULERS

    with pytest.raises(SystemExit):
        main(["run", "--variant", "mpi_only", "--scheduler", "nope"])
    for name in SCHEDULERS:
        assert name in ("locality", "fifo", "fuzz")
    with pytest.raises(SystemExit) as exc:
        main(["run", "--help"])
    assert exc.value.code == 0
    assert "fuzz" in capsys.readouterr().out


def test_run_check_access_flag(capsys):
    rc = main([
        "run", "--variant", "tampi_dataflow", "--preset", "laptop",
        "--nodes", "1", "--ranks-per-node", "2", "--root", "2", "2", "1",
        "--nx", "4", "--num-vars", "2", "--tsteps", "1", "--stages", "2",
        "--checksum-freq", "2", "--max-refine-level", "1", "--check-access",
    ])
    assert rc == 0
    assert "access check:     clean" in capsys.readouterr().out


def test_run_fuzz_scheduler_with_seed(capsys):
    rc = main([
        "run", "--variant", "tampi_dataflow", "--preset", "laptop",
        "--nodes", "1", "--ranks-per-node", "2", "--root", "2", "2", "1",
        "--nx", "4", "--num-vars", "2", "--tsteps", "1", "--stages", "2",
        "--checksum-freq", "2", "--max-refine-level", "1",
        "--scheduler", "fuzz", "--sched-seed", "7",
    ])
    assert rc == 0
    assert "tampi_dataflow" in capsys.readouterr().out


def _profile_argv(variant, json_path=None, extra=()):
    argv = [
        "profile", "--variant", variant, "--preset", "laptop",
        "--nodes", "1", "--ranks-per-node", "2", "--root", "2", "2", "1",
        "--nx", "4", "--num-vars", "2", "--tsteps", "2", "--stages", "2",
        "--checksum-freq", "2", "--max-refine-level", "1",
    ]
    if json_path is not None:
        argv += ["--json", str(json_path)]
    return argv + list(extra)


def test_profile_command_prints_summary(capsys):
    rc = main(_profile_argv("tampi_dataflow"))
    assert rc == 0
    out = capsys.readouterr().out
    assert "== profile: tampi_dataflow" in out
    assert "critical path" in out
    assert "busy fraction" in out


def test_profile_exports_and_report_compares(capsys, tmp_path):
    import json

    a_path = tmp_path / "mpi.json"
    b_path = tmp_path / "tampi.json"
    trace_path = tmp_path / "trace.json"
    csv_path = tmp_path / "metrics.csv"
    assert main(_profile_argv("mpi_only", a_path)) == 0
    assert main(_profile_argv(
        "tampi_dataflow", b_path,
        extra=["--chrome-trace", str(trace_path),
               "--metrics-csv", str(csv_path)],
    )) == 0
    capsys.readouterr()

    doc = json.loads(trace_path.read_text())
    assert doc["traceEvents"]
    assert csv_path.read_text().startswith("name,labels,")

    rc = main(["report", str(a_path), str(b_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "== variant comparison ==" in out
    assert "mpi_only" in out and "tampi_dataflow" in out
    assert "overlap" in out


def test_report_rejects_non_profile_json(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{\"not\": \"a profile\"}")
    with pytest.raises(SystemExit):
        main(["report", str(bad), str(bad)])


def _pipeline_argv(tmp_path, extra=()):
    return [
        "pipeline", "paper", "--quick",
        "--cache-dir", str(tmp_path / "cache"),
        "--stats-file", str(tmp_path / "stats.json"),
    ] + list(extra)


def test_pipeline_show_dag_dry_runs(capsys, tmp_path):
    rc = main(_pipeline_argv(tmp_path, ["--show-dag"]))
    assert rc == 0
    out = capsys.readouterr().out
    assert "paper-diamond-quick" in out
    assert "calibrate" in out and "fig4" in out and "fig5" in out
    assert "predicted makespan" in out
    assert "critical-path-first" in out
    # A dry run executes nothing and writes no stats.
    assert not (tmp_path / "stats.json").exists()


def test_pipeline_runs_caches_and_writes_stable_json(capsys, tmp_path):
    import json

    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    rc = main(_pipeline_argv(tmp_path, ["--json", str(out1)]))
    assert rc == 0
    first = capsys.readouterr().out
    assert "== pipeline: paper-diamond-quick ==" in first
    assert "4 executed, 0 cached" in first
    assert (tmp_path / "stats.json").exists()

    rc = main(_pipeline_argv(tmp_path, ["--json", str(out2)]))
    assert rc == 0
    second = capsys.readouterr().out
    assert "0 executed, 4 cached" in second
    assert out1.read_bytes() == out2.read_bytes()
    doc = json.loads(out1.read_text())
    assert set(doc) == {"calibrate", "fig4", "fig5", "report"}
    assert "points" in doc["report"]


def test_pipeline_from_json_file(capsys, tmp_path):
    from repro.bench import paper_pipeline

    path = tmp_path / "pipe.json"
    path.write_text(paper_pipeline(quick=True).to_json())
    rc = main([
        "pipeline", "--file", str(path),
        "--cache-dir", str(tmp_path / "cache"), "--no-stats",
    ])
    assert rc == 0
    assert "paper-diamond-quick" in capsys.readouterr().out


def test_pipeline_requires_exactly_one_source(capsys, tmp_path):
    assert main(["pipeline", "--no-stats", "--no-cache"]) == 2
    err = capsys.readouterr().err
    assert "exactly one" in err


def test_pipeline_unknown_name_is_a_clean_error(capsys):
    assert main(["pipeline", "nope", "--no-stats", "--no-cache"]) == 2
    assert "unknown pipeline" in capsys.readouterr().err


def test_help_lists_pipeline_subcommand(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "pipeline" in capsys.readouterr().out


def test_unknown_variant_rejected():
    with pytest.raises(SystemExit):
        main(["run", "--variant", "nope"])


def test_command_required():
    with pytest.raises(SystemExit):
        main([])


def test_telemetry_top_and_engine_report_commands(capsys, tmp_path):
    stream = tmp_path / "sweep.jsonl"
    argv = [
        "sweep", "--variants", "mpi_only", "tampi_dataflow",
        "--nodes", "1", "--preset", "laptop", "--ranks-per-node", "2",
        "--root", "2", "2", "2", "--nx", "4", "--num-vars", "2",
        "--tsteps", "1", "--stages", "2", "--checksum-freq", "2",
        "--max-refine-level", "1", "--jobs", "2",
        "--cache-dir", str(tmp_path / "cache"),  # cold by construction
        "--telemetry", str(stream),
    ]
    assert main(argv) == 0
    capsys.readouterr()
    assert stream.exists()

    trace = tmp_path / "engine.trace.json"
    digest = tmp_path / "digest.json"
    assert main(["engine-report", str(stream), "--chrome-trace",
                 str(trace), "--json", str(digest)]) == 0
    out = capsys.readouterr().out
    assert "worker utilization" in out
    assert trace.exists() and digest.exists()
    import json as _json
    doc = _json.loads(trace.read_text())
    assert all({"name", "ph", "pid", "tid"} <= e.keys()
               for e in doc["traceEvents"])

    assert main(["top", str(stream)]) == 0
    out = capsys.readouterr().out
    assert "finished 2/2" in out


def _bench(directory, metrics, config=None):
    """Write ``BENCH_x.json`` in the benchmark schema under ``directory``."""
    directory.mkdir(exist_ok=True)
    doc = {"host_cores": 1, "config": config or {}, "metrics": {
        name: {"value": value, "unit": "s", "better": better}
        for name, (value, better) in metrics.items()
    }}
    (directory / "BENCH_x.json").write_text(json.dumps(doc))


def _trend(base, cur, *extra):
    return main(["trend", "--results-dir", str(cur),
                 "--baseline-dir", str(base), *extra])


def test_trend_command_with_baseline_dir(capsys, tmp_path):
    base, cur = tmp_path / "base", tmp_path / "cur"
    _bench(base, {"throughput": (100.0, "higher"), "t": (1.0, "lower")})
    _bench(cur, {"throughput": (50.0, "higher"), "t": (1.0, "lower")})
    assert _trend(base, cur) == 0
    assert "regression" in capsys.readouterr().out
    # --strict turns flagged regressions into a nonzero exit.
    assert _trend(base, cur, "--strict") == 1


def test_trend_flags_lower_better_rise_whatever_its_name(capsys, tmp_path):
    # The name carries "block"; direction comes only from "better".
    base, cur = tmp_path / "base", tmp_path / "cur"
    _bench(base, {"comm_blocked_fraction": (0.10, "lower")},
           config={"block": 32, "pairs": 5})
    _bench(cur, {"comm_blocked_fraction": (0.12, "lower")},
           config={"block": 64, "pairs": 9})
    assert _trend(base, cur, "--all", "--strict") == 1
    out = capsys.readouterr().out
    assert "comm_blocked_fraction" in out and "regression" in out
    # config is settings, never compared.
    assert "block" not in out.replace("comm_blocked", "")
    assert "pairs" not in out


def test_trend_flags_higher_better_drop(capsys, tmp_path):
    base, cur = tmp_path / "base", tmp_path / "cur"
    _bench(base, {"gflops": (50.0, "higher"), "wall": (2.0, "lower")})
    _bench(cur, {"gflops": (40.0, "higher"), "wall": (1.0, "lower")})
    assert _trend(base, cur, "--strict") == 1
    out = capsys.readouterr().out
    assert "gflops" in out and "regression" in out
    assert "improvement" in out   # the lower-better wall time halved
    assert "-- 1 regression(s)" in out


@pytest.mark.parametrize("doc", [
    {"host_cores": 1, "config": {}, "throughput": 50.0},
    {"host_cores": 1, "config": {},
     "metrics": {"throughput": {"value": 50.0, "unit": "1/s"}}},
    {"host_cores": 1, "config": {},
     "metrics": {"throughput": {"value": 50.0, "better": "higher"}}},
], ids=["no-metrics-map", "no-better", "no-unit"])
def test_trend_malformed_document_exits_2(capsys, tmp_path, doc):
    base, cur = tmp_path / "base", tmp_path / "cur"
    _bench(base, {"throughput": (50.0, "higher")})
    cur.mkdir()
    (cur / "BENCH_x.json").write_text(json.dumps(doc))
    assert _trend(base, cur) == 2
    assert "BENCH_x.json" in capsys.readouterr().err


def test_trend_bad_baseline_dir_exits_2(capsys, tmp_path):
    cur = tmp_path / "cur"
    _bench(cur, {"throughput": (50.0, "higher")})
    # Nonexistent baseline dir: usage error, not a traceback.
    assert _trend(tmp_path / "missing", cur) == 2
    assert "not a directory" in capsys.readouterr().err
    # Existing but empty baseline dir (no BENCH_*.json): same treatment.
    empty = tmp_path / "empty"
    empty.mkdir()
    assert _trend(empty, cur) == 2
    assert "no BENCH_" in capsys.readouterr().err


# ----------------------------------------------------------------------
# tune
# ----------------------------------------------------------------------
TUNE_BASE = [
    "tune", "--variant", "tampi_dataflow", "--preset", "laptop",
    "--nodes", "1", "--root", "2", "2", "2",
    "--nx", "4", "--num-vars", "2", "--tsteps", "1", "--stages", "2",
    "--checksum-freq", "2", "--max-refine-level", "1", "--no-cache",
    "--no-stats",
]


def test_tune_requires_exactly_one_source(capsys):
    assert main(TUNE_BASE) == 2
    assert "exactly one tune source" in capsys.readouterr().err
    assert main(TUNE_BASE + ["--fig4", "--tune-rpn", "1", "2"]) == 2
    assert "exactly one tune source" in capsys.readouterr().err


def test_tune_run_style_ranks_and_reports(capsys, tmp_path):
    spec_json = tmp_path / "tune-spec.json"
    report_json = tmp_path / "tune-report.json"
    rc = main(TUNE_BASE + [
        "--tune-variants", "mpi_only", "tampi_dataflow",
        "--json", str(report_json), "--spec-json", str(spec_json),
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "== tune:" in out
    assert "best vs baseline:" in out

    import json

    from repro.tune import TuneReport, TuneSpec

    tune = TuneSpec.from_dict(json.loads(spec_json.read_text()))
    assert tune.space == {"variant": ("mpi_only", "tampi_dataflow")}
    report = TuneReport.from_dict(json.loads(report_json.read_text()))
    assert report.fingerprint == tune.fingerprint()
    assert [e["rank"] for e in report.entries] == [1, 2]

    # The emitted spec re-runs through --file to the same report bytes.
    assert main(TUNE_BASE[:1] + [
        "--file", str(spec_json), "--no-cache", "--no-stats",
        "--json", str(tmp_path / "again.json"),
    ]) == 0
    capsys.readouterr()
    assert (tmp_path / "again.json").read_bytes() == (
        report_json.read_bytes()
    )


def test_tune_rejects_bad_axis_combination(capsys):
    rc = main(TUNE_BASE + ["--tune-rpn", "2", "2"])
    assert rc == 2
    assert "repeats" in capsys.readouterr().err
