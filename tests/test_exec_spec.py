"""RunSpec: serialization, fingerprinting, default resolution, shim."""

import dataclasses
import hashlib
import json
from pathlib import Path

import pytest

from repro import (
    AmrConfig,
    MachineSpec,
    RunSpec,
    __version__,
    laptop,
    marenostrum4,
    run_simulation,
    sphere,
)
from repro.core import DEFAULT_HYBRID_RPN, resolve_ranks_per_node
from repro.faults import noise_plan
from repro.verify.goldens import golden_key


def small_config(**overrides):
    kwargs = dict(
        npx=2, npy=1, npz=1, init_x=1, init_y=2, init_z=2,
        nx=4, ny=4, nz=4, num_vars=2, num_tsteps=1, stages_per_ts=2,
        refine_freq=1, checksum_freq=2, max_refine_level=1,
        payload="synthetic",
        objects=(sphere(center=(0.3, 0.3, 0.3), radius=0.25,
                        move=(0.05, 0.0, 0.0)),),
    )
    kwargs.update(overrides)
    return AmrConfig(**kwargs)


def base_spec(**overrides):
    kwargs = dict(
        config=small_config(),
        machine="laptop",
        variant="tampi_dataflow",
        num_nodes=1,
        ranks_per_node=2,
    )
    kwargs.update(overrides)
    return RunSpec(**kwargs)


# ----------------------------------------------------------------------
# Round trips
# ----------------------------------------------------------------------
def test_to_from_dict_round_trip():
    spec = base_spec()
    assert RunSpec.from_dict(spec.to_dict()) == spec


def test_json_round_trip_through_text():
    spec = base_spec(cost_overrides={"noise_amplitude": 0.0},
                     stage_barrier=True, delayed_checksum=False)
    blob = json.dumps(spec.to_dict())
    assert RunSpec.from_dict(json.loads(blob)) == spec


def test_explicit_machine_spec_round_trips():
    spec = base_spec(machine=laptop())
    again = RunSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
    assert isinstance(again.machine, MachineSpec)
    assert again == spec


# ----------------------------------------------------------------------
# Fingerprints
# ----------------------------------------------------------------------
def test_fingerprint_is_deterministic():
    assert base_spec().fingerprint() == base_spec().fingerprint()


def test_fingerprint_survives_serialization():
    spec = base_spec()
    again = RunSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
    assert again.fingerprint() == spec.fingerprint()


def test_fingerprint_equal_for_preset_name_and_expanded_spec():
    assert (
        base_spec(machine="laptop").fingerprint()
        == base_spec(machine=laptop()).fingerprint()
    )


def test_fingerprint_equal_for_implicit_and_explicit_default_rpn():
    implicit = base_spec(ranks_per_node=None)
    explicit = base_spec(ranks_per_node=DEFAULT_HYBRID_RPN)
    assert implicit.fingerprint() == explicit.fingerprint()


@pytest.mark.parametrize(
    "change",
    [
        {"variant": "fork_join"},
        {"num_nodes": 2},
        {"ranks_per_node": 4},
        {"scheduler": "fifo"},
        {"scheduler": "fuzz", "sched_seed": 3},
        {"check_access": True},
        {"delayed_checksum": False},
        {"stage_barrier": True},
        {"cost_overrides": {"noise_amplitude": 0.0}},
        {"trace": True},
        {"machine": "marenostrum4"},
    ],
)
def test_fingerprint_sensitive_to_every_field(change):
    assert (
        dataclasses.replace(base_spec(), **change).fingerprint()
        != base_spec().fingerprint()
    )


def test_fingerprint_sensitive_to_config_changes():
    changed = base_spec(config=small_config(num_tsteps=2))
    assert changed.fingerprint() != base_spec().fingerprint()


def _canonical(d):
    return json.dumps(d, sort_keys=True, separators=(",", ":"),
                      allow_nan=False)


def _asdict_reference(spec):
    """``spec.to_dict()`` as ``dataclasses.asdict`` serializes its config
    and machine (the reference the shallow serializer must match)."""
    d = spec.to_dict()
    d["config"] = json.loads(_canonical(dataclasses.asdict(spec.config)))
    if not isinstance(spec.machine, str):
        d["machine"] = json.loads(_canonical(dataclasses.asdict(spec.machine)))
    return d


def _golden_specs():
    root = Path(__file__).resolve().parents[1] / "goldens"
    return [json.loads(p.read_text()) for p in sorted(root.glob("*.json"))]


@pytest.mark.parametrize("golden", _golden_specs(), ids=lambda g: g["name"])
def test_golden_specs_serialize_to_their_committed_keys(golden):
    spec = RunSpec.from_dict(golden["spec"])
    assert _canonical(spec.to_dict()) == _canonical(golden["spec"])
    assert golden_key(spec) == golden["key"]


@pytest.mark.parametrize("overrides", [
    {},
    {"cost_overrides": {"numa_penalty": 1.0}},
    {"faults": noise_plan(seed=7)},
    {"pdes_workers": 2, "pdes_partition": "contiguous"},
    {"profile": True},
    {"trace": True},
    {"machine": laptop()},
], ids=["plain", "cost", "faults", "pdes", "profile", "trace", "machine"])
def test_shallow_serialization_matches_asdict(overrides):
    spec = base_spec(**overrides)
    for form in (spec, spec.resolve()):
        assert _canonical(form.to_dict()) == _canonical(
            _asdict_reference(form)
        )
    blob = _canonical({"version": __version__,
                       "spec": _asdict_reference(spec.resolve())})
    assert spec.fingerprint() == hashlib.sha256(blob.encode()).hexdigest()


def test_mutating_a_spec_dict_leaves_the_spec_unchanged():
    spec = base_spec(machine=laptop(), cost_overrides={"numa_penalty": 1.0},
                     faults=noise_plan(seed=7))
    before = _canonical(spec.to_dict())
    d = spec.to_dict()
    d["config"]["nx"] = 99
    d["config"]["objects"][0]["center"][0] = 0.9
    d["machine"]["cost"]["numa_penalty"] = 9.0
    d["cost_overrides"]["numa_penalty"] = 9.0
    d["faults"]["straggler_ranks"].append(1)
    assert _canonical(spec.to_dict()) == before


# ----------------------------------------------------------------------
# Validation
# ----------------------------------------------------------------------
def test_unknown_scheduler_rejected_with_clear_error():
    with pytest.raises(ValueError, match="unknown scheduler 'wfq'"):
        base_spec(scheduler="wfq")


def test_scheduler_error_names_the_valid_choices():
    from repro.tasking.runtime import SCHEDULERS

    with pytest.raises(ValueError) as exc:
        base_spec(scheduler="nope")
    for name in SCHEDULERS:
        assert name in str(exc.value)


def test_negative_sched_seed_rejected():
    with pytest.raises(ValueError, match="sched_seed"):
        base_spec(sched_seed=-1)


def test_sched_seed_and_check_access_round_trip():
    spec = base_spec(scheduler="fuzz", sched_seed=11, check_access=True)
    again = RunSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
    assert again == spec
    assert again.sched_seed == 11 and again.check_access is True


def test_cost_overrides_fold_into_resolved_machine():
    """Overrides applied by hand must hit the same cache entry."""
    via_override = base_spec(cost_overrides={"noise_amplitude": 0.0})
    hand_built = laptop()
    hand_built = MachineSpec(
        node=hand_built.node,
        network=hand_built.network,
        cost=hand_built.cost.with_overrides(noise_amplitude=0.0),
        name=hand_built.name,
    )
    assert (
        via_override.fingerprint()
        == base_spec(machine=hand_built).fingerprint()
    )


# ----------------------------------------------------------------------
# Resolution (single source of truth for defaults)
# ----------------------------------------------------------------------
def test_default_rpn_mpi_only_fills_the_node():
    spec = RunSpec(
        config=small_config(npx=48, init_x=1, init_y=1, init_z=1),
        machine="marenostrum4", variant="mpi_only",
    )
    assert spec.resolve().ranks_per_node == 48


def test_default_rpn_hybrids_use_paper_value():
    for variant in ("fork_join", "tampi_dataflow"):
        assert resolve_ranks_per_node(variant, marenostrum4()) == 4


def test_resolve_is_idempotent():
    resolved = base_spec(ranks_per_node=None).resolve()
    assert resolved.resolve() == resolved
    assert isinstance(resolved.machine, MachineSpec)


# ----------------------------------------------------------------------
# Validation
# ----------------------------------------------------------------------
def test_rejects_unknown_variant():
    with pytest.raises(ValueError, match="variant"):
        base_spec(variant="nope")


def test_rejects_unknown_cost_override():
    with pytest.raises(ValueError, match="cost_overrides"):
        base_spec(cost_overrides={"not_a_field": 1.0})


def test_rejects_unknown_preset():
    with pytest.raises(KeyError, match="preset"):
        base_spec(machine="cray").machine_spec()


# ----------------------------------------------------------------------
# run_simulation accepts exactly one RunSpec
# ----------------------------------------------------------------------
def test_spec_form_does_not_warn():
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        run_simulation(base_spec())


def test_non_spec_argument_raises_type_error():
    with pytest.raises(TypeError, match="single RunSpec"):
        run_simulation(small_config())
    with pytest.raises(TypeError, match="single RunSpec"):
        run_simulation(small_config(), laptop(), variant="tampi_dataflow")


def test_spec_form_rejects_extra_arguments():
    with pytest.raises(TypeError, match="no further arguments"):
        run_simulation(base_spec(), laptop())
