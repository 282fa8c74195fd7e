"""The mini-apps carry I/O, not physics: the deleted names stay gone."""

import dataclasses
import importlib

import pytest

import repro.apps.scalasca
from repro.apps.mp2c import SimulationConfig
from repro.apps.mp2c.decomposition import DomainDecomposition
from repro.apps.mp2c.driver import SimulationResult
from repro.apps.mp2c.particles import ParticleState


@pytest.mark.parametrize(
    "module",
    [
        "repro.apps.mp2c.srd",
        "repro.apps.mp2c.md",
        "repro.apps.mp2c.observables",
        "repro.apps.scalasca.profile",
    ],
)
def test_deleted_module_cannot_be_imported(module):
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module(module)


def test_simulation_config_has_only_run_and_checkpoint_fields():
    assert [f.name for f in dataclasses.fields(SimulationConfig)] == [
        "particles_per_task",
        "box",
        "dt",
        "nsteps",
        "checkpoint_every",
        "checkpoint_path",
        "checkpoint_method",
        "checkpoint_nfiles",
        "seed",
    ]


def test_simulation_result_has_no_diagnostics():
    assert [f.name for f in dataclasses.fields(SimulationResult)] == [
        "state",
        "checkpoints_written",
        "steps_run",
    ]


def test_no_physics_or_dead_names_left():
    for cls, name in [
        (ParticleState, "momentum"),
        (ParticleState, "kinetic_energy"),
        (DomainDecomposition, "rank_of_coords"),
    ]:
        assert not hasattr(cls, name), f"{cls.__name__}.{name}"


def test_scalasca_exports_no_profiler():
    exported = repro.apps.scalasca.__all__
    assert not [n for n in exported if n.startswith("profile_") or n == "ProfileResult"]
    for name in exported:
        assert hasattr(repro.apps.scalasca, name)
