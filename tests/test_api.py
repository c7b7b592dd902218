"""Public-API quality gates.

These tests enforce the library's packaging deliverables: every public
module, class, and function is exported deliberately (``__all__``),
importable, and documented.
"""

import importlib
import inspect

import pytest

import repro

PUBLIC_MODULES = [
    "repro",
    "repro.battery",
    "repro.cli",
    "repro.constants",
    "repro.core",
    "repro.energy",
    "repro.exceptions",
    "repro.experiments",
    "repro.lora",
    "repro.sim",
]

SUBMODULES = [
    "repro.battery.battery",
    "repro.battery.constants",
    "repro.battery.degradation",
    "repro.battery.rainflow",
    "repro.battery.soc_trace",
    "repro.core.centralized",
    "repro.core.degradation_service",
    "repro.core.dif",
    "repro.core.estimators",
    "repro.core.mac",
    "repro.core.utility",
    "repro.core.window_selection",
    "repro.energy.forecast",
    "repro.energy.harvester",
    "repro.energy.solar",
    "repro.energy.storage",
    "repro.energy.switch",
    "repro.experiments.figures",
    "repro.experiments.overhead",
    "repro.experiments.report",
    "repro.experiments.scenarios",
    "repro.experiments.statistics",
    "repro.lora.channels",
    "repro.lora.collision",
    "repro.lora.frames",
    "repro.lora.link",
    "repro.lora.params",
    "repro.lora.phy",
    "repro.sim.config",
    "repro.sim.engine",
    "repro.sim.events",
    "repro.sim.gateway",
    "repro.sim.mesoscopic",
    "repro.sim.metrics",
    "repro.sim.node",
    "repro.sim.server",
    "repro.sim.topology",
]


@pytest.mark.parametrize("module_name", PUBLIC_MODULES + SUBMODULES)
def test_module_importable_and_documented(module_name):
    module = importlib.import_module(module_name)
    assert module.__doc__, f"{module_name} lacks a module docstring"
    assert len(module.__doc__.strip()) > 20


@pytest.mark.parametrize(
    "package_name",
    ["repro", "repro.battery", "repro.core", "repro.energy", "repro.lora",
     "repro.sim", "repro.experiments"],
)
def test_all_exports_resolve(package_name):
    package = importlib.import_module(package_name)
    assert hasattr(package, "__all__")
    for name in package.__all__:
        assert hasattr(package, name), f"{package_name}.{name} missing"


def _public_members(package):
    for name in package.__all__:
        member = getattr(package, name)
        if inspect.isclass(member) or inspect.isfunction(member):
            yield name, member


@pytest.mark.parametrize(
    "package_name",
    ["repro.battery", "repro.core", "repro.energy", "repro.lora",
     "repro.sim", "repro.experiments"],
)
def test_public_classes_and_functions_documented(package_name):
    package = importlib.import_module(package_name)
    undocumented = [
        name
        for name, member in _public_members(package)
        if not (member.__doc__ and member.__doc__.strip())
    ]
    assert not undocumented, f"undocumented exports: {undocumented}"


@pytest.mark.parametrize(
    "package_name",
    ["repro.battery", "repro.core", "repro.energy", "repro.lora", "repro.sim"],
)
def test_public_methods_documented(package_name):
    """Every public method of every exported class carries a docstring."""
    package = importlib.import_module(package_name)
    missing = []
    for name, member in _public_members(package):
        if not inspect.isclass(member):
            continue
        for attr_name, attr in vars(member).items():
            if attr_name.startswith("_"):
                continue
            func = getattr(attr, "__func__", attr)
            if inspect.isfunction(func) and not (func.__doc__ or "").strip():
                missing.append(f"{name}.{attr_name}")
            if isinstance(attr, property):
                getter = attr.fget
                if getter is not None and not (getter.__doc__ or "").strip():
                    # Properties may inherit meaning from the attribute
                    # docs; require at least a one-liner.
                    missing.append(f"{name}.{attr_name}")
    assert not missing, f"undocumented public methods: {missing}"


def test_version_exposed():
    assert repro.__version__ == "1.0.0"


def test_exception_hierarchy_rooted():
    from repro.exceptions import (
        BatteryError,
        ConfigurationError,
        ProtocolError,
        ReproError,
        SimulationError,
    )

    for error in (BatteryError, ConfigurationError, ProtocolError, SimulationError):
        assert issubclass(error, ReproError)
