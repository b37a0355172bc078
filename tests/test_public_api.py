"""The public API surface: everything advertised must import and exist."""

import importlib
import importlib.util
from pathlib import Path

import pytest

import repro

PACKAGES = [
    "repro",
    "repro.analysis",
    "repro.api",
    "repro.cache",
    "repro.checkpoint",
    "repro.core",
    "repro.faults",
    "repro.interconnect",
    "repro.memory",
    "repro.obs",
    "repro.processors",
    "repro.protocols",
    "repro.runner",
    "repro.schema",
    "repro.sim",
    "repro.stats",
    "repro.system",
    "repro.verification",
    "repro.workloads",
]


@pytest.mark.parametrize("name", PACKAGES)
def test_package_all_entries_resolve(name):
    module = importlib.import_module(name)
    assert hasattr(module, "__all__"), name
    for entry in module.__all__:
        assert hasattr(module, entry), f"{name}.{entry} advertised but missing"


@pytest.mark.parametrize("name", PACKAGES)
def test_package_has_docstring(name):
    module = importlib.import_module(name)
    assert module.__doc__ and module.__doc__.strip(), name


def test_top_level_quickstart_names():
    for entry in (
        "MachineConfig",
        "DuboisBriggsWorkload",
        "Experiment",
        "ConfigError",
        "TwoBitDirectoryController",
        "GlobalState",
    ):
        assert hasattr(repro, entry)


def test_version_is_set():
    assert repro.__version__


def test_unknown_attribute_still_raises():
    with pytest.raises(AttributeError, match="no attribute"):
        repro.no_such_thing


def test_api_surface_matches_committed_snapshot():
    """Changing a public signature must come with a deliberate update of
    API_SURFACE.txt (see tools/api_surface.py)."""
    root = Path(__file__).resolve().parents[1]
    spec = importlib.util.spec_from_file_location(
        "api_surface", root / "tools" / "api_surface.py"
    )
    api_surface = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(api_surface)
    live = "\n".join(api_surface.surface_lines()) + "\n"
    committed = (root / "API_SURFACE.txt").read_text()
    assert live == committed, (
        "public API drifted; regenerate with "
        "`PYTHONPATH=src python tools/api_surface.py > API_SURFACE.txt` "
        "if the change is intentional"
    )


def test_public_classes_have_docstrings():
    undocumented = []
    for name in PACKAGES:
        module = importlib.import_module(name)
        for entry in module.__all__:
            obj = getattr(module, entry)
            if isinstance(obj, type) and not (obj.__doc__ or "").strip():
                undocumented.append(f"{name}.{entry}")
    assert not undocumented, undocumented
