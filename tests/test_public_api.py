"""Public-API sanity: every exported name exists and is documented.

Guards against drift between ``__all__`` lists and module contents, and
enforces the documentation bar the repository sets for itself: every
public module, class, and function carries a docstring.
"""

import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro

PACKAGES = (
    "repro",
    "repro.core",
    "repro.sim",
    "repro.netmodel",
    "repro.power",
    "repro.runtime",
    "repro.workloads",
    "repro.profiling",
    "repro.analysis",
    "repro.experiments",
    "repro.verify",
)

MODULES = (
    "repro.cli",
    "repro.core.model",
    "repro.core.instance",
    "repro.core.prediction",
    "repro.core.packing",
    "repro.core.capacity",
    "repro.core.greedy",
    "repro.core.baselines",
    "repro.core.lp_bound",
    "repro.core.schedule",
    "repro.core.migration",
    "repro.core.constraints",
    "repro.core.availability",
    "repro.core.whatif",
    "repro.core.serialize",
    "repro.sim.engine",
    "repro.sim.entities",
    "repro.sim.server",
    "repro.sim.keepalive",
    "repro.sim.failures",
    "repro.sim.chaos",
    "repro.sim.trace",
    "repro.sim.realrun",
    "repro.sim.campaign",
    "repro.netmodel.links",
    "repro.netmodel.measurement",
    "repro.netmodel.variability",
    "repro.power.battery",
    "repro.power.charging",
    "repro.power.throttle",
    "repro.power.plan",
    "repro.runtime.registry",
    "repro.runtime.executable",
    "repro.runtime.sandbox",
    "repro.workloads.primes",
    "repro.workloads.wordcount",
    "repro.workloads.photoblur",
    "repro.workloads.maxint",
    "repro.workloads.loganalysis",
    "repro.workloads.datagen",
    "repro.workloads.arrivals",
    "repro.workloads.mixes",
    "repro.profiling.behavior",
    "repro.profiling.logs",
    "repro.profiling.analysis",
    "repro.profiling.forecast",
    "repro.profiling.coremark",
    "repro.analysis.stats",
    "repro.analysis.costs",
    "repro.analysis.tables",
    "repro.analysis.gantt",
    "repro.verify.invariants",
    "repro.verify.oracle",
    "repro.verify.differential",
    "repro.verify.fuzz",
)


@pytest.mark.parametrize("name", PACKAGES + MODULES)
def test_module_imports_and_has_docstring(name):
    module = importlib.import_module(name)
    assert module.__doc__ and module.__doc__.strip(), f"{name} lacks a docstring"


#: Every ``repro.<subpackage>``, discovered so a new one is covered too.
SUBPACKAGES = tuple(
    f"repro.{info.name}"
    for info in pkgutil.iter_modules(repro.__path__)
    if info.ispkg
)


@pytest.mark.parametrize("name", SUBPACKAGES)
def test_subpackage_imports_in_fresh_interpreter(name):
    """Each subpackage imports first, with no import cycle.

    In-process imports cannot see a cycle once another test has loaded
    ``repro.core``, so each import runs in its own interpreter.
    """
    src = str(Path(repro.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    completed = subprocess.run(
        [sys.executable, "-c", f"import {name}"],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr


@pytest.mark.parametrize("name", PACKAGES + MODULES)
def test_all_exports_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", None)
    if exported is None:
        return
    for symbol in exported:
        assert hasattr(module, symbol), f"{name}.__all__ lists missing {symbol!r}"


@pytest.mark.parametrize("name", MODULES)
def test_public_classes_and_functions_documented(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    for symbol in exported:
        obj = getattr(module, symbol)
        if inspect.isclass(obj) or inspect.isfunction(obj):
            assert (
                obj.__doc__ and obj.__doc__.strip()
            ), f"{name}.{symbol} lacks a docstring"


def test_packages_reexport_consistently():
    """Spot-check that package-level names match their home modules."""
    import repro.core
    import repro.core.greedy

    assert repro.core.CwcScheduler is repro.core.greedy.CwcScheduler
