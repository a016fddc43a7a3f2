"""Every ``repro`` module earns a caller.

A module stays if the CLI, an experiment driver, the server, the
campaign or a perfbench workload reaches it through imports, or if
:data:`ALLOWLIST` names it with the reason it stays.  The import graph
is read from the source with :mod:`ast`, nothing is imported:

* every ``import`` in a module is an edge, the lazy ones inside
  functions included; ``if TYPE_CHECKING:`` blocks never run, so
  their imports are not;
* ``from pkg import name`` leads to the submodule that defines
  ``name``, following package re-exports and lazy
  ``{"name": ".module"}`` export maps such as ``repro.verify``'s;
* a package ``__init__`` leads on only through the names its own code
  uses: re-exporting a name keeps no module alive.  Reaching a module
  runs its parent packages' ``__init__`` too.
"""

from __future__ import annotations

import ast
from functools import cache
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parent
PERFBENCH = SRC.parent.parent / "perfbench"

#: Modules no root reaches, each with the reason it stays.
ALLOWLIST = {
    "repro.__main__": "the `python -m repro` entry point",
    **{
        f"repro.runtime{suffix}": "runtime path of Figs. 7-9: task "
        "registry, executables, sandbox and packaging"
        for suffix in (
            "",
            ".executable",
            ".packager",
            ".registry",
            ".sandbox",
        )
    },
    "repro.sim.realrun": "runs real task executables on the simulated "
    "fleet (Figs. 7-9 runtime path)",
    **{
        f"repro.workloads.{name}": "task executable or input generator "
        "of the Figs. 7-9 runtime path"
        for name in (
            "datagen",
            "loganalysis",
            "maxint",
            "photoblur",
            "primes",
            "wordcount",
        )
    },
    "repro.core.availability": "availability-aware scheduling, kept "
    "until EXPERIMENTS.md's paired evidence decides it",
    "repro.profiling.forecast": "the unplug forecast that "
    "repro.core.availability schedules with",
    "repro.core.constraints": "RAM partition caps of the paper's "
    "footnote 4",
    "repro.power.plan": "per-phone power plan the overnight and "
    "fleet-planning examples use; no night draws battery levels yet",
}


def _module_name(path: Path) -> str:
    parts = path.relative_to(SRC.parent).with_suffix("").parts
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


MODULES = {
    _module_name(path): path for path in sorted(SRC.rglob("*.py"))
}


def _is_package(name: str) -> bool:
    return MODULES[name].name == "__init__.py"


@cache
def _tree(name: str) -> ast.Module:
    return ast.parse(MODULES[name].read_text(), filename=str(MODULES[name]))


def _is_type_checking(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.If)
        and isinstance(node.test, ast.Name)
        and node.test.id == "TYPE_CHECKING"
    )


def _import_nodes(node: ast.AST):
    """Every import statement under ``node`` that can run."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.Import, ast.ImportFrom)):
            yield child
        elif not _is_type_checking(child):
            yield from _import_nodes(child)


def _base_module(node: ast.ImportFrom, package: str | None) -> str:
    if not node.level:
        return node.module
    base = package.rsplit(".", node.level - 1)[0]
    return f"{base}.{node.module}" if node.module else base


def _package_of(name: str) -> str:
    return name if _is_package(name) else name.rpartition(".")[0]


def _imports(tree: ast.Module, package: str | None):
    """``(bound name, target module)`` for each ``repro`` import."""
    for node in _import_nodes(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "repro":
                    bound = alias.asname or alias.name.split(".")[0]
                    yield bound, alias.name
            continue
        base = _base_module(node, package)
        if base.split(".")[0] != "repro":
            continue
        for alias in node.names:
            yield alias.asname or alias.name, _resolve(base, alias.name)


@cache
def _exports(package: str) -> dict[str, tuple[str, str]]:
    """A package's re-exported names: ``{name: (module, its name)}``."""
    exports = {}
    tree = _tree(package)
    for node in _import_nodes(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            base = _base_module(node, package)
            for alias in node.names:
                exports[alias.asname or alias.name] = (base, alias.name)
    for node in tree.body:
        # A lazy export map: {"name": ".module", ...} at module level.
        value = getattr(node, "value", None)
        if isinstance(value, ast.Dict) and value.keys and all(
            isinstance(item, ast.Constant)
            and isinstance(item.value, str)
            for item in value.keys + value.values
        ):
            for key, module in zip(value.keys, value.values):
                if module.value.startswith("."):
                    exports[key.value] = (package + module.value, key.value)
    return exports


def _resolve(base: str, name: str) -> str:
    """The module that defines ``name`` as seen from ``base``."""
    if f"{base}.{name}" in MODULES:
        return f"{base}.{name}"
    if base in MODULES and _is_package(base) and name in _exports(base):
        return _resolve(*_exports(base)[name])
    return base


@cache
def _edges(name: str) -> frozenset[str]:
    imports = list(_imports(_tree(name), _package_of(name)))
    if _is_package(name):
        used = {
            node.id
            for node in ast.walk(_tree(name))
            if isinstance(node, ast.Name)
        }
        imports = [pair for pair in imports if pair[0] in used]
    return frozenset(target for _, target in imports if target in MODULES)


def _roots() -> set[str]:
    roots = {"repro.cli", "repro.sim.server", "repro.sim.campaign"}
    roots |= {name for name in MODULES if name.startswith("repro.experiments")}
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        roots |= {target for _, target in _imports(tree, None)}
    return roots


def reachable() -> set[str]:
    """Every module a root reaches, with the packages that hold it."""
    seen: set[str] = set()
    stack = sorted(_roots())
    while stack:
        name = stack.pop()
        if name in seen or name not in MODULES:
            continue
        seen.add(name)
        parent = name.rpartition(".")[0]
        stack.extend(_edges(name) | ({parent} if parent else set()))
    return seen


def test_every_module_is_reached_or_allowlisted():
    reached = reachable()
    unreached = sorted(set(MODULES) - reached - set(ALLOWLIST))
    assert not unreached, (
        f"modules with no caller from the CLI, an experiment, the server, "
        f"the campaign or perfbench: {unreached}; delete them, give them "
        f"a caller, or allowlist them with a reason"
    )


def test_allowlist_is_current():
    reached = reachable()
    gone = sorted(set(ALLOWLIST) - set(MODULES))
    assert not gone, f"allowlisted modules that no longer exist: {gone}"
    stale = sorted(set(ALLOWLIST) & reached)
    assert not stale, f"allowlisted modules that are reached: {stale}"


def test_graph_follows_package_code_and_lazy_exports():
    """The rules the graph rests on, on modules that exercise them."""
    # SchedulerConfig.build in the policies __init__ uses the policy.
    assert "repro.core.policies.sec" in _edges("repro.core.policies")
    # A bare re-export is no edge.
    assert "repro.analysis.costs" not in _edges("repro.analysis")
    # repro.verify's lazy map resolves to the defining submodule.
    assert _resolve("repro.verify", "run_tournament") == (
        "repro.verify.tournament"
    )
    # Re-exports resolve through the package to the defining module.
    assert _resolve("repro.core", "CwcScheduler") == "repro.core.greedy"
