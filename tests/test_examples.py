"""Smoke tests: every shipped example must run end to end.

Examples are executable documentation; these tests keep them from
rotting as the library evolves.  Each example's ``main()`` is invoked
in-process (they are all deterministic and self-verifying — most
contain their own asserts comparing distributed against direct
results).
"""

import importlib.util
import re
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"
BENCHMARKS_DIR = EXAMPLES_DIR.parent / "benchmarks"

EXAMPLES = (
    "quickstart",
    "sales_analytics",
    "photo_render_farm",
    "overnight_window",
    "it_log_audit",
    "fleet_planning",
)


def load_example(name: str):
    path = EXAMPLES_DIR / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"example_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", EXAMPLES)
def test_example_runs_to_completion(name, capsys):
    module = load_example(name)
    module.main()
    out = capsys.readouterr().out
    assert out.strip(), f"example {name} produced no output"


def test_examples_directory_is_fully_covered():
    """Every example file on disk is exercised by this test module."""
    on_disk = {
        path.stem for path in EXAMPLES_DIR.glob("*.py")
    }
    assert on_disk == set(EXAMPLES)


def test_benchmarks_readme_lists_every_bench():
    """The benchmarks README has one table row per bench file on disk."""
    on_disk = {path.name for path in BENCHMARKS_DIR.glob("test_bench_*.py")}
    readme = (BENCHMARKS_DIR / "README.md").read_text(encoding="utf-8")
    listed = set(re.findall(r"^\| `(test_bench_\w+\.py)` \|", readme, re.M))
    assert listed == on_disk
