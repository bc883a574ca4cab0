"""Package imports: lazy re-exports and the import footprint.

Every package ``__init__`` re-exports through a lazy table
(``repro._lazy_exports``), so a process compiles only the modules it
reads.  Two things can go wrong, and each check runs in a fresh
interpreter, where import order is the one the check sets:

* a re-exported name that is also a submodule (``repro.topology.jellyfish``)
  reads as the *module* once anything has imported the submodule;
* an eager import creeps back in and every process pays for it again.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


def _run(script: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, "-c", script, *args], env=env, capture_output=True,
        text=True, timeout=120,
    )


def reexports() -> dict[str, dict[str, list[str]]]:
    """package -> ``__all__`` name -> [module, attribute] it is read from.

    Read from each ``__init__``'s source: its ``from`` imports and its
    lazy table; a name the ``__init__`` defines itself is its own.
    """
    found = {}
    for init in sorted((SRC / "repro").rglob("__init__.py")):
        package = ".".join(init.parent.relative_to(SRC).parts)
        sources: dict[str, list[str]] = {}
        exported: list[str] = []
        for node in ast.parse(init.read_text()).body:
            if isinstance(node, ast.ImportFrom) and node.module.startswith("repro"):
                for alias in node.names:
                    sources[alias.asname or alias.name] = [node.module, alias.name]
            elif (
                isinstance(node, ast.Assign)
                and isinstance(node.value, ast.Call)
                and node.value.func.id == "_lazy_exports"
            ):
                for name, source in ast.literal_eval(node.value.args[1]).items():
                    module, _, attribute = source.partition(":")
                    sources[name] = [module, attribute or name]
            elif isinstance(node, ast.Assign) and node.targets[0].id == "__all__":
                exported = ast.literal_eval(node.value)
        found[package] = {name: sources.get(name, [package, name]) for name in exported}
    return found


_CHECK = """
import importlib, json, pkgutil, sys
expected = json.loads(sys.argv[1])
if sys.argv[2] == "submodules first":
    import repro
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name != "repro.__main__":
            importlib.import_module(info.name)
wrong = []
for package, names in expected.items():
    pkg = importlib.import_module(package)
    missing = sorted(set(names) - set(dir(pkg)))
    if missing:
        wrong.append(f"dir({package}) lacks {missing}")
    for name, (module, attribute) in names.items():
        value = getattr(pkg, name)
        if value is not getattr(importlib.import_module(module), attribute):
            wrong.append(f"{package}.{name} is {value!r}, not {module}.{attribute}")
print(json.dumps(wrong))
"""


@pytest.mark.parametrize("order", ["names first", "submodules first"])
def test_every_reexport_is_the_object_its_module_defines(order):
    """Read every ``__all__`` name off its package — before any
    submodule is imported, or after every one is — and it is the object
    its source module defines; ``dir(package)`` lists it.  With
    ``jellyfish`` or ``bcube`` made lazy, the submodules-first order
    reads a module."""
    done = _run(_CHECK, json.dumps(reexports()), order)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == []


def test_the_source_map_covers_every_package():
    found = reexports()
    assert found["repro.topology"]["jellyfish"] == ["repro.topology.jellyfish", "jellyfish"]
    assert found["repro.experiments"]["HYBRID_FABRIC_BUILDERS"] == [
        "repro.experiments.hybrid_scale", "FABRIC_BUILDERS",
    ]
    assert found["repro.obs"]["arm"] == ["repro.obs", "arm"]
    assert "repro.sim" in found and all(found.values())


#: What no process that only builds and runs a network should load.
HEAVY = (
    "repro.sim.parallel", "repro.experiments", "repro.flowsim", "repro.telemetry",
    "concurrent.futures", "multiprocessing", "subprocess",
)


@pytest.mark.parametrize("statements, heavy", [
    (
        "import repro\nfrom repro.sim import Network, PoissonSource\nimport repro.topology",
        HEAVY,
    ),
    # The benchmark harness's own imports: the sharded runner and run
    # manifests load no pool, no git call and no telemetry until one is
    # used.
    (
        "import repro.sim.parallel\nimport repro.obs.report\n"
        "repro.obs.report.resolved_knobs()",
        ("repro.telemetry", "concurrent.futures", "multiprocessing", "subprocess"),
    ),
])
def test_the_import_footprint_is_pinned(statements, heavy):
    script = (
        "import json, sys\n"
        "before = set(sys.modules)\n"
        f"{statements}\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))\n"
    )
    done = _run(script)
    assert done.returncode == 0, done.stderr
    loaded = json.loads(done.stdout)
    assert [m for m in loaded if m.split(".")[0] == "repro"], loaded
    assert [
        m for m in loaded if any(m == h or m.startswith(h + ".") for h in heavy)
    ] == []
