"""Every module and public name under ``src/repro/`` is used by
something that runs.

ROADMAP item 15: a module is reached from a figure or table of the
paper, a benchmark or the CLI, or it goes.  The check is a static import
graph — nothing under test is imported, and parsing the tree costs about
half a second.  Roots are ``repro.cli``, ``repro.smoke``,
``repro.__main__``, every ``repro.experiments.*`` module, and every file
under ``benchmarks/``.  Neither tests nor examples are roots: a module
only its own tests or an example import is dead weight.  The examples
run in CI so that they stay runnable, not to keep code alive.

A package ``__init__`` that only re-exports is looked *through*, never
followed: ``from repro.sim import Network`` reaches ``repro.sim.network``
and nothing else ``repro/sim/__init__.py`` lists.  A lazy table
(``__getattr__, __dir__ = _lazy_exports(globals(), {name: module})``) is
read exactly as a ``from module import name`` would be.  The same
holds for ``import repro.topology as T`` followed by ``T.fat_tree`` —
the attribute is resolved through the ``__init__`` when it is read off
the alias by name.  A module reached only through some other expression
(``get_package().name``) is reported unreached; import it by name.
"""

from __future__ import annotations

import ast
import re
from collections import Counter
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

#: Modules nothing runs but tests compare against, each with its reason.
#: None today (``flowsim.reference`` is reached from
#: ``experiments.bisection``).
REFERENCE_ONLY: dict[str, str] = {}

#: Public names that nothing which runs calls, kept because a test
#: asserts a paper claim through them or compares against them; each
#: with its reason.
KEPT_FOR_TESTS: dict[str, str] = {
    "repro.core.optical:ring_power_report":
        "its tests assert §3.3's power budget at M = 33",
    "repro.core.optical:max_unamplified_wdm_hops":
        "its test asserts §3.3's 3.17 → 3 unamplified hops",
    "repro.core.fault:degraded_mesh_topology":
        "§3.5's multi-hop claim (DESIGN.md §7)",
    "repro.core.fault:figure6_sweep":
        "Fig. 6's sweep, which ROADMAP item 12(c) reworks",
    "repro.analysis.latency:path_latency":
        "its tests assert Table 2's component stack",
    "repro.analysis.latency:end_to_end_latency":
        "its tests assert Table 2's component stack",
    "repro.core.serialization:plan_from_json":
        "the inverse through which tests round-trip the CLI's `plan --json`",
    "repro.topology.base:topologies_equal":
        "the oracle the cache tests compare cached and fresh fabrics with",
    "repro.sim.switch:register_model":
        "the switch-registry test registers a custom model through it",
    "repro.cache.store:reset":
        "the cache tests start each case from an empty cache with it",
    "repro.sim.parallel:boundary_links":
        "the sharding tests check the cut through it; it goes with ROADMAP item 2",
}


class _Tree:
    """The parsed ``repro`` package of one checkout."""

    def __init__(self, src: Path) -> None:
        self.modules: dict[str, ast.Module] = {}
        self.packages: set[str] = set()
        #: package -> its lazy table, name -> "module" or "module:attribute"
        self.lazy: dict[str, dict[str, str]] = {}
        for path in sorted((src / "repro").rglob("*.py")):
            parts = path.relative_to(src).with_suffix("").parts
            if parts[-1] == "__init__":
                parts = parts[:-1]
                self.packages.add(".".join(parts))
            self.modules[".".join(parts)] = ast.parse(path.read_text(), str(path))
        for package in self.packages:
            for node in self.modules[package].body:
                if (
                    isinstance(node, ast.Assign)
                    and isinstance(node.value, ast.Call)
                    and isinstance(node.value.func, ast.Name)
                    and node.value.func.id == "_lazy_exports"
                ):
                    self.lazy[package] = ast.literal_eval(node.value.args[1])

    def resolve(self, package: str, name: str) -> str:
        """The module that ``from package import name`` reads ``name`` from."""
        dotted = f"{package}.{name}"
        if dotted in self.modules:
            return dotted
        for node in self.modules[package].body:
            if isinstance(node, ast.ImportFrom) and node.module in self.modules:
                for alias in node.names:
                    if (alias.asname or alias.name) == name:
                        return self.target(node.module, alias.name)
        if name in self.lazy.get(package, {}):
            module, _, attribute = self.lazy[package][name].partition(":")
            return self.target(module, attribute or name)
        # Defined by the ``__init__`` itself: the package is the module.
        return package

    def target(self, module: str, name: str) -> str:
        return self.resolve(module, name) if module in self.packages else module

    def imports(self, tree: ast.AST) -> set[str]:
        """The ``repro`` modules the code in ``tree`` reads from."""
        found: set[str] = set()
        aliases: dict[str, str] = {}  # local name -> package it is bound to
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module in self.modules:
                for alias in node.names:
                    target = self.target(node.module, alias.name)
                    if target in self.packages and target != node.module:
                        aliases[alias.asname or alias.name] = target
                    else:
                        found.add(target)
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name in self.packages and alias.asname:
                        aliases[alias.asname] = alias.name
                    elif alias.name in self.modules:
                        found.add(alias.name)
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in aliases
            ):
                found.add(self.resolve(aliases[node.value.id], node.attr))
        return found


def unreached(repo: Path) -> list[str]:
    """Non-``__init__`` modules of ``repo``'s ``src/repro`` that no root reaches."""
    tree = _Tree(repo / "src")
    todo = [
        name
        for name in tree.modules
        if name in ("repro.cli", "repro.smoke", "repro.__main__")
        or name.startswith("repro.experiments.")
    ]
    for path in (repo / "benchmarks").rglob("*.py"):
        todo.extend(tree.imports(ast.parse(path.read_text(), str(path))))
    reached: set[str] = set()
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo.extend(tree.imports(tree.modules[name]))
    return sorted(set(tree.modules) - tree.packages - reached - set(REFERENCE_ONLY))


def test_every_module_is_reached_from_something_that_runs():
    assert unreached(REPO) == [], (
        "reached from no figure, benchmark or CLI command: delete the "
        "module, or import it by name from whatever runs it"
    )


def _used_text(path: Path) -> str:
    """The text of ``path`` that can use a name: all of it, except an
    ``__init__``'s imports, ``__all__`` and lazy table (re-exports are
    not uses; code that ``repro.obs`` or ``repro.cache`` runs is)."""
    text = path.read_text()
    if path.name != "__init__.py":
        return text
    return "\n".join(
        ast.get_source_segment(text, node)
        for node in ast.parse(text).body
        if not isinstance(node, (ast.Import, ast.ImportFrom))
        and not (
            isinstance(node, ast.Assign)
            and ast.unparse(node.targets[0]) in ("__all__", "(__getattr__, __dir__)")
        )
    )


def unused_names(repo: Path) -> list[str]:
    """``module:name`` for each public top-level ``def`` or ``class`` of a
    non-``__init__`` module under ``repo``'s ``src/repro`` whose name
    appears nowhere else: not again in its own module, and in no other
    file under ``src/`` or ``benchmarks/`` (``__init__`` re-exports
    aside).

    The rule is textual — a word match, comments and strings included —
    so it errs towards keeping a name, never towards deleting one.
    """
    words: dict[Path, Counter[str]] = {
        path: Counter(re.findall(r"\w+", _used_text(path)))
        for path in [*(repo / "src").rglob("*.py"), *(repo / "benchmarks").rglob("*.py")]
    }
    found = []
    for path in sorted((repo / "src" / "repro").rglob("*.py")):
        if path.name == "__init__.py":
            continue
        module = ".".join(path.relative_to(repo / "src").with_suffix("").parts)
        for node in ast.parse(path.read_text(), str(path)).body:
            if (
                isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                and not node.name.startswith("_")
                and words[path][node.name] == 1
                and not any(other[node.name] for p, other in words.items() if p != path)
            ):
                found.append(f"{module}:{node.name}")
    return found


def test_every_public_name_is_used_by_something_that_runs():
    assert all(reason.strip() for reason in KEPT_FOR_TESTS.values())
    assert sorted(unused_names(REPO)) == sorted(KEPT_FOR_TESTS), (
        "a public name only its own tests or an example call: delete it, or "
        "record in KEPT_FOR_TESTS the paper claim its tests assert through it"
    )



def test_a_lazy_table_entry_is_followed_as_a_from_import():
    tree = _Tree(REPO / "src")
    assert tree.lazy["repro.flowsim"]["ResidualSolver"] == "repro.flowsim.maxmin"
    found = tree.imports(ast.parse("from repro.flowsim import ResidualSolver"))
    assert found == {"repro.flowsim.maxmin"}
    renamed = tree.imports(ast.parse("from repro.experiments import HYBRID_FABRIC_BUILDERS"))
    assert renamed == {"repro.experiments.hybrid_scale"}
    aliased = tree.imports(ast.parse("import repro.topology as T\nT.fat_tree"))
    assert aliased == {"repro.topology.fattree"}
