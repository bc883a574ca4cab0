"""repro — a reproduction of "Quartz: A New Design Element for
Low-Latency DCNs" (Liu, Gao, Wong, Keshav; SIGCOMM 2014).

Quartz interconnects top-of-rack switches in a full logical mesh,
physically cabled as a WDM optical ring, to cut datacenter switching and
congestion latency.  This package implements the design element, every
substrate the paper evaluates it on, and the harnesses that regenerate
every table and figure of the paper's evaluation.

Subpackages
-----------
``repro.core``
    The Quartz element: ring configuration, wavelength assignment
    (greedy + exact ILP), optical power budget, multi-ring fault model.
``repro.topology``
    Topology generators (trees, fat-tree/Clos, BCube, Jellyfish, mesh,
    Quartz composites) and Table 9 metrics.
``repro.routing``
    ECMP, Valiant load balancing and k-shortest-paths routing.
``repro.sim``
    Packet-level discrete-event simulator with the paper's Table 16
    switch models.
``repro.flowsim``
    Flow-level max-min fair throughput evaluation (Figure 10).
``repro.workloads``
    Traffic matrices, scatter/gather tasks, and the prototype
    cross-traffic experiment.
``repro.cost``
    Price list, bills of materials, and the Table 8 configurator.
``repro.analysis``
    Component latency model (Tables 2/9) and queueing-theory validation.

Quickstart
----------
>>> from repro.core import QuartzRing
>>> ring = QuartzRing.from_switch_ports(64)   # the paper's 1056-port element
>>> ring.total_server_ports
1056
>>> ring.wavelengths_required <= 160          # fits one fibre's channel budget
True
"""

from __future__ import annotations

from importlib import import_module
from typing import Any, Callable

__version__ = "1.0.0"

__all__ = ["QuartzRing", "__version__"]


def _lazy_exports(
    namespace: dict[str, Any], table: dict[str, str]
) -> tuple[Callable[[str], Any], Callable[[], list[str]]]:
    """The PEP 562 ``__getattr__`` and ``__dir__`` of a package whose
    re-exports are ``table``: ``{name: module}``, or
    ``{name: "module:attribute"}`` for a renamed one.

    The first read of a name imports its module and stores the value in
    the package's globals, so a process compiles only the modules it
    reads.  A name that is also a submodule of its package must be
    imported eagerly instead (two today: ``repro.topology.jellyfish``
    and ``repro.topology.bcube``): importing the submodule from anywhere
    binds the *module* to the package attribute, and ``__getattr__`` is
    then never asked.
    """
    package = namespace["__name__"]

    def __getattr__(name: str) -> Any:
        try:
            module, _, attribute = table[name].partition(":")
        except KeyError:
            raise AttributeError(f"module {package!r} has no attribute {name!r}") from None
        value = namespace[name] = getattr(import_module(module), attribute or name)
        return value

    def __dir__() -> list[str]:
        return sorted({*namespace, *table})

    return __getattr__, __dir__


__getattr__, __dir__ = _lazy_exports(globals(), {"QuartzRing": "repro.core.ring"})
