"""Nothing in the environment arms the simulator or selects its path.

``src/`` reads exactly two variables: ``REPRO_WORKERS``, the worker-pool
size, and ``GITHUB_SHA``, a run manifest's commit id in CI.  Neither
changes a result.  An observation layer is armed by its caller —
``Network(telemetry=True)`` or ``obs.arm()`` — so an armed run and a
disarmed one are told apart by the code, and no test has to defend
itself against an armed environment.  A new environment switch fails
here until this list changes on purpose.
"""

import re
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

#: The variables ``src/`` may read.
ALLOWED = {"REPRO_WORKERS", "GITHUB_SHA"}

READ = re.compile(r"os\.environ|environ\.get|getenv")
NAMED = re.compile(r"""(?:environ\.get|environ|getenv)\s*[(\[]\s*["']([A-Za-z0-9_]+)["']""")


def environment_reads():
    """``(where, variable name or None)`` for every line of ``src/`` that
    reads the environment; ``None`` when the name is not a literal."""
    reads = []
    for path in sorted(SRC.rglob("*.py")):
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            if READ.search(line):
                where = f"{path.relative_to(SRC)}:{lineno}"
                names = NAMED.findall(line)
                reads.extend((where, name) for name in names or [None])
    return reads


def test_src_reads_only_the_worker_count_and_the_commit():
    reads = environment_reads()
    assert [where for where, name in reads if name is None] == []
    assert {name for _, name in reads} == ALLOWED
