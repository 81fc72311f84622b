"""``repro serve`` with the bench's timing probes installed.

Usage (the bench launches it; ``E2E_SPANS_DIR`` names the dump directory)::

    E2E_SPANS_DIR=DIR python benchmarks/e2e/traced_serve.py serve --listen ...

Installs :mod:`e2e.probes` in this (front-end) process, swaps the
supervisor's spawn target for :func:`e2e.probes.traced_shard_entry` so
every shard process installs the same probes before serving, then runs
the real CLI.  Each process dumps its spans when it exits.
"""

from __future__ import annotations

import sys
from pathlib import Path

_HERE = Path(__file__).resolve().parent
# This directory's modules load as the ``e2e`` package (spawned shards
# inherit this sys.path); as top-level modules, trace.py would shadow
# the standard library's.
sys.path[:] = [str(_HERE.parent)] + [
    p for p in sys.path if Path(p or ".").resolve() != _HERE
]


def main(argv: list[str]) -> int:
    from e2e import probes

    probes.install("frontend")
    import repro.serve.supervisor
    from repro.cli import main as cli_main

    repro.serve.supervisor.shard_entry = probes.traced_shard_entry
    try:
        return cli_main(argv)
    finally:
        probes.dump()


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
