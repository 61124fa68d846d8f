"""Fresh processes the benchmark starts.

    python bench/child.py setup <workload> <seed>
        Prints the seconds from before ``import avnsim`` until the
        workload is set up: the set-up a new process pays.

    python bench/child.py cli <spans.json> <avnsim arguments...>
        Runs one CLI request like ``python -m avnsim``, with the tracer
        installed, and writes its spans and import time to spans.json.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def main(argv: list[str]) -> int:
    mode, target, rest = argv[0], argv[1], argv[2:]
    start = time.perf_counter()
    import avnsim  # noqa: F401  (timed: the import every request pays)

    import_s = time.perf_counter() - start
    if mode == "setup":
        import workloads

        workloads.make(target).setup(int(rest[0]))
        print(repr(time.perf_counter() - start))
        return 0

    import layers
    import tracer
    from avnsim import cli

    spans = tracer.Tracer()
    spans.install(layers.TRACED)
    try:
        with spans.span("request"):
            code = cli.main(rest)
    finally:
        spans.uninstall()
        with open(target, "w", encoding="utf-8") as fh:
            json.dump({"import_s": import_s, "trace": spans.dump()}, fh, separators=(",", ":"))
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
