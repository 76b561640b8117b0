"""Fresh-process probes, started by run.py one at a time.

    child.py setup                  time `import pretenders` + build_cascade()
    child.py setup-traced OUT       the same, traced, with import times split
    child.py cli-traced OUT ARGS..  pretenders.cli.main(ARGS) under the tracer

The traced modes write their metrics to OUT as JSON.  The package comes
from PYTHONPATH, which run.py points at the checkout's ``src``.
"""

import sys
import time


def _setup() -> int:
    t0 = time.perf_counter()
    import pretenders
    pretenders.build_cascade()
    print(time.perf_counter() - t0)
    return 0


def _setup_traced(out: str) -> int:
    t0 = time.perf_counter()
    import numpy  # noqa: F401  (timed apart from the package)
    t1 = time.perf_counter()
    import pretenders
    t2 = time.perf_counter()
    import json
    from tracing import Tracer
    tracer = Tracer()
    tracer.install()
    pretenders.build_cascade()
    metrics = tracer.metrics()
    metrics["import.numpy_s"] = t1 - t0
    metrics["import.pretenders_s"] = t2 - t1
    with open(out, "w") as fh:
        json.dump(metrics, fh)
    return 0


def _cli_traced(out: str, args: list[str]) -> int:
    import json
    import pretenders.cli
    from tracing import Tracer
    tracer = Tracer()
    tracer.install()
    code = pretenders.cli.main(args)
    sys.stdout.flush()
    with open(out, "w") as fh:
        json.dump(tracer.metrics(), fh)
    return code


def main(argv: list[str]) -> int:
    mode = argv[0] if argv else ""
    if mode == "setup":
        return _setup()
    if mode == "setup-traced":
        return _setup_traced(argv[1])
    if mode == "cli-traced":
        return _cli_traced(argv[1], argv[2:])
    print(f"child.py: unknown mode {mode!r}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
