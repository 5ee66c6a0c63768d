"""Front-door benchmark for ``repro``: one workload per run, one result line.

Run from the repository root::

    python3 perfbench/run.py --workload batch-small --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` makes the separate traced run that yields the per-layer
metrics.  Human-readable tables go to stdout first; the last line of
stdout is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  The workloads, metrics and their rationale are described
in ``perfbench/README.md``.

The benchmark imports the package from ``src/`` next to this directory
and nowhere else: without it, the run exits with code 2 before printing
a result.
"""

from __future__ import annotations

import time

#: Process start as the benchmark sees it: taken before any heavy import,
#: so ``setup_s`` covers importing numpy, scipy and ``repro``.
T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Callable  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: A run that has not printed its result by then is cut: shard workers are
#: killed, shared-memory segments unlinked, and every request not yet
#: resolved counts as failed.  Leaves margin under the 180 s run limit.
HARD_DEADLINE_S = 170.0

#: Printed in place of a non-finite metric (a latency percentile that
#: landed on an unresolved request), keeping the result line valid JSON.
UNRESOLVED_SENTINEL = 1e9


def _import_repro() -> None:
    """Import ``repro`` from this checkout's ``src/`` or exit with code 2."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: {SRC / 'repro'} not found; run from a repository checkout",
              file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import repro

    origin = Path(repro.__file__).resolve()
    if SRC not in origin.parents:
        print(f"perfbench: imported repro from {origin}, not from {SRC}", file=sys.stderr)
        raise SystemExit(2)
    # The front door loads these lazily on first use; import them here so
    # the one-off import cost lands in setup, not in the first timed call.
    import repro.api  # noqa: F401
    import repro.batch  # noqa: F401
    import repro.serve  # noqa: F401
    import repro.serve.shard  # noqa: F401


def _finite(value: float) -> float:
    return value if math.isfinite(value) else UNRESOLVED_SENTINEL


def result_line(correct: bool, attempted: int, failed: int,
                metrics: dict[str, tuple[float, str]]) -> str:
    """The machine-read result: the last line of stdout."""
    return json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            name: {"value": _finite(float(value)), "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }, allow_nan=False)


def print_table(title: str, metrics: dict[str, tuple[float, str]]) -> None:
    print(title)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<28} {value:>14.6g} {unit}")


class Watchdog:
    """Cuts a run that overruns :data:`HARD_DEADLINE_S`.

    On expiry the watchdog kills this process's children, unlinks its
    shared-memory segments, prints a failed result and exits: a
    deadlocked serving tier must not hang the benchmark.
    """

    def __init__(self, deadline_s: float, attempted: Callable[[], int]) -> None:
        self._attempted = attempted
        self._done = threading.Event()
        self._thread = threading.Thread(
            target=self._watch, args=(deadline_s,), name="perfbench-watchdog", daemon=True
        )
        self._thread.start()

    def _watch(self, deadline_s: float) -> None:
        if self._done.wait(max(0.0, deadline_s - (time.perf_counter() - T0))):
            return
        from hygiene import abandon

        attempted = max(1, self._attempted())
        print(f"perfbench: run cut at {HARD_DEADLINE_S:.0f} s", flush=True)
        abandon(result_line(False, attempted, attempted, {}))

    def stop(self) -> None:
        self._done.set()
        self._thread.join()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    _import_repro()
    import_s = time.perf_counter() - T0

    import hygiene
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]()
    watchdog = Watchdog(HARD_DEADLINE_S, lambda: workload.attempted)
    try:
        outcome = workload.run(seed=args.seed, seconds=args.seconds, traced=bool(args.trace),
                               import_s=import_s)
    except BaseException:
        hygiene.cleanup()
        raise
    for line in outcome.notes:
        print(line)
    print_table(f"[{args.workload}] seed={args.seed} trace={args.trace}", outcome.table)
    metrics = outcome.per_layer if args.trace else outcome.end_to_end
    line = result_line(outcome.correct, outcome.attempted, outcome.failed, metrics)
    if outcome.hung:
        hygiene.abandon(line)
    # Still under the watchdog: stopping the resource tracker waits for it.
    killed, unlinked = hygiene.cleanup()
    watchdog.stop()
    if killed or unlinked:
        print(f"hygiene: killed {killed} leftover child process(es), "
              f"unlinked {unlinked} leaked shm segment(s)")
    print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
