"""Compare archived perf trajectories and flag throughput regressions.

CI uploads ``benchmarks/_results/E2x.json`` artifacts on every run; this
script diffs the current results against a baseline directory (a
previous run's downloaded artifact) and warns when any scenario's
sustained ``instances_per_sec`` drops by more than the threshold
(default 20%). Payloads carrying a ``"spans"`` metric snapshot (the
traced E24/E26 smokes) are diffed too: a span phase whose p99 duration
*grew* past the same threshold warns — a per-phase localization of the
regression the rate diff only shows in aggregate. When both directories
carry an ``analysis_report.json`` (the ``make analyze`` artifact), the
per-rule finding counts are diffed as well: growth warns, because the
lint gate already fails on unsuppressed findings, so growth means
suppressed debt accumulating. Warnings are advisory — shared runners
are not clocks — so the exit code is 0 unless ``--strict`` is passed.

Usage::

    python benchmarks/compare_results.py --baseline /path/to/old/_results
    python benchmarks/compare_results.py --baseline old/ --current new/ \
        --threshold 0.2 --strict E23 E24 E26
"""

from __future__ import annotations

import argparse
import json
import os
import sys

#: Experiments whose payloads carry a throughput trajectory (or, for
#: E27, a scenario-matrix row list).
DEFAULT_EXPERIMENTS = ("E23", "E24", "E25", "E26", "E27")
DEFAULT_THRESHOLD = 0.2

#: Trajectory keys that identify a scenario row, in precedence order.
_SCENARIO_KEYS = ("scenario", "family", "label", "name")

#: Secondary keys that split one scenario into distinct cells — the
#: matrix-shaped artifacts (E27) key cells by execution regime too.
#: Baselines that still carry a ``flush_deadline`` column key without it.
_CELL_KEYS = ("model", "backend", "offered_load", "shards")


def _scenario_key(row: dict) -> str:
    """A stable identity for one trajectory/matrix row across runs."""
    parts = [str(row[k]) for k in _SCENARIO_KEYS if k in row]
    for extra in _CELL_KEYS:
        if extra in row:
            parts.append(f"{extra}={row[extra]}")
    return "|".join(parts) if parts else "<unlabelled>"


def extract_rates(payload: dict) -> dict[str, float]:
    """Map scenario key → instances/sec for every trajectory/matrix row.

    Reads ``payload["trajectory"]`` (the serving benches) and
    ``payload["matrix"]`` (the scenario-matrix artifact) with one key
    scheme, so a matrix cell that slows down across commits warns just
    like a serving scenario.
    """
    rates: dict[str, float] = {}
    for row in list(payload.get("trajectory", [])) + list(payload.get("matrix", [])):
        rate = row.get("instances_per_sec")
        if isinstance(rate, (int, float)) and rate > 0:
            rates[_scenario_key(row)] = float(rate)
    return rates


def extract_fills(payload: dict) -> dict[str, float]:
    """Map scenario key → batch-fill ratio for rows that carry one.

    Fill is a higher-is-better column (1.0 = the packer always filled
    the stacked tensor): a *drop* past the threshold warns, because it
    means the serving tier started fragmenting batches it used to
    fill.  Reads ``batch_fill_ratio`` (the serving trajectories).
    """
    fills: dict[str, float] = {}
    for row in list(payload.get("trajectory", [])) + list(payload.get("matrix", [])):
        fill = row.get("batch_fill_ratio")
        if isinstance(fill, (int, float)) and fill > 0:
            fills[f"{_scenario_key(row)}|batch_fill_ratio"] = float(fill)
    return fills


def extract_span_p99s(payload: dict) -> dict[str, float]:
    """Map span phase name → p99 seconds from a ``"spans"`` summary.

    The traced E24/E26 smokes merge ``{"spans": {name: {count, p50_s,
    p99_s}}}`` into their artifacts; phases with a non-positive or
    missing p99 are skipped (nothing meaningful to diff).
    """
    p99s: dict[str, float] = {}
    for name, summary in (payload.get("spans") or {}).items():
        if not isinstance(summary, dict):
            continue
        p99 = summary.get("p99_s")
        if isinstance(p99, (int, float)) and p99 > 0:
            p99s[str(name)] = float(p99)
    return p99s


def compare_payloads(
    baseline: dict, current: dict, threshold: float = DEFAULT_THRESHOLD
) -> list[str]:
    """Warnings for every scenario whose rate regressed past the threshold."""
    base_rates = extract_rates(baseline)
    cur_rates = extract_rates(current)
    warnings = []
    for key, base in sorted(base_rates.items()):
        cur = cur_rates.get(key)
        if cur is None:
            warnings.append(f"scenario missing from current run: {key}")
        elif cur < (1.0 - threshold) * base:
            drop = 100.0 * (1.0 - cur / base)
            warnings.append(
                f"throughput regression {drop:.0f}% in {key}: "
                f"{base:.0f}/s -> {cur:.0f}/s"
            )
    # Fill ratios are higher-is-better like rates: a drop past the
    # threshold warns.  A column missing from the current run is not
    # flagged — older baselines predate it.
    base_fills = extract_fills(baseline)
    cur_fills = extract_fills(current)
    for key, base in sorted(base_fills.items()):
        cur = cur_fills.get(key)
        if cur is not None and cur < (1.0 - threshold) * base:
            drop = 100.0 * (1.0 - cur / base)
            warnings.append(
                f"fill-ratio regression {drop:.0f}% in {key}: "
                f"{base:.2f} -> {cur:.2f}"
            )
    # Span-phase durations regress the other way: growth is bad.  Same
    # threshold, same advisory character.  A phase missing from the
    # current run is not flagged — traced smokes are optional per run.
    base_spans = extract_span_p99s(baseline)
    cur_spans = extract_span_p99s(current)
    for name, base in sorted(base_spans.items()):
        cur = cur_spans.get(name)
        if cur is not None and cur > (1.0 + threshold) * base:
            growth = 100.0 * (cur / base - 1.0)
            warnings.append(
                f"span p99 regression +{growth:.0f}% in phase {name!r}: "
                f"{base * 1e3:.3f}ms -> {cur * 1e3:.3f}ms"
            )
    return warnings


#: The static-analysis artifact `make analyze` writes next to the E2x
#: payloads; finding-count *growth* between runs warns like a perf
#: regression (suppressed debt creeping in under the CI gate's radar).
ANALYSIS_REPORT = "analysis_report.json"


def compare_analysis_reports(baseline: dict, current: dict) -> list[str]:
    """Warnings for every rule whose finding count grew since baseline.

    Counts come from the report's ``counts`` map (rule id → findings).
    Any growth warns — including a rule appearing for the first time —
    because the lint gate already fails CI on *unsuppressed* findings,
    so growth here means newly *suppressed* debt accumulating silently.
    Shrinkage is progress and stays quiet.
    """
    base_counts = dict(baseline.get("counts") or {})
    cur_counts = dict(current.get("counts") or {})
    warnings = []
    for rule_id in sorted(set(base_counts) | set(cur_counts)):
        base = int(base_counts.get(rule_id, 0))
        cur = int(cur_counts.get(rule_id, 0))
        if cur > base:
            warnings.append(
                f"analysis finding growth in {rule_id}: {base} -> {cur}"
            )
    base_total = int(baseline.get("total", 0))
    cur_total = int(current.get("total", 0))
    if cur_total > base_total and not warnings:
        warnings.append(
            f"analysis finding growth: {base_total} -> {cur_total}"
        )
    return warnings


def _load(directory: str, experiment_id: str) -> dict | None:
    path = os.path.join(directory, f"{experiment_id}.json")
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def _load_file(directory: str, filename: str) -> dict | None:
    path = os.path.join(directory, filename)
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def compare_directories(
    baseline_dir: str,
    current_dir: str,
    experiments=DEFAULT_EXPERIMENTS,
    threshold: float = DEFAULT_THRESHOLD,
) -> list[str]:
    """Diff every experiment present in *both* directories."""
    warnings = []
    for experiment_id in experiments:
        baseline = _load(baseline_dir, experiment_id)
        current = _load(current_dir, experiment_id)
        if baseline is None or current is None:
            continue  # nothing to compare — new experiment or fresh baseline
        warnings.extend(
            f"[{experiment_id}] {w}"
            for w in compare_payloads(baseline, current, threshold)
        )
    base_report = _load_file(baseline_dir, ANALYSIS_REPORT)
    cur_report = _load_file(current_dir, ANALYSIS_REPORT)
    if base_report is not None and cur_report is not None:
        warnings.extend(
            f"[analysis] {w}"
            for w in compare_analysis_reports(base_report, cur_report)
        )
    return warnings


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("experiments", nargs="*", default=None,
                        help=f"experiment ids (default: {' '.join(DEFAULT_EXPERIMENTS)})")
    parser.add_argument("--baseline", required=True,
                        help="directory holding the baseline *.json results")
    parser.add_argument("--current",
                        default=os.path.join(os.path.dirname(__file__), "_results"),
                        help="directory holding the current results "
                             "(default: benchmarks/_results)")
    parser.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD,
                        help="fractional drop that counts as a regression "
                             "(default: 0.2 = 20%%)")
    parser.add_argument("--strict", action="store_true",
                        help="exit 1 when any regression is found")
    args = parser.parse_args(argv)

    experiments = tuple(args.experiments) or DEFAULT_EXPERIMENTS
    warnings = compare_directories(
        args.baseline, args.current, experiments, args.threshold
    )
    if warnings:
        for warning in warnings:
            print(f"WARNING: {warning}", file=sys.stderr)
        return 1 if args.strict else 0
    print(f"no throughput regressions beyond {args.threshold:.0%} "
          f"across {', '.join(experiments)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
