"""The pipeline benchmark: one workload, timed end to end, checked against
ground truth, with an optional traced run for the per-layer breakdown.

Run from the repository root::

    python3 pipebench/run.py --workload table2-fast --seed 1 --seconds 20 --trace 0

With ``--trace 0`` it times passes of the workload for about ``--seconds``
seconds and prints the end-to-end metrics.  With ``--trace 1`` it
alternates untraced and traced passes and prints the per-layer metrics,
including the tracing overhead (traced minus untraced pass time).  The
last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the lines before it are
for people.  Spans of traced passes are written to
``.pipebench/trace-<workload>-seed<seed>.json``.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from statistics import median  # noqa: E402

from layers import (  # noqa: E402
    PER_LAYER_METRICS,
    install,
    layer_metrics,
    layer_table,
    median_metrics,
)
from spans import Tracer, attach, self_times  # noqa: E402
from speed import SpeedReference  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "src")
OUTPUT_DIR = os.path.join(ROOT, ".pipebench")

#: Set-up rounds per run; ``setup_s`` reports their median.
SETUP_ROUNDS = 3


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_library() -> None:
    """Import the library from the checkout, or exit non-zero without a result."""
    if not os.path.isdir(os.path.join(SOURCE, "repro")):
        sys.stderr.write(f"pipebench: no library source under {SOURCE}\n")
        raise SystemExit(2)
    sys.path.insert(0, SOURCE)
    # The modules the pipeline imports lazily on first use, so their import
    # lands in set-up rather than in the first timed pass.
    import repro.learning.kv  # noqa: F401
    import repro.learning.ttt  # noqa: F401
    import repro.store  # noqa: F401
    from repro.simkernel.steppers import numpy_available

    numpy_available()


def pass_counts(result) -> tuple:
    """(SUL queries, block accesses, verified targets, targets) of one pass."""
    return (
        sum(o.sul_queries for o in result.outcomes),
        sum(o.block_accesses for o in result.outcomes),
        sum(o.failure is None for o in result.outcomes),
        len(result.outcomes),
    )


class Run:
    """The passes of one benchmark run and the problems they showed."""

    def __init__(self, workload, seed: int, seconds: float, trace: bool) -> None:
        self.workload = workload
        self.seed = seed
        self.rng = random.Random(seed)
        self.seconds = seconds
        self.trace = trace
        self.untraced = []
        self.traced = []
        self.traced_metrics = []
        self.tracers = []
        self.problems = []

    @property
    def passes(self) -> list:
        return self.untraced + self.traced

    def execute(self) -> None:
        """Run rounds until about ``seconds`` have gone, and at least one.

        A round is one untraced pass or, when tracing, one untraced and one
        traced pass in alternating order.  Another round starts only if it
        should end within half a round of the limit.
        """
        rounds = []
        started = time.perf_counter()
        while not rounds or (
            time.perf_counter() - started + 0.5 * median(rounds) < self.seconds
        ):
            round_start = time.perf_counter()
            if not self.trace:
                order = (False,)
            else:
                order = (False, True) if len(rounds) % 2 == 0 else (True, False)
            for with_trace in order:
                if with_trace:
                    self._traced_pass()
                else:
                    self.untraced.append(
                        self.workload.run_pass(self.rng, speed=SpeedReference())
                    )
            rounds.append(time.perf_counter() - round_start)
        self._check()

    def _traced_pass(self) -> None:
        tracer = Tracer()
        speed = SpeedReference()
        install(tracer)
        try:
            result = self.workload.run_pass(self.rng, tracer, speed)
        finally:
            tracer.uninstall()
        attach(tracer.spans, speed.intervals, "speed.sample")
        selfs = self_times(tracer.spans)
        gap = abs(sum(selfs) - result.wall_s)
        if min(selfs) < -1e-6 or gap > 1e-3 * result.wall_s:
            self.problems.append(
                f"span self times do not add up: gap {gap:.6f} s, "
                f"min self {min(selfs):.6f} s"
            )
        metrics = layer_metrics(tracer, result.outcomes)
        metrics["trace.wall_s"] = result.normalised_s
        metrics["trace.self_sum_gap_s"] = gap
        self.traced.append(result)
        self.traced_metrics.append(metrics)
        self.tracers.append(tracer)

    def _check(self) -> None:
        """Record unexpected failures and passes that disagree on their counts."""
        for result in self.passes:
            for outcome in result.outcomes:
                failure = outcome.failure
                if failure is not None and (
                    outcome.target not in self.workload.known_wrong
                    or failure.startswith("raised")
                ):
                    self.problems.append(f"{outcome.target}: {failure}")
        signatures = {pass_counts(result) for result in self.passes}
        if len(signatures) != 1:
            self.problems.append(
                f"passes disagree on (sul, accesses, verified, targets): {signatures}"
            )

    def print_report(self, setup_s: float) -> None:
        print(f"workload {self.workload.name} seed {self.seed}: {len(self.untraced)} "
              f"untraced and {len(self.traced)} traced passes; set-up {setup_s:.3f} s; "
              f"untraced pass median {median(r.wall_s for r in self.untraced):.3f} s "
              f"wall clock, {median(r.normalised_s for r in self.untraced):.3f} s "
              "at the reference speed")
        for outcome in sorted(self.untraced[0].outcomes, key=lambda o: o.target):
            status = "ok" if outcome.failure is None else f"FAILED ({outcome.failure})"
            print(f"  {outcome.target:<22} states={outcome.states:<4} "
                  f"identified={outcome.identified or '-':<9} "
                  f"sul_queries={outcome.sul_queries:<6} {status}")
            for line in outcome.lines:
                print(line)
        for problem in self.problems:
            print(f"  PROBLEM: {problem}")

    def end_to_end_metrics(self, setup_s: float) -> dict:
        sul_queries, block_accesses, verified, targets = pass_counts(self.untraced[0])
        values = {
            "wall_s": (median(r.normalised_s for r in self.untraced), "s"),
            "setup_s": (setup_s, "s"),
            "sul_queries": (sul_queries, "count"),
            "block_accesses": (block_accesses, "count"),
            "verified_frac": (verified / targets, "ratio"),
            "peak_rss_mb": (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"
            ),
        }
        return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}

    def per_layer_metrics(self) -> dict:
        """Median per-layer metrics of the traced passes; writes the spans out."""
        summary = median_metrics(self.traced_metrics)
        untraced_s = median(r.normalised_s for r in self.untraced)
        summary["trace.overhead_s"] = summary["trace.wall_s"] - untraced_s
        summary["trace.overhead_frac"] = summary["trace.overhead_s"] / untraced_s
        print(f"at the reference speed: traced pass {summary['trace.wall_s']:.3f} s, "
              f"untraced {untraced_s:.3f} s, overhead {summary['trace.overhead_s']:+.3f} s")
        for line in layer_table(self.tracers[0]):
            print(line)
        path = os.path.join(OUTPUT_DIR, f"trace-{self.workload.name}-seed{self.seed}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent", "target"],
                    "passes": [tracer.spans for tracer in self.tracers],
                    "metrics": summary,
                },
                handle,
            )
        print(f"spans written to {os.path.relpath(path, ROOT)}")
        return {name: {"value": summary[name], "unit": unit}
                for name, unit in PER_LAYER_METRICS.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    import_library()
    from workloads import WORKLOADS

    imports_s = time.perf_counter() - STARTED
    if args.workload not in WORKLOADS:
        sys.stderr.write(f"pipebench: unknown workload {args.workload!r}; "
                         f"choose one of {sorted(WORKLOADS)}\n")
        return 2
    os.makedirs(OUTPUT_DIR, exist_ok=True)
    workload = WORKLOADS[args.workload](OUTPUT_DIR)
    setup_rounds = []
    for _ in range(SETUP_ROUNDS):
        start = time.perf_counter()
        workload.setup()
        setup_rounds.append(time.perf_counter() - start)
    setup_s = imports_s + median(setup_rounds)
    run = Run(workload, args.seed, args.seconds, bool(args.trace))
    run.execute()
    run.print_report(setup_s)
    metrics = run.per_layer_metrics() if args.trace else run.end_to_end_metrics(setup_s)
    print(json.dumps({
        "correct": not run.problems,
        "attempted": sum(len(r.outcomes) for r in run.passes),
        "failed": sum(o.failure is not None for r in run.passes for o in r.outcomes),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
