"""Simulator-kernel benchmarks, with machine-readable output.

Two sections (a former engine-vs-seed section measured the trie engine
against the pre-trie dictionary cache; that cache is gone, and
``BENCH_query_engine.json`` keeps its last numbers as the historical
record):

* **kernel throughput** (simkernel PR) — answer one seeded random workload
  of PLRU-8 policy words through
  :class:`~repro.polca.algorithm.PolcaMembershipOracle` under both
  execution kernels (legacy scalar stepper, tabulated stepper) and compare
  policy symbols/second.  Acceptance: the tabulated kernel answers >= 10x
  the symbols/sec of the scalar stepper.

* **kernel learning identity** (simkernel PR) — learn PLRU-8 end-to-end
  under kernel in {scalar, auto} and require the tabulated run's machine
  to be bit-identical (``==``) to the scalar one.

Run standalone (``--json OUT`` writes a machine-readable result so the
perf trajectory accumulates ``BENCH_*.json`` points)::

    PYTHONPATH=src python benchmarks/bench_query_engine.py --json BENCH_query_engine.json
"""

import argparse
import json
import random
import time

from repro.core.alphabet import policy_input_alphabet
from repro.policies.registry import make_policy
from repro.polca.algorithm import PolcaMembershipOracle
from repro.polca.interfaces import SimulatedCacheInterface
from repro.polca.pipeline import learn_simulated_policy

#: The acceptance target: the paper's 8-way tree PLRU (128 states).
TENTPOLE_POLICY = ("PLRU", 8)

#: The ``kernel=`` settings compared, scalar (the reference) first.
KERNELS = ("scalar", "auto")


# ------------------------------------------------------- simulator kernels

#: The kernel acceptance target (the 10x bar of the simkernel PR).
KERNEL_SPEEDUP_TARGET = 10.0


def kernel_workload(associativity, *, words=2000, min_length=16, max_length=48, seed=20200615):
    """One seeded, kernel-independent workload of random policy words.

    Word lengths follow the deep conformance-suite words that dominate the
    targets this kernel unlocks (16-way PLRU / deeper SRRIP sweeps): the
    scalar path replays the whole access chain per symbol, so its
    per-symbol cost grows with word length while the tabulated kernel
    stays O(1) per symbol.
    """
    alphabet = policy_input_alphabet(associativity)
    rng = random.Random(seed)
    return [
        tuple(rng.choice(alphabet) for _ in range(rng.randint(min_length, max_length)))
        for _ in range(words)
    ]


def kernel_throughput(policy_name, associativity, *, batch_size=1024, **workload_kwargs):
    """Answer the same workload under both kernels; return metrics keyed by
    the kernel in use (``"scalar"``, ``"tabulated"``).

    Throughput is policy symbols per second as counted by Polca itself
    (``statistics.policy_symbols``), so every kernel is measured over the
    exact same executed work — dedupe and prefix subsumption included.
    """
    workload = kernel_workload(associativity, **workload_kwargs)
    results = {}
    for kernel in KERNELS:
        interface = SimulatedCacheInterface(make_policy(policy_name, associativity))
        oracle = PolcaMembershipOracle(interface, kernel=kernel)
        start = time.perf_counter()
        for begin in range(0, len(workload), batch_size):
            oracle.output_query_batch(workload[begin : begin + batch_size])
        seconds = time.perf_counter() - start
        results[oracle.kernel_in_use] = {
            "seconds": seconds,
            "policy_symbols": oracle.statistics.policy_symbols,
            "cache_probes": oracle.statistics.cache_probes,
            "block_accesses": oracle.statistics.block_accesses,
            "symbols_per_sec": oracle.statistics.policy_symbols / max(1e-9, seconds),
        }
    # Same workload, same accounting: only wall-clock may differ.
    for counter in ("policy_symbols", "cache_probes", "block_accesses"):
        assert results["tabulated"][counter] == results["scalar"][counter], counter
    return results


def kernel_learning_identity(policy_name, associativity):
    """Learn the policy under both kernels.

    Returns ``(runs, identical)`` where ``identical`` is True iff the
    tabulated run's machine is bit-identical (``==``) to the scalar one.
    """
    runs = []
    baseline = None
    identical = True
    for kernel in KERNELS:
        report = learn_simulated_policy(make_policy(policy_name, associativity), kernel=kernel)
        if baseline is None:
            baseline = report.machine
        identical = identical and report.machine == baseline
        runs.append(
            {
                "kernel": kernel,
                "kernel_in_use": report.extra["kernel"],
                "states": report.num_states,
                "seconds": report.wall_clock_seconds,
                "policy_symbols": report.polca_statistics.policy_symbols,
                "cache_probes": report.polca_statistics.cache_probes,
                "machine_identical": report.machine == baseline,
            }
        )
    return runs, identical


# ----------------------------------------------------------------- standalone


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--json",
        metavar="OUT",
        default=None,
        help="write the full machine-readable results to this file "
        "(the BENCH_*.json perf-trajectory format)",
    )
    parser.add_argument(
        "--skip-learning",
        action="store_true",
        help="skip the end-to-end kernel learning-identity section (slow)",
    )
    arguments = parser.parse_args(argv)
    policy_name, associativity = TENTPOLE_POLICY
    payload = {
        "benchmark": "bench_query_engine",
        "policy": policy_name,
        "associativity": associativity,
    }

    print(f"== Simulator kernel throughput: {policy_name}-{associativity} ==")
    throughput = kernel_throughput(policy_name, associativity)
    print(f"{'kernel':>9} {'symbols':>9} {'seconds':>9} {'symbols/sec':>12}")
    for kernel, metrics in throughput.items():
        print(
            f"{kernel:>9} {metrics['policy_symbols']:>9} {metrics['seconds']:>9.3f} "
            f"{metrics['symbols_per_sec']:>12.0f}"
        )
    payload["kernel_throughput"] = throughput
    speedup = (
        throughput["tabulated"]["symbols_per_sec"] / throughput["scalar"]["symbols_per_sec"]
    )
    payload["kernel_speedup_over_scalar"] = {"tabulated": speedup}
    print(f"tabulated kernel speedup over scalar: {speedup:.1f}x")
    assert speedup >= KERNEL_SPEEDUP_TARGET, (
        f"acceptance criterion: tabulated kernel >= {KERNEL_SPEEDUP_TARGET:.0f}x "
        f"scalar symbols/sec, got {speedup:.1f}x"
    )

    if not arguments.skip_learning:
        print(f"\n== Kernel learning identity: {policy_name}-{associativity} ==")
        runs, identical = kernel_learning_identity(policy_name, associativity)
        print(f"{'kernel':>8} {'states':>7} {'seconds':>9} {'identical':>10}")
        for run in runs:
            print(
                f"{run['kernel']:>8} {run['states']:>7} "
                f"{run['seconds']:>9.2f} {str(run['machine_identical']):>10}"
            )
        payload["kernel_learning"] = runs
        payload["kernel_learning_identical"] = identical
        assert identical, "acceptance criterion: machines bit-identical across kernels"

    if arguments.json:
        with open(arguments.json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
        print(f"\nwrote {arguments.json}")
    print("\nOK")


if __name__ == "__main__":
    main()
