"""Tiny-size smoke check of the benchmark itself.

Runs each workload's shape on a small network (a 4x4 torus with 20k
demands, ``interdomain-3as``, ``ring-16-c2``) through the same code as
``run.py``, untraced and traced, and checks:

* the metric names each mode prints equal ``BENCHMARK.json``'s lists;
* ``torus-te``'s demand sampler, at its mass seed, draws exactly the
  demands of the program's own gravity model;
* every phase passes its correctness gate;
* traced and untraced passes count the same work;
* every recorded span nests inside its parent, the per-layer self
  times plus the separately measured unattributed time add up to the
  traced wall, and no wrapper runs outside a traced phase.

Run from the repository root; exits non-zero on the first failure::

    python3 perfbench/smoke.py
"""

from __future__ import annotations

import sys

import run


def main() -> int:
    sys.path[:0] = [str(run.SOURCE), str(run.BENCH_DIR)]
    from repro.net.addresses import IPv4Address
    from repro.traffic import DemandSpec, generate_demands
    from workloads import MASS_SEED, WORKLOADS, gravity_sample

    benchmark = run.load_benchmark()
    expected_e2e = set(run.units_of(benchmark, trace=False))
    expected_layers = set(run.units_of(benchmark, trace=True))
    names = {entry["name"] for entry in benchmark["workloads"]}
    failures = []
    if names != set(WORKLOADS):
        failures.append(f"workloads {sorted(names)} != {sorted(WORKLOADS)}")
    addresses = {dpid: IPv4Address(f"10.0.0.{dpid}") for dpid in range(1, 17)}
    ours, program = (
        [(d.src_dpid, d.dst, d.rate_bps, d.start, d.duration) for d in demands]
        for demands in (
            gravity_sample(addresses, 5_000, 1e3, MASS_SEED),
            generate_demands(DemandSpec(model="gravity", count=5_000,
                                        rate_bps=1e3, seed=MASS_SEED),
                             addresses)))
    if ours != program:
        failures.append("gravity_sample differs from the program's gravity "
                        "model at the mass seed")
    for workload, setup in WORKLOADS.items():
        outcome, metrics, _ = run.measure(setup, workload, seed=1,
                                          smoke=True)
        if set(metrics) != expected_e2e:
            failures.append(f"{workload}: end-to-end metrics "
                            f"{sorted(set(metrics) ^ expected_e2e)} differ")
        if min(metrics.values()) <= 0.0:
            failures.append(f"{workload}: a zero end-to-end metric {metrics}")
        outcome_t, layers, details, tracer = run.measure_traced(
            setup, workload, seed=1, smoke=True)
        if set(layers) != expected_layers:
            failures.append(f"{workload}: per-layer metrics "
                            f"{sorted(set(layers) ^ expected_layers)} differ")
        if not tracer.spans["id"]:
            failures.append(f"{workload}: no spans recorded")
        for label, result in (("untraced", outcome), ("traced", outcome_t)):
            if result.failed or not result.attempted:
                failures.append(f"{workload} {label}: {result.failed} of "
                                f"{result.attempted} failed: {result.notes}")
        print(f"{workload}: {outcome.attempted + outcome_t.attempted} "
              f"operations, {details['spans_seen']} spans, "
              f"self {sum(tracer.self_s.values()):.3f}s + unattributed "
              f"{tracer.unattributed_s:.3f}s of {tracer.wall_s:.3f}s traced")
    for failure in failures:
        print(f"FAILED {failure}")
    print("smoke: ok" if not failures else f"smoke: {len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
