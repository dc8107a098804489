"""The repository benchmark: configure-time and churn cost of the paper's
pipeline on three workloads, with a separate traced pass per layer.

Run from the repository root::

  python3 perfbench/run.py --workload torus-te --seed 5 --seconds 30 --trace 0

``--trace 0`` times several set-ups and ``workloads.PASSES`` untraced
passes and prints the end-to-end metrics of ``BENCHMARK.json`` (medians
over the passes).  Their times are in reference seconds: wall time
normalised by a calibration chunk timed every 50 ms in between, which
takes out the host's own speed drift (``hostspeed.py``); raw walls are
printed with the details.  ``--trace 1`` runs one untraced and one traced
pass of the same seed and prints the per-layer metrics.  A pass runs each
phase to its steady state or quiescence and cannot stop early (12-30 s of
timed phases on one 2-vCPU cloud core), so the pass counts are fixed per
workload, about 30 s of timed phases a run (``BENCHMARK.json``'s
``run_seconds``), and ``--seconds`` is accepted for the common command
line and not otherwise used.  Either way the last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Every timed phase is one attempted operation; it fails when
the correctness check that follows it finds a violation.

Each run also writes its work counters and simulated-time outputs to
``perfbench/out/<workload>/seed-<seed>.json``; a later run of the same
seed on the same source tree must reproduce them exactly, otherwise the
run fails as a behaviour change.  Traced runs write their spans next to
it.  See ``perfbench/LAYERS.md`` for what each metric should move.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SOURCE = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

#: Set-ups per run: at least ``SETUP_REPEATS``, more (up to
#: ``SETUP_MAX_REPEATS``) while they add up to under ``SETUP_MIN_SECONDS``,
#: so a set-up of milliseconds is still a steady median.  Those beyond the
#: passes' own are thrown away; they also warm the allocator before the
#: timed passes.
SETUP_REPEATS = 3
SETUP_MIN_SECONDS = 1.0
SETUP_MAX_REPEATS = 100
#: A traced pass may disagree with ``sum(self_s) + unattributed`` by at
#: most this share of its wall time.
ACCOUNTING_TOLERANCE = 1e-3

def source_digest() -> str:
    """Digest of the program's and the benchmark's sources: recorded
    counts are only compared between runs of the same code."""
    digest = hashlib.sha256()
    for path in sorted([*SOURCE.rglob("*.py"), *BENCH_DIR.glob("*.py")]):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def run_pass(bench_pass, tracer=None):
    """Run every phase of one pass; returns (phase walls, phase times in
    reference seconds, problems).

    Untraced, each timed phase runs under a
    :class:`hostspeed.NormalizedClock`: its wall leaves out the clock's
    calibration chunks.  With a tracer, each timed phase runs inside one
    activation of it instead, and only walls are returned.  Preparations
    and checks stay untimed and untraced.
    """
    from hostspeed import NormalizedClock

    walls, reference, problems = {}, {}, {}
    for name, prepare, run, check in bench_pass.phases():
        if prepare is not None:
            prepare()
        if tracer is None:
            with NormalizedClock() as clock:
                run()
            walls[name] = clock.wall_s
            reference[name] = clock.reference_s
        else:
            with tracer:
                started = perf_counter()
                run()
                walls[name] = perf_counter() - started
        problems[name] = check()
    return walls, reference, problems


def diff_counters(expected, actual):
    """Human-readable list of counters that differ between two runs."""
    return [f"{key}: {expected.get(key)} != {actual.get(key)}"
            for key in sorted(set(expected) | set(actual))
            if expected.get(key) != actual.get(key)]


def check_record(workload, name, smoke, counters):
    """Compare counters with the record of the same name, seed and source
    tree (``perfbench/out/<workload>/<name>.json``), then (re)write the
    record.  Returns the differences: a behaviour change, not a timing one.
    """
    record_path = OUT_DIR / workload / (name + ("-smoke" if smoke else "")
                                        + ".json")
    key = {"source": source_digest(), "smoke": smoke}
    changes = []
    if record_path.exists():
        previous = json.loads(record_path.read_text())
        if previous.get("key") == key:
            changes = diff_counters(previous["counters"], counters)
    record_path.parent.mkdir(parents=True, exist_ok=True)
    record_path.write_text(json.dumps({"key": key, "counters": counters},
                                      indent=1, sort_keys=True) + "\n")
    return changes


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _ratio(num, den) -> float:
    return num / den if den else 0.0


class Outcome:
    """Operations attempted and failed, plus the reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def add_phases(self, label, problems) -> None:
        for phase, found in problems.items():
            self.attempted += 1
            if found:
                self.failed += 1
                self.notes.append(f"{label} {phase}: {len(found)} "
                                  f"violations, e.g. {found[:3]}")

    def require(self, label, found) -> None:
        """A run-level check: a violation counts as one more failed
        operation (never more failures than attempts)."""
        if found:
            self.failed = min(self.attempted, self.failed + 1)
            self.notes.append(f"{label}: {found[:3]}")


def timed_setup(setup, seed, smoke):
    """One set-up under a :class:`hostspeed.NormalizedClock`; returns the
    pass and the set-up's reference seconds."""
    from hostspeed import NormalizedClock

    with NormalizedClock() as clock:
        bench_pass = setup(seed, smoke)
    return bench_pass, clock.reference_s


def repeated_setups(setup, seed, smoke, passes=1):
    """Time throwaway set-ups, so many that with the set-ups of ``passes``
    passes still to come the counts above hold; returns their times in
    reference seconds."""
    times = []
    while len(times) + passes < SETUP_REPEATS or (
            sum(times) < SETUP_MIN_SECONDS
            and len(times) + passes < SETUP_MAX_REPEATS):
        bench_pass, seconds = timed_setup(setup, seed, smoke)
        times.append(seconds)
        del bench_pass
        gc.collect()
    return times


def measure(setup, workload, seed, smoke):
    """Set-ups for ``setup_s``, then ``PASSES[workload]`` untraced passes;
    each phase's metric is its median over the passes, in reference
    seconds (see ``hostspeed``)."""
    from workloads import PASSES

    outcome = Outcome()
    setup_times = repeated_setups(setup, seed, smoke, PASSES[workload])
    walls, reference, counters = {}, {}, None
    for _ in range(PASSES[workload]):
        bench_pass, seconds = timed_setup(setup, seed, smoke)
        setup_times.append(seconds)
        gc.collect()
        pass_walls, pass_reference, problems = run_pass(bench_pass)
        outcome.add_phases("pass", problems)
        if counters is None:
            counters = bench_pass.counters()
        else:
            outcome.require("behaviour change between passes",
                            diff_counters(counters, bench_pass.counters()))
        for name, wall in pass_walls.items():
            walls.setdefault(name, []).append(wall)
            reference.setdefault(name, []).append(pass_reference[name])
        del bench_pass
        gc.collect()
    outcome.require("behaviour change against the recorded run",
                    check_record(workload, f"seed-{seed}", smoke, counters))
    metrics = {
        "setup_s": statistics.median(setup_times),
        "configure_s": statistics.median(reference["configure_s"]),
        "churn_s": statistics.median(reference["churn_s"]),
        "peak_rss_mb": peak_rss_mb(),
    }
    details = {"walls": walls, "reference_seconds": reference,
               "setup_times": setup_times, "counters": counters}
    if "ingest_s" in walls:
        details["ingest_demands_per_s"] = (
            counters["traffic.demands"] / statistics.median(walls["ingest_s"]))
    return outcome, metrics, details


def layer_metrics(tracer, counters, untraced_walls):
    """Per-layer metrics of a traced pass (counts from the program's own
    counters where it has them, from the wrappers otherwise)."""
    calls, useful, self_s = tracer.calls, tracer.useful, tracer.self_s
    get = counters.get
    spf_calls = calls["OSPFDaemon.spf_routes"]
    replace_calls = calls["RIB.replace_routes"]
    ksp_hits, ksp_misses = get("te.ksp_hits", 0), get("te.ksp_computations", 0)
    metrics = {
        "sim.events": get("sim.events"),
        "net.frames": get("net.frames"),
        "net.frames_dropped": get("net.frames_dropped"),
        "openflow.messages": calls["ControlChannel.send"],
        "openflow.flow_adds": calls["FlowTable.add"],
        "openflow.flow_deletes": calls["FlowTable.delete"],
        "openflow.lookups": calls["FlowTable.lookup"],
        "flowvisor.messages": calls["FlowVisor.channel_receive"],
        "controller.packet_ins": calls["TopologyDiscovery.on_packet_in"],
        "core.rpc_calls": calls["RPCServer.receive"],
        "routeflow.route_mods": get("routeflow.route_mods"),
        "routeflow.route_mods_parked": get("routeflow.route_mods_parked"),
        "routeflow.flow_installs": get("routeflow.flow_installs"),
        "routeflow.flow_removes": get("routeflow.flow_removes"),
        "routeflow.sharding.takeovers": get("routeflow.sharding.takeovers"),
        "routeflow.sharding.reshards": get("routeflow.sharding.reshards"),
        "routeflow.sharding.resyncs": get("routeflow.sharding.resyncs"),
        "bus.publishes": get("bus.publishes"),
        "bus.bytes": get("bus.bytes"),
        "bus.dropped_fault": get("bus.dropped_fault"),
        "bus.retransmits": get("bus.retransmits"),
        "bus.rx_duplicates": get("bus.rx_duplicates"),
        "bus.rx_out_of_order": get("bus.rx_out_of_order"),
        "bus.goodput_ratio": _ratio(get("bus.delivered")
                                    - get("bus.rx_duplicates"),
                                    get("bus.publishes")),
        "quagga.ospf.spf_runs": get("quagga.ospf.spf_runs"),
        "quagga.ospf.spf_useful_ratio": _ratio(useful["spf_changed"],
                                               spf_calls),
        "quagga.ospf.lsa_installs": calls["LSDB.install"],
        "quagga.ospf.packets_rx": calls["OSPFDaemon.receive_packet"],
        "quagga.rib.replace_calls": replace_calls,
        "quagga.rib.fib_changes": useful["fib_changes"],
        "quagga.rib.useful_ratio": _ratio(useful["fib_changes"],
                                          replace_calls),
        "quagga.bgp.updates_rx": get("quagga.bgp.updates_rx"),
        "quagga.bgp.updates_tx": get("quagga.bgp.updates_tx"),
        "quagga.bgp.withdrawals_tx": get("quagga.bgp.withdrawals_tx"),
        "traffic.demands": get("traffic.demands", 0),
        "traffic.commodities": get("traffic.commodities", 0),
        "traffic.walks": get("traffic.walks", 0),
        "traffic.lookups": get("traffic.lookups", 0),
        "traffic.reallocations": calls["FluidEngine.reallocate"],
        "traffic.reresolutions": get("traffic.reresolutions", 0),
        "traffic.affected_demands": get("traffic.affected_demands", 0),
        "traffic.reresolution_useful_ratio": _ratio(
            useful["reresolutions_changed"], useful["reresolutions"]),
        "traffic.maxmin_s": tracer.inclusive_s["fluid.max_min_allocation"],
        "traffic.ingest_demands_per_s": _ratio(get("traffic.demands", 0),
                                               untraced_walls.get("ingest_s")),
        "te.samples": get("te.samples", 0),
        "te.decisions": get("te.decisions", 0),
        "te.reroutes": get("te.reroutes", 0),
        "te.steers": get("te.steers", 0),
        "te.ksp_hit_ratio": _ratio(ksp_hits, ksp_hits + ksp_misses),
        "trace.wall_s": tracer.wall_s,
        "trace.overhead_s": tracer.wall_s - sum(untraced_walls.values()),
        "trace.unattributed_s": tracer.unattributed_s,
    }
    for layer, seconds in self_s.items():
        metrics[f"{layer}.self_s"] = seconds
    return metrics


def trace_checks(tracer, counters, traced_walls):
    """Checks of the trace itself (empty = consistent)."""
    problems = tracer.accounting_problems(ACCOUNTING_TOLERANCE)
    phases_s = sum(traced_walls.values())
    if abs(tracer.wall_s - phases_s) > ACCOUNTING_TOLERANCE * phases_s:
        problems.append(f"the tracer's wall {tracer.wall_s:.6f}s differs "
                        f"from the timed phases' {phases_s:.6f}s")
    problems += tracer.nesting_violations()[:5]
    if "traffic.walks" in counters:
        if tracer.calls["PathResolver.resolve"] != counters["traffic.walks"]:
            problems.append("wrapped resolves differ from the engine's walks")
        if tracer.useful["reresolutions"] != counters["traffic.reresolutions"]:
            problems.append("wrapped re-resolutions differ from the "
                            "engine's count")
    return problems


def measure_traced(setup, workload, seed, smoke):
    """One untraced and one traced pass of the same seed."""
    from spans import Tracer

    outcome = Outcome()
    repeated_setups(setup, seed, smoke)
    bench_pass = setup(seed, smoke)
    gc.collect()
    untraced_walls, _, problems = run_pass(bench_pass)
    outcome.add_phases("untraced", problems)
    untraced = bench_pass.counters()
    del bench_pass
    gc.collect()
    outcome.require("behaviour change against the recorded run",
                    check_record(workload, f"seed-{seed}", smoke, untraced))

    bench_pass = setup(seed, smoke)
    gc.collect()
    tracer = Tracer()
    traced_walls, _, problems = run_pass(bench_pass, tracer)
    outcome.add_phases("traced", problems)
    traced = bench_pass.counters()
    outcome.require("traced and untraced counts differ",
                    diff_counters(untraced, traced))
    outcome.require("trace check", trace_checks(tracer, traced, traced_walls))
    outcome.require("behaviour change against the recorded traced run",
                    check_record(workload, f"seed-{seed}-calls", smoke,
                                 {**tracer.calls, **tracer.useful}))
    tracer.write(OUT_DIR / workload / (f"spans-seed-{seed}"
                                       + ("-smoke" if smoke else "")
                                       + ".json"))
    metrics = layer_metrics(tracer, traced, untraced_walls)
    details = {"untraced_walls": untraced_walls,
               "traced_walls": traced_walls, "counters": untraced,
               "spans_seen": tracer.spans_seen}
    return outcome, metrics, details, tracer


def load_benchmark():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def units_of(benchmark, trace: bool):
    return {entry["name"]: entry["unit"]
            for entry in benchmark["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="accepted and unused: passes are fixed per "
                        "workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SOURCE / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {SOURCE}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SOURCE), str(BENCH_DIR)]
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    setup = WORKLOADS[args.workload]
    units = units_of(load_benchmark(), bool(args.trace))
    if args.trace:
        outcome, metrics, details, _ = measure_traced(
            setup, args.workload, args.seed, smoke=False)
    else:
        outcome, metrics, details = measure(
            setup, args.workload, args.seed, smoke=False)
    if set(metrics) != set(units):
        print(f"error: metrics {sorted(set(metrics) ^ set(units))} do not "
              f"match BENCHMARK.json", file=sys.stderr)
        return 2
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "details": details}, sort_keys=True))
    for note in outcome.notes:
        print(f"FAILED {note}")
    for name in sorted(metrics):
        print(f"{name:<40} {metrics[name]:>16.6g} {units[name]}")
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
