"""Golden files pinning every experiment export and the CLI surface.

Three kinds of output are pinned byte-for-byte under
``tests/data/experiments/``:

* every JSON/CSV writer, fed hand-built results that cover the edge
  cases (unconfigured runs, a failover with no events, interdomain with
  and without a flap/profile, ``per_as`` keys that sort differently as
  strings and as integers, a lossy churn run with bus faults);
* real ``repro`` runs, with the host-dependent ``wall_seconds`` masked:
  the JSON/CSV exports and the printed report;
* each subcommand's argument-parser structure (option strings, dest,
  default, type, choices, nargs, required, metavar, help).  The parser is
  pinned instead of the ``--help`` text because argparse formats help
  differently across Python versions.

Regenerate after an *intentional* output change with::

    PYTHONPATH=src python tests/test_experiment_goldens.py regen
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import re
import sys
import tempfile
from pathlib import Path

import pytest

from repro.experiments import (
    CTLSCALE_CSV_HEADER,
    FAILOVER_CSV_HEADER,
    INTERDOMAIN_CSV_HEADER,
    SWEEP_CSV_HEADER,
    BorderFlapResult,
    CtlScaleChurnResult,
    CtlScaleResult,
    FailoverEventResult,
    FailoverResult,
    InterdomainResult,
    LinkUtilization,
    SweepResult,
    TEPolicyResult,
    TEResult,
    TrafficResult,
    ctlscale_csv_rows,
    failover_csv_rows,
    interdomain_csv_rows,
    sweep_csv_rows,
    write_csv,
    write_json,
)

GOLDEN_DIR = Path(__file__).parent / "data" / "experiments"


# ---------------------------------------------------------------------------
# hand-built results
# ---------------------------------------------------------------------------
def sweep_results():
    return [
        SweepResult(scenario="ring-4", family="ring", seed=0, num_switches=4,
                    num_links=4, auto_seconds=33.25, manual_seconds=3600.0,
                    controllers=2,
                    milestones={"ospf_converged": 33.25, "vms_running": 21.5},
                    frames_delivered=1234, frames_dropped=5,
                    wall_seconds=0.75),
        SweepResult(scenario="never", family="random", seed=7, num_switches=3,
                    num_links=2, auto_seconds=None, manual_seconds=2700.0),
    ]


def failover_results():
    events = [
        FailoverEventResult(index=0, action="link_down",
                            description="link 1<->2 down @10.0s",
                            at_seconds=43.5, reconverge_seconds=0.1 + 0.2,
                            route_changes=12, frames_lost=3),
        FailoverEventResult(index=1, action="link_up",
                            description="link 1<->2 up @70.0s",
                            at_seconds=103.5, reconverge_seconds=0.0,
                            route_changes=0, frames_lost=0),
    ]
    return [
        FailoverResult(scenario="ring-4", family="ring", seed=0,
                       num_switches=4, num_links=4, configured_seconds=33.5,
                       events=events, settled=True,
                       link_stats={"frames_delivered": 900,
                                   "frames_dropped": 3},
                       wall_seconds=1.5),
        FailoverResult(scenario="quiet", family="ring", seed=1,
                       num_switches=3, num_links=3, configured_seconds=20.0,
                       settled=False,
                       invariant_violations=["vm-1: stale OSPF candidate"],
                       link_stats={"frames_delivered": 10,
                                   "frames_dropped": 0}),
        FailoverResult(scenario="never", family="torus", seed=2,
                       num_switches=9, num_links=12, configured_seconds=None),
    ]


def traffic_results():
    return [
        TrafficResult(scenario="ring-4", family="ring", seed=0,
                      num_switches=4, num_links=4, configured_seconds=41.0,
                      model="gravity", demands=50, commodities=12,
                      delivered_commodities=11, duration_seconds=15.0,
                      offered_bits=7.5e8, delivered_bits=6.25e8,
                      resolutions=12, lookups=30, reresolutions=4,
                      affected_demands=9,
                      top_links=[LinkUtilization(name="s1-eth1<->s2-eth1",
                                                 busy_seconds=3.5,
                                                 utilization=0.25,
                                                 peak_bps=1.0e7)],
                      wall_seconds=0.5),
        TrafficResult(scenario="never", family="ring", seed=0,
                      num_switches=4, num_links=4, configured_seconds=None),
        TrafficResult(scenario="idle", family="ring", seed=0,
                      num_switches=4, num_links=4, configured_seconds=12.0),
    ]


def te_result():
    return TEResult(
        scenario="te-ring-8", family="ring", seed=3, num_switches=8,
        num_links=8, engine="zebra", model="gravity", hot_link="1:2",
        results=[
            TEPolicyResult(policy="none", configured_seconds=40.0, demands=20,
                           commodities=10, delivered_commodities=10,
                           duration_seconds=35.0, offered_bits=1.0e9,
                           delivered_bits=8.0e8, stretch_mean=1.0,
                           stretch_p99=1.0, route_mods=88, wall_seconds=1.25),
            TEPolicyResult(policy="greedy", configured_seconds=40.0,
                           demands=20, commodities=10,
                           delivered_commodities=9, unrouted_commodities=1,
                           duration_seconds=35.0, offered_bits=1.0e9,
                           delivered_bits=9.0e8, stretch_mean=1.125,
                           stretch_p99=1.5, reroutes=3, steers=4,
                           steer_changes=5, decisions=6, samples=7,
                           pruned_steers=1, route_mods=99,
                           delivered_gain=0.125),
            TEPolicyResult(policy="bandit", configured_seconds=None),
        ])


def te_empty_result():
    return TEResult(scenario="te-none", family="ring", seed=0, num_switches=4,
                    num_links=4, engine="synthetic", model="uniform")


def ctlscale_results():
    loads = [
        {"shard": 0, "switches": 2, "vms": 2, "route_mods": 30,
         "flow_mods_installed": 28, "flow_mods_removed": 2,
         "flows_current": 26, "bgp_updates_sent": 1,
         "bgp_withdrawals_sent": 0, "bgp_updates_received": 2},
        {"shard": 1, "switches": 2, "vms": 2, "route_mods": 31,
         "flow_mods_installed": 27, "flow_mods_removed": 1,
         "flows_current": 26},
    ]
    return [
        CtlScaleResult(scenario="ring-4", family="ring", seed=0,
                       controllers=2, partitioner="hash", num_switches=4,
                       num_links=4, configured_seconds=30.5,
                       shard_loads=loads,
                       bus_stats={"_totals": {"published": 10.0},
                                  "routeflow.route_mods": {"published": 4.0}},
                       wall_seconds=2.0),
        CtlScaleResult(scenario="never", family="ring", seed=0,
                       controllers=1, partitioner="contiguous",
                       num_switches=4, num_links=4, configured_seconds=None,
                       invariant_violations=["vm-1: RIB has x, SPF computed y"]),
    ]


def churn_result():
    return CtlScaleChurnResult(
        scenario="ring-16-c2", family="ring", seed=0, controllers=2,
        partitioner="hash", num_switches=16, num_links=16, churn_seed=4,
        configured_seconds=80.0, reference_flows=240, steady_flows=240,
        final_flows=239, takeovers=1, reshards=1, settled=True,
        bus_faults={"routeflow.*": {"drop": 0.05, "jitter": 0.01},
                    "config.rpc": {"drop": 0.05, "jitter": 0.01}},
        bus_fault_seed=9, reliable_ipc=True, retransmits=17, acked=300,
        exhausted=0, dropped_fault=16, fault_duplicated=2, fault_reordered=3,
        rx_duplicates=4, rx_out_of_order=5, rx_out_of_window=6,
        stale_announcements=1, duplicate_installs=2, client_resyncs=3,
        bus_stats={"_totals": {"retransmits": 17.0, "acked": 300.0}},
        reconvergence_seconds=12.5,
        schedule=[{"at": 5.0, "action": "shard_failover", "node_a": 1,
                   "node_b": None}],
        shard_roles=["master", "standby"],
        shard_loads=[{"shard": 0, "flows_current": 120},
                     {"shard": 1, "flows_current": 119}],
        invariant_violations=["vm-3: SPF route missing"],
        ownership_violations=["dpid 4 has two masters"],
        orphaned_route_mods=["shard 1: parked RouteMod for dpid 7"],
        wall_seconds=3.5)


def churn_unconfigured_result():
    return CtlScaleChurnResult(
        scenario="never", family="ring", seed=0, controllers=4,
        partitioner="hash", num_switches=8, num_links=8, churn_seed=0,
        configured_seconds=None)


def interdomain_results():
    flap = BorderFlapResult(node_a=3, node_b=4, withdrawn_flow_mods=12,
                            sessions_dropped=True,
                            down_reconverge_seconds=6.5, reestablished=True,
                            restore_reconverge_seconds=8.25,
                            flows_restored=True)
    per_as = {
        100: {"switches": 1, "flows": 5, "bgp_fib_routes": 4,
              "external_fib_routes": 0},
        2: {"switches": 3, "flows": 15, "bgp_fib_routes": 6,
            "external_fib_routes": 8},
        10: {"switches": 2, "flows": 10, "bgp_fib_routes": 5,
             "external_fib_routes": 4},
    }
    return [
        InterdomainResult(
            scenario="interdomain-3as", family="multi-as", seed=0,
            num_ases=3, num_switches=6, num_links=7, border_links=2,
            controllers=1, configured_seconds=60.0, converged_seconds=62.5,
            settled=True, ebgp_sessions=2, ibgp_sessions=4, steady_flows=30,
            per_as=per_as, redistribution_violations=[], flap=flap,
            wall_seconds=1.0,
            profile={"session_establishment": {"seconds": 0.5, "calls": 4},
                     "decision_process": {"seconds": 0.25, "calls": 10}}),
        InterdomainResult(
            scenario="no-flap", family="multi-as", seed=1, num_ases=2,
            num_switches=4, num_links=4, border_links=1, controllers=2,
            configured_seconds=50.0, converged_seconds=50.0, settled=False,
            per_as={1: {"switches": 2, "flows": 6, "bgp_fib_routes": 2,
                        "external_fib_routes": 2}},
            redistribution_violations=["vm-2: no bgpd running"]),
        InterdomainResult(
            scenario="never", family="multi-as", seed=2, num_ases=2,
            num_switches=4, num_links=4, border_links=1, controllers=1,
            configured_seconds=None),
    ]


#: golden file name -> callable writing the export to the given path.
WRITERS = {
    "sweep.json": lambda path: write_json(sweep_results(), path),
    "sweep.csv": lambda path: write_csv(path, SWEEP_CSV_HEADER,
                                        sweep_csv_rows(sweep_results())),
    "failover.json": lambda path: write_json(failover_results(), path),
    "failover.csv": lambda path: write_csv(
        path, FAILOVER_CSV_HEADER, failover_csv_rows(failover_results())),
    "traffic.json": lambda path: write_json(traffic_results(), path),
    "te.json": lambda path: write_json(te_result(), path),
    "te_empty.json": lambda path: write_json(te_empty_result(), path),
    "ctlscale.json": lambda path: write_json(ctlscale_results(), path),
    "ctlscale.csv": lambda path: write_csv(
        path, CTLSCALE_CSV_HEADER, ctlscale_csv_rows(ctlscale_results())),
    "ctlscale_churn.json": lambda path: write_json(churn_result(), path),
    "ctlscale_churn_unconfigured.json":
        lambda path: write_json(churn_unconfigured_result(), path),
    "interdomain.json": lambda path: write_json(interdomain_results(), path),
    "interdomain.csv": lambda path: write_csv(
        path, INTERDOMAIN_CSV_HEADER,
        interdomain_csv_rows(interdomain_results())),
}


def read(path: Path) -> str:
    """A file's exact text: no newline translation (CSV rows end in \\r\\n)."""
    return path.read_bytes().decode()


def writer_output(name: str) -> str:
    with tempfile.TemporaryDirectory() as scratch:
        target = Path(scratch) / name
        WRITERS[name](target)
        return read(target)


# ---------------------------------------------------------------------------
# real runs
# ---------------------------------------------------------------------------
#: golden prefix -> (argv, exports the run writes).  Each takes about a
#: second; every export and the printed report are deterministic apart
#: from ``wall_seconds``.
RUNS = {
    "run_sweep": (["sweep", "--scenario", "ring-4"], ("out", "csv")),
    "run_failover": (["failover", "--scenario", "ring-4",
                      "--link-down", "1:2@10", "--link-up", "1:2@70"],
                     ("out", "csv")),
    "run_ctlscale": (["ctlscale", "--scenario", "ring-4",
                      "--controllers", "1", "2"], ("out", "csv")),
    "run_interdomain": (["interdomain", "--scenario", "interdomain-3as"],
                        ("out", "csv")),
    "run_traffic": (["traffic", "--scenario", "ring-4", "--demands", "50",
                     "--window", "10"], ("out",)),
    "run_ctlscale_churn": (["ctlscale", "--scenario", "ring-16-c2",
                            "--churn"], ("out",)),
    "run_te": (["te", "--scenario", "ring-4", "--demands", "20",
                "--window", "10"], ("out",)),
}

_WALL = re.compile(r'("wall_seconds": )[-+0-9.eE]+')
_WROTE = re.compile(r"^wrote .*$", re.MULTILINE)


def mask(text: str) -> str:
    """Blank the host-dependent wall-clock values out of an export."""
    return _WALL.sub(r"\g<1>0.0", text)


def run_outputs(prefix: str):
    """Run one pinned command; returns {golden name: text} and the exit code."""
    from repro.cli import main

    argv, exports = RUNS[prefix]
    with tempfile.TemporaryDirectory() as scratch:
        paths = {}
        extra = []
        for kind in exports:
            suffix = "json" if kind == "out" else "csv"
            paths[kind] = Path(scratch) / f"{prefix}.{suffix}"
            extra += [f"--{kind}", str(paths[kind])]
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = main(argv + extra)
        outputs = {f"{prefix}.txt": _WROTE.sub("wrote FILE", stdout.getvalue())}
        for kind, path in paths.items():
            outputs[path.name] = mask(read(path))
    return outputs, code


# ---------------------------------------------------------------------------
# parser structure
# ---------------------------------------------------------------------------
def _action_record(action: argparse.Action) -> dict:
    kind = action.type
    return {
        "option_strings": list(action.option_strings),
        "dest": action.dest,
        "default": action.default,
        "const": action.const,
        "type": getattr(kind, "__name__", None if kind is None else repr(kind)),
        "choices": None if action.choices is None else list(action.choices),
        "nargs": action.nargs,
        "required": action.required,
        "metavar": action.metavar,
        "help": action.help,
        "action": type(action).__name__,
    }


def parser_structure() -> str:
    from repro.cli import build_parser

    parser = build_parser()
    subparsers = next(action for action in parser._actions
                      if isinstance(action, argparse._SubParsersAction))
    helps = {choice.dest: choice.help
             for choice in subparsers._choices_actions}
    structure = {
        "prog": parser.prog,
        "description": parser.description,
        "commands": {
            name: {
                "help": helps.get(name),
                "arguments": [_action_record(action)
                              for action in sub._actions
                              if not isinstance(action, argparse._HelpAction)],
            }
            for name, sub in subparsers.choices.items()
        },
    }
    return json.dumps(structure, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# tests
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(WRITERS))
def test_writer_output_is_byte_identical(name):
    assert writer_output(name) == read(GOLDEN_DIR / name)


@pytest.mark.parametrize("prefix", sorted(RUNS))
def test_real_run_outputs_are_byte_identical(prefix):
    outputs, code = run_outputs(prefix)
    assert code == 0
    for name, text in sorted(outputs.items()):
        assert text == read(GOLDEN_DIR / name), name


def test_parser_structure_is_unchanged():
    assert parser_structure() == read(GOLDEN_DIR / "parser.json")


def regen() -> None:
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for name in WRITERS:
        (GOLDEN_DIR / name).write_bytes(writer_output(name).encode())
    for prefix in RUNS:
        outputs, code = run_outputs(prefix)
        assert code == 0, prefix
        for name, text in outputs.items():
            (GOLDEN_DIR / name).write_bytes(text.encode())
    (GOLDEN_DIR / "parser.json").write_bytes(parser_structure().encode())


if __name__ == "__main__" and sys.argv[1:] == ["regen"]:
    regen()
