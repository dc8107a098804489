"""Tests for the experiment harness: configure and settle, plus the
command-line contract that bad settle/window/demand values exit 2.

The export half of the harness is covered in test_experiment_export.py.
"""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.core import FrameworkConfig
from repro.experiments import build, configure, run_until_quiet
from repro.experiments.failover import _mirror_into_routeflow
from repro.experiments.harness import FibChanges
from repro.experiments.traffic import fluid_deadline
from repro.scenarios import FailureSchedule, ScenarioSpec
from repro.sim import Simulator
from repro.topology.generators import ring_topology

FAST = {"vm_boot_delay": 1.0, "ospf_hello_interval": 2,
        "ospf_dead_interval": 8}


class TestConfigure:
    def test_build_runs_no_simulated_time(self):
        testbed = build(ring_topology(3),
                        FrameworkConfig(detect_edge_ports=False))
        assert testbed.sim.now == 0.0
        assert testbed.configured_at is None
        assert testbed.framework.network is testbed.network

    def test_scenario_overrides(self):
        spec = ScenarioSpec("h-ring", "ring", {"num_switches": 3},
                            framework=FAST, max_time=600.0)
        testbed = configure(spec, advertise_loopbacks=True)
        assert testbed.framework.config.advertise_loopbacks
        assert testbed.framework.config.vm_boot_delay == 1.0
        assert testbed.configured_at is not None
        assert testbed.total_load("flows_current") > 0

    def test_scenario_time_budget(self):
        spec = ScenarioSpec("h-ring", "ring", {"num_switches": 3},
                            framework=FAST, max_time=5.0)
        testbed = configure(spec)
        assert testbed.configured_at is None
        assert testbed.sim.now == 5.0


class TestSettle:
    def test_rejects_non_positive_settle(self):
        sim = Simulator()
        for settle in (0.0, -5.0):
            with pytest.raises(ValueError, match="settle"):
                run_until_quiet(sim, lambda: 0.0, settle, 100.0)
        assert sim.now == 0.0

    def test_quiet_after_last_activity(self):
        sim = Simulator()
        sim.schedule(3.5, lambda: None)
        assert run_until_quiet(sim, lambda: 3.5, 2.0, 100.0)
        assert sim.now == 6.0

    def test_deadline_first(self):
        sim = Simulator()
        assert not run_until_quiet(sim, lambda: sim.now, 2.0, 4.5)
        assert sim.now == 4.5

    def test_fib_changes_record_failover_churn(self):
        spec = ScenarioSpec("h-ring-4", "ring", {"num_switches": 4},
                            framework=FAST, max_time=600.0)
        testbed = configure(spec)
        sim, network = testbed.sim, testbed.network
        changes = FibChanges(sim, testbed.framework.control_plane)
        assert changes.latest(-1.0) == -1.0
        network.add_failure_listener(_mirror_into_routeflow(
            network, testbed.framework.bus))
        network.schedule_failures(
            FailureSchedule.single_link_failure(1, 2, at=5.0))
        down_at = sim.now + 5.0
        sim.run(until=down_at + 60.0)
        assert changes.times and changes.times == sorted(changes.times)
        assert changes.since(down_at) == changes.times
        assert changes.latest(-1.0) == changes.times[-1]
        changes.clear()
        assert changes.times == []


class TestFluidDeadline:
    def test_rejects_bad_window_and_settle(self):
        with pytest.raises(ValueError, match="window"):
            fluid_deadline(0.0, None, [], 0.0, 5.0)
        with pytest.raises(ValueError, match="window"):
            fluid_deadline(0.0, None, [], -10.0, 5.0)
        with pytest.raises(ValueError, match="settle"):
            fluid_deadline(0.0, None, [], 30.0, -1.0)

    def test_zero_settle_and_open_ended_window(self):
        assert fluid_deadline(10.0, None, [], 30.0, 0.0) == 40.0
        schedule = FailureSchedule.single_link_failure(1, 2, at=5.0,
                                                       restore_after=20.0)
        assert fluid_deadline(10.0, schedule, [], 30.0, 5.0) == \
            10.0 + 25.0 + 30.0 + 5.0


class TestCLIRejectsBadArguments:
    """Invalid values exit 2 ("bad arguments") with an ``error:`` line,
    never a traceback or a misleading success."""

    @pytest.mark.parametrize("argv", [
        ["te", "--scenario", "ring-4", "--demands", "0"],
        ["te", "--scenario", "ring-4", "--rate", "-1"],
        ["te", "--scenario", "ring-4", "--window", "0"],
        ["traffic", "--scenario", "ring-4", "--demands", "5",
         "--window", "-10"],
        ["traffic", "--scenario", "ring-4", "--settle", "-1"],
        ["failover", "--scenario", "ring-4", "--link-down", "1:2@10",
         "--settle", "-5"],
        ["failover", "--scenario", "ring-4", "--link-down", "1:2@10",
         "--settle", "0"],
        ["interdomain", "--scenario", "interdomain-3as", "--settle", "-1"],
        ["ctlscale", "--scenario", "ring-4", "--controllers", "2",
         "--churn", "--settle", "-100"],
    ], ids=lambda argv: " ".join(argv[:1] + argv[3:]))
    def test_exit_2(self, argv, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert "Traceback" not in captured.err

    def test_churn_rejects_csv(self, capsys, tmp_path):
        assert main(["ctlscale", "--scenario", "ring-4", "--churn",
                     "--csv", str(tmp_path / "c.csv")]) == 2
        assert "--csv is not supported with --churn" in capsys.readouterr().err

    def test_failover_without_schedule(self, capsys):
        assert main(["failover", "--scenario", "ring-4"]) == 2
        assert "carries no failure schedule" in capsys.readouterr().err
