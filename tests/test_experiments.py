"""Tests for the experiment harness (Figure 3, the demo and the ablations)."""

from __future__ import annotations

import pytest

from repro.core import FrameworkConfig
from repro.experiments import (
    format_seconds,
    format_table,
    render_ablation_table,
    render_config_time_table,
    render_demo_report,
    run_config_time_sweep,
    run_demo,
    run_single_configuration,
    run_vm_latency_ablation,
)
from repro.experiments.config_time import ConfigTimeResult
from repro.topology.generators import linear_topology, ring_topology


def quick_config(**overrides) -> FrameworkConfig:
    defaults = dict(vm_boot_delay=1.0, ospf_hello_interval=2, ospf_dead_interval=8,
                    discovery_probe_interval=2.0, detect_edge_ports=False,
                    monitor_interval=0.5)
    defaults.update(overrides)
    return FrameworkConfig(**defaults)


class TestResultFormatting:
    def test_format_table_aligns_columns(self):
        table = format_table(["a", "bbbb"], [[1, 2], [333, 4]])
        lines = table.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a ")
        assert "333" in lines[3]

    def test_format_seconds_scales_units(self):
        assert format_seconds(None) == "n/a"
        assert format_seconds(30) == "30.0 s"
        assert format_seconds(600) == "10.0 min"
        assert format_seconds(7 * 3600) == "7.0 h"

    def test_config_time_result_derived_fields(self):
        result = ConfigTimeResult(num_switches=4, num_links=4,
                                  auto_seconds=120.0, manual_seconds=3600.0)
        assert result.auto_minutes == 2.0
        assert result.manual_minutes == 60.0
        assert result.speedup == 30.0
        missing = ConfigTimeResult(num_switches=4, num_links=4,
                                   auto_seconds=None, manual_seconds=3600.0)
        assert missing.speedup is None


class TestConfigTimeExperiment:
    def test_single_configuration_measures_auto_and_manual(self):
        result = run_single_configuration(ring_topology(4), config=quick_config(),
                                          max_time=600.0)
        assert result.auto_seconds is not None
        assert result.auto_seconds > 0
        assert result.manual_seconds == 4 * 15 * 60
        assert "ospf_converged" in result.milestones
        assert result.auto_seconds < result.manual_seconds

    def test_sweep_shows_manual_growing_much_faster(self):
        results = run_config_time_sweep(ring_sizes=(4, 8), config=quick_config(),
                                        max_time=900.0)
        assert len(results) == 2
        assert results[1].manual_seconds == 2 * results[0].manual_seconds
        # Automatic configuration grows far slower than the 15 min/switch
        # manual baseline.
        auto_growth = results[1].auto_seconds - results[0].auto_seconds
        manual_growth = results[1].manual_seconds - results[0].manual_seconds
        assert auto_growth < manual_growth / 10
        table = render_config_time_table(results)
        assert "switches" in table and "manual" in table

    def test_works_on_non_ring_topologies(self):
        result = run_single_configuration(linear_topology(3), config=quick_config(),
                                          max_time=600.0)
        assert result.auto_seconds is not None
        assert result.num_links == 2


class TestDemoExperiment:
    def test_demo_on_small_topology_delivers_video(self):
        result = run_demo(topology=linear_topology(3), server_node=1, client_node=3,
                          config=quick_config(detect_edge_ports=True,
                                              edge_port_grace=5.0),
                          max_time=600.0, extra_run_time=10.0)
        assert result.num_switches == 3
        assert result.configuration_seconds is not None
        assert result.video_start_seconds is not None
        assert result.frames_received > 0
        assert result.video_start_seconds < result.manual_seconds
        assert len(result.green_timeline) == 3
        report = render_demo_report(result)
        assert "first video frame" in report
        assert "Manual configuration" in report

    def test_demo_report_without_video(self):
        from repro.experiments.demo import DemoResult

        result = DemoResult(topology_name="t", num_switches=2, num_links=1,
                            video_start_seconds=None, configuration_seconds=None,
                            manual_seconds=1800.0, frames_received=0, frames_sent=10)
        report = render_demo_report(result)
        assert "did not reach" in report


class TestAblations:
    def test_vm_latency_ablation_is_monotone(self):
        results = run_vm_latency_ablation(boot_delays=(0.5, 5.0), num_switches=4,
                                          max_time=900.0)
        assert len(results) == 2
        assert results[0].auto_seconds is not None
        assert results[1].auto_seconds is not None
        assert results[0].auto_seconds < results[1].auto_seconds
        table = render_ablation_table(results, title="A2")
        assert table.startswith("A2")
        assert "vm_boot_delay_s" in table
