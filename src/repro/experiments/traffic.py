"""Aggregate-traffic experiments: the ``repro traffic`` subcommand.

A traffic run configures a registry scenario exactly like a sweep run,
then drives a seeded demand set (:class:`~repro.traffic.DemandSpec`)
through the fluid fast path: every demand is resolved once against the
installed flow tables and advanced analytically, recomputed only at
events.  The run reports delivered vs. offered throughput, the loss
fraction, the incremental re-resolution counters and the hottest links
by utilization (busy-time integral and peak rate, from the interface
accounting the packet path shares).

Demands target the routers' loopback addresses, so the framework is run
with :attr:`FrameworkConfig.advertise_loopbacks` forced on — each
router-id /32 is announced into OSPF and RouteFlow installs a flow for
it on every other switch, giving the resolver a routable per-router
destination (the owner itself has no flow, exactly like the packet
pipeline, where the final hop's miss punts to the controller).

When the scenario carries a failure schedule, the physical events are
mirrored into the RouteFlow virtual topology like ``repro failover``
does, so demand paths are invalidated by the *actual* RouteMod /
OFPFC_DELETE churn of the reconvergence, not by harness fiat.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field
from typing import List, Optional, Union

from repro.experiments.failover import _mirror_into_routeflow
from repro.experiments.harness import (configure, format_bits, format_seconds,
                                       format_table, json_key)
from repro.scenarios import FailureSchedule, ScenarioSpec, get
from repro.topology.graph import Topology
from repro.traffic import DemandSpec, FluidEngine, generate_demands

LOG = logging.getLogger(__name__)

#: Extra simulated seconds past the last demand/failure event, so expiry
#: and reconvergence fallout lands inside the measured window.
DEFAULT_SETTLE = 5.0

#: Simulated length of the traffic phase when every demand is open-ended
#: and no failure schedule bounds the run.
DEFAULT_WINDOW = 30.0

#: How many of the hottest links the result records.
TOP_LINKS = 10


@dataclass
class LinkUtilization:
    """Utilization of one physical link over the traffic window."""

    name: str
    busy_seconds: float
    #: Fraction of the traffic window the busier direction transmitted.
    utilization: float
    peak_bps: float


@dataclass
class TrafficResult:
    """The outcome of one fluid-traffic run."""

    EXPORTED_PROPERTIES = ("loss_fraction",)

    scenario: str
    family: str
    seed: int
    num_switches: int = json_key("switches")
    num_links: int = json_key("links")
    #: Simulated seconds to the initial automatic configuration (None when
    #: the scenario never configured — no demands run then).
    configured_seconds: Optional[float]
    model: str = "uniform"
    demands: int = 0
    commodities: int = 0
    delivered_commodities: int = 0
    #: Simulated length of the traffic window (configuration excluded).
    duration_seconds: float = 0.0
    offered_bits: float = 0.0
    delivered_bits: float = 0.0
    #: Resolution work: full path walks / table lookups (memoized), and
    #: the incremental-churn counters — commodity re-resolutions caused by
    #: route changes plus the demands riding inside them.
    resolutions: int = 0
    lookups: int = 0
    reresolutions: int = 0
    affected_demands: int = 0
    top_links: List[LinkUtilization] = field(default_factory=list)
    wall_seconds: float = 0.0

    @property
    def configured(self) -> bool:
        return self.configured_seconds is not None

    @property
    def loss_fraction(self) -> float:
        """Fraction of offered bits not delivered over the whole window."""
        if self.offered_bits <= 0.0:
            return 0.0
        return max(0.0, 1.0 - self.delivered_bits / self.offered_bits)

    @property
    def delivered(self) -> bool:
        """Did every commodity find a path (no unrouted/looping demand)?"""
        return self.configured and self.commodities > 0 \
            and self.delivered_commodities == self.commodities


def fluid_deadline(start: float, failures: Optional[FailureSchedule],
                   demand_set, window: float, settle: float) -> float:
    """When a fluid run that began at ``start`` ends.

    The traffic phase lasts until the last finite demand expires (and no
    less than the failure schedule), or — with only open-ended demands —
    ``window`` seconds past the schedule; ``settle`` seconds follow it.
    """
    if window <= 0:
        raise ValueError(f"the traffic window must be > 0 seconds, got {window}")
    if settle < 0:
        raise ValueError(f"the settle period must be >= 0 seconds, got {settle}")
    horizon = failures.duration if failures is not None else 0.0
    finite_ends = [d.end for d in demand_set if d.duration != float("inf")]
    if finite_ends:
        horizon = max([horizon] + finite_ends)
    elif horizon <= 0.0:
        horizon = window
    else:
        horizon += window
    return start + horizon + settle


class FluidRun:
    """A scenario configured for fluid traffic (``repro traffic``/``te``).

    Each router's loopback is advertised (a routable per-router demand
    destination), and a :class:`~repro.traffic.FluidEngine` is attached
    once the scenario has configured; :attr:`engine` stays None when it
    never did.  :meth:`run` then drives one demand set through it.
    """

    def __init__(self, spec: ScenarioSpec, topology: Topology) -> None:
        self.spec = spec
        self.testbed = configure(topology, spec.framework_config(topology),
                                 max_time=spec.max_time,
                                 advertise_loopbacks=True)
        self.engine: Optional[FluidEngine] = None
        self.duration = 0.0
        if self.testbed.configured_at is None:
            return
        self.addresses = {dpid: self.testbed.ipam.router_id(dpid)
                          for dpid in self.testbed.network.switches}
        self.owners = {int(address): dpid
                       for dpid, address in self.addresses.items()}
        self.engine = FluidEngine(self.testbed.sim, self.testbed.network,
                                  owner_of=self.owners.get)
        self.engine.attach()

    def run(self, demand_spec: DemandSpec, settle: float,
            window: float) -> int:
        """Register the demands, arm the scenario's failure schedule
        (mirrored into RouteFlow like ``repro failover``) and run to the
        end of the traffic phase; returns the demands registered."""
        sim, network = self.testbed.sim, self.testbed.network
        demand_set = generate_demands(demand_spec, self.addresses)
        start = sim.now
        registered = self.engine.register(demand_set)
        failures = self.spec.failures
        if failures is not None:
            network.add_failure_listener(_mirror_into_routeflow(
                network, self.testbed.framework.bus))
            network.schedule_failures(failures)
        sim.run(until=fluid_deadline(start, failures, demand_set, window,
                                     settle))
        self.engine.finalize()
        self.duration = sim.now - start
        return registered


def run_traffic(scenario: Union[str, ScenarioSpec],
                demands: Optional[DemandSpec] = None,
                settle: float = DEFAULT_SETTLE,
                window: float = DEFAULT_WINDOW) -> TrafficResult:
    """Configure a scenario and run a demand set through the fluid path.

    ``demands`` defaults to the scenario's own
    :attr:`~repro.scenarios.ScenarioSpec.demands` (and failing that, a
    small uniform set).  ``window`` bounds the traffic phase when every
    demand is open-ended; with finite demands the phase runs to the last
    expiry (plus ``settle``).
    """
    started = time.perf_counter()
    spec = scenario if isinstance(scenario, ScenarioSpec) else get(scenario)
    demand_spec = demands if demands is not None else spec.demands
    if demand_spec is None:
        demand_spec = DemandSpec()
    topology = spec.build_topology()
    fluid = FluidRun(spec, topology)
    result = TrafficResult(
        scenario=spec.name, family=spec.family, seed=spec.seed,
        num_switches=topology.num_nodes, num_links=topology.num_links,
        configured_seconds=fluid.testbed.configured_at,
        model=demand_spec.model)
    if fluid.engine is None:
        result.wall_seconds = time.perf_counter() - started
        return result

    result.demands = fluid.run(demand_spec, settle, window)
    elapsed = max(fluid.duration, 1e-12)
    result.duration_seconds = fluid.duration
    stats = fluid.engine.stats()
    result.commodities = int(stats["commodities"])
    result.delivered_commodities = int(stats["delivered_commodities"])
    result.offered_bits = stats["offered_bits"]
    result.delivered_bits = stats["delivered_bits"]
    result.resolutions = int(stats["resolutions"])
    result.lookups = int(stats["lookups"])
    result.reresolutions = int(stats["reresolutions"])
    result.affected_demands = int(stats["affected_demands"])
    ranked = sorted(fluid.testbed.network.links,
                    key=lambda link: -link.stats()["busy_seconds"])
    for link in ranked[:TOP_LINKS]:
        stats_ = link.stats()
        if stats_["busy_seconds"] <= 0.0:
            break
        busier = max(link.iface_a.tx_busy_seconds, link.iface_b.tx_busy_seconds)
        result.top_links.append(LinkUtilization(
            name=link.name, busy_seconds=stats_["busy_seconds"],
            utilization=min(1.0, busier / elapsed),
            peak_bps=stats_["peak_bps"]))
    result.wall_seconds = time.perf_counter() - started
    LOG.info("traffic: %s -> %d demands, %.1f%% loss", spec.name,
             result.demands, 100.0 * result.loss_fraction)
    return result


def render_traffic_table(results: List[TrafficResult]) -> str:
    """ASCII report of a traffic suite: throughput, loss, churn cost."""
    rows = []
    for result in results:
        if not result.configured:
            rows.append([result.scenario, "-", "-", "-", "-", "-", "-", "-"])
            continue
        rows.append([
            result.scenario,
            result.demands,
            f"{result.delivered_commodities}/{result.commodities}",
            format_bits(result.offered_bits),
            format_bits(result.delivered_bits),
            f"{100.0 * result.loss_fraction:.2f}%",
            result.reresolutions,
            result.affected_demands,
        ])
    table = format_table(
        ["scenario", "demands", "routed", "offered", "delivered", "loss",
         "re-resolved", "affected demands"], rows)
    notes = []
    for result in results:
        if not result.configured:
            notes.append(f"{result.scenario}: never configured — no traffic run")
            continue
        notes.append(
            f"{result.scenario}: configured in "
            f"{format_seconds(result.configured_seconds)}, "
            f"{format_seconds(result.duration_seconds)} traffic window, "
            f"{result.resolutions} path walks / {result.lookups} table "
            f"lookups for {result.demands} demands")
        for link in result.top_links[:3]:
            notes.append(
                f"  hot link {link.name}: {100.0 * link.utilization:.1f}% "
                f"utilized, peak {link.peak_bps / 1e6:.1f} Mbit/s")
    return table + "\n\n" + "\n".join(notes)
