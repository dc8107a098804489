"""The benchmark's three workloads, each driven through ``repro``'s public API.

A workload's set-up (``WORKLOADS[name](seed, smoke)``) turns a seed into a
:class:`Pass`: everything a timed run needs (topology, framework, attached
emulated network, generated inputs) is built there, and no simulated time
passes.  A pass then runs its timed phases in order; each phase is one
operation and is followed, outside the timed region, by its correctness
check.  ``counters()`` snapshots the program's own public counters and
simulated-time outputs, which must repeat exactly for a given seed and
source tree.

With ``smoke=True`` a workload builds a tiny network of the same shape
(for ``perfbench/smoke.py``) instead of the measured size.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import replace
from itertools import accumulate
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from repro.core.autoconfig import AutoConfigFramework
from repro.core.ipam import IPAddressManager
from repro.experiments.ctlscale import churn_schedule
from repro.experiments.failover import (_mirror_into_routeflow,
                                        verify_spf_rib_consistency)
from repro.experiments.interdomain import verify_interdomain
from repro.net.addresses import IPv4Network
from repro.scenarios import FailureSchedule, get
from repro.sim import SeededRandom, Simulator
from repro.te import TEController, ZebraActuator, make_policy
from repro.topology.emulator import EmulatedNetwork
from repro.topology.generators import as_map_from_topology
from repro.traffic import DELIVERED, FlowDemand, FluidEngine

#: Untraced passes per ``--trace 0`` run, within a budget of about 45 s a
#: run on average.  Their median damps host noise, which moves a single
#: 5-12 s phase by up to 30% from run to run.  A pass times about 12 s on
#: ``sharded-lossy-churn``, 17 s on ``torus-te`` (whose 2 passes take the
#: place of 2 of its 3 set-ups of 3-4 s) and 30 s on ``interdomain-flap``.
PASSES = {"torus-te": 2, "interdomain-flap": 1, "sharded-lossy-churn": 3}
#: Demand seed whose gravity masses make ``torus-te``'s traffic matrix.
MASS_SEED = 5
#: Simulated seconds of TE window past the scenario's failure schedule,
#: plus the settle tail ``repro te`` uses.
TE_WINDOW = 30.0
TE_SETTLE = 5.0
#: Quiet period with no FIB change before BGP counts as quiescent, and the
#: simulated budget for reaching it (the ``repro interdomain`` defaults).
BGP_SETTLE = 20.0
BGP_MAX_EXTRA = 600.0
#: The border flaps: how many eBGP border links bounce (the first ones of
#: the topology, one after another; more than one so a run times enough
#: churn to be steady), the lead time before each goes down, its downtime.
FLAP_BORDERS = 3
FLAP_LEAD = 10.0
FLAP_DOWN = 90.0
#: Controller churn pacing and its quiescence rule (``repro ctlscale``).
CHURN_SPACING = 30.0
CHURN_SETTLE = 15.0
CHURN_MAX_EXTRA = 900.0
#: Quiet period with no change in flows, retransmits or acks before the
#: lossy bus counts as settled (longer than the maximum retransmit
#: timeout), and the simulated budget for reaching it.
BUS_QUIET = 6.0
BUS_QUIET_MAX_EXTRA = 180.0
#: Bus fault profile of the lossy workload, on every RouteFlow and RPC topic.
BUS_FAULTS = {"drop": 0.05, "duplicate": 0.02, "reorder": 0.05, "jitter": 0.02}

#: (metric name, untimed preparation or None, timed run, untimed check).
Phase = Tuple[str, Optional[Callable[[], None]], Callable[[], None],
              Callable[[], List[str]]]


def _framework(spec, **overrides):
    """Build the topology, the framework (with ``overrides`` applied to the
    scenario's framework config) and the attached emulated network."""
    topology = spec.build_topology()
    config = spec.framework_config(topology)
    for key, value in overrides.items():
        setattr(config, key, value)
    sim = Simulator()
    ipam = IPAddressManager()
    framework = AutoConfigFramework(sim, config=config, ipam=ipam)
    network = EmulatedNetwork(sim, topology, ipam=ipam)
    framework.attach(network)
    return topology, sim, ipam, framework, network


def _loads_total(framework, key: str) -> int:
    return sum(load[key] for load in framework.shard_loads())


def _rfclients(plane):
    servers = ([shard.rfserver for shard in plane.shards]
               if hasattr(plane, "shards") else [plane])
    return [client for server in servers
            for client in server.rfclients.values()]


def _fib_change_log(sim, plane) -> List[float]:
    """Simulated times of every FIB change, across every VM."""
    times: List[float] = []
    for vm in plane.vms.values():
        vm.zebra.add_fib_listener(
            lambda prefix, new, old: times.append(sim.now))
    return times


def gravity_sample(addresses: Mapping[int, object], count: int,
                   rate_bps: float, seed: int) -> List[FlowDemand]:
    """``count`` demands drawn with ``seed`` from one fixed gravity matrix:
    the router masses ``repro.traffic.gravity_demands`` draws for
    :data:`MASS_SEED`.

    ``gravity_demands`` draws the masses and the demands from one seed, so
    each seed makes a different matrix, and how much of it crosses the hot
    link decides the TE work: 12 to 100 re-routes over demand seeds 10-19,
    and a TE window up to twice as long.  Here the seed varies only which
    demands are drawn, so every seed costs about the same work.  The
    demand draws skip as many random numbers as the masses take, so
    ``seed == MASS_SEED`` gives exactly ``gravity_demands``'s demands.
    """
    dpids = sorted(addresses)
    masses_rng = SeededRandom(MASS_SEED)
    cumulative = list(accumulate(min(100.0, masses_rng.random() ** -0.8)
                                 for _ in dpids))
    total = cumulative[-1]
    rng = SeededRandom(seed)
    for _ in dpids:
        rng.random()

    def draw() -> int:
        return min(bisect_right(cumulative, rng.uniform(0.0, total)),
                   len(dpids) - 1)

    demands = []
    for _ in range(count):
        src = draw()
        dst = draw()
        while dst == src:
            dst = draw()
        demands.append(FlowDemand(dpids[src], addresses[dpids[dst]],
                                  rate_bps))
    return demands


class Pass:
    """One seeded instance of a workload, ready to run its timed phases."""

    def __init__(self, sim, framework, network) -> None:
        self.sim = sim
        self.framework = framework
        self.network = network
        #: Simulated-time outputs and work counts the workload itself
        #: measures (configured time, flap results, ...).
        self.outputs: Dict[str, float] = {}

    def phases(self) -> List[Phase]:
        raise NotImplementedError

    def counters(self) -> Dict[str, float]:
        """The program's public counters plus the simulated outputs."""
        framework = self.framework
        plane = framework.control_plane
        bus = framework.bus.stats()["_totals"]
        net = self.network.stats()
        counts = {
            "sim.events": self.sim.processed_events,
            "sim.now": self.sim.now,
            "net.frames": net["link_tx_frames"],
            "net.frames_dropped": net["frames_dropped"],
            "routeflow.route_mods": _loads_total(framework, "route_mods"),
            "routeflow.route_mods_parked": _loads_total(framework,
                                                        "route_mods_parked"),
            "routeflow.flow_installs": _loads_total(framework,
                                                    "flow_mods_installed"),
            "routeflow.flow_removes": _loads_total(framework,
                                                   "flow_mods_removed"),
            "routeflow.flows": _loads_total(framework, "flows_current"),
            "routeflow.sharding.takeovers": getattr(plane, "takeovers", 0),
            "routeflow.sharding.reshards": getattr(plane, "reshards", 0),
            "routeflow.sharding.resyncs": sum(client.resyncs for client
                                              in _rfclients(plane)),
            "bus.publishes": bus["published"],
            "bus.bytes": bus["bytes_published"],
            "bus.delivered": bus["delivered"],
            "bus.dropped_fault": bus["dropped_fault"],
            "bus.retransmits": bus["retransmits"],
            "bus.rx_duplicates": bus["rx_duplicates"],
            "bus.rx_out_of_order": bus["rx_out_of_order"],
            "quagga.ospf.spf_runs": sum(vm.ospf.spf_runs
                                        for vm in plane.vms.values()
                                        if vm.ospf is not None),
            "quagga.bgp.updates_rx": _loads_total(framework,
                                                  "bgp_updates_received"),
            "quagga.bgp.updates_tx": _loads_total(framework,
                                                  "bgp_updates_sent"),
            "quagga.bgp.withdrawals_tx": _loads_total(framework,
                                                      "bgp_withdrawals_sent"),
        }
        counts.update(self.outputs)
        return counts


# --------------------------------------------------------------------------
# torus-te: the Figure 3 pipeline, then fluid traffic under greedy TE
# --------------------------------------------------------------------------
class TorusTE(Pass):

    def __init__(self, spec, count: int, seed: int) -> None:
        _, sim, ipam, framework, network = _framework(
            spec, advertise_loopbacks=True)
        super().__init__(sim, framework, network)
        self.spec = spec
        self.addresses = {dpid: ipam.router_id(dpid)
                          for dpid in network.switches}
        # The scenario's own offered load, split over ``count`` demands.
        offered = spec.demands.count * spec.demands.rate_bps
        self.demands = gravity_sample(self.addresses, count, offered / count,
                                      seed)
        self.engine: Optional[FluidEngine] = None
        self.controller: Optional[TEController] = None

    def phases(self) -> List[Phase]:
        return [("configure_s", None, self.configure, self.check_configured),
                ("ingest_s", self.arm, self.ingest, self.check_ingested),
                ("churn_s", None, self.te_window, self.check_window)]

    def configure(self) -> None:
        self.outputs["configured_seconds"] = \
            self.framework.run_until_configured(max_time=self.spec.max_time)

    def check_configured(self) -> List[str]:
        if self.outputs["configured_seconds"] is None:
            return ["never configured"]
        return verify_spf_rib_consistency(self.framework.control_plane)

    def arm(self) -> None:
        """Attach the fluid engine and the TE loop to the configured plane
        (the ``repro te`` zebra-engine wiring) and scale the hot link."""
        spec, network = self.spec, self.network
        owners = {int(address): dpid
                  for dpid, address in self.addresses.items()}
        engine = FluidEngine(self.sim, network, owner_of=owners.get)
        engine.attach()
        node_a, node_b = spec.te.hot_link_pair()
        port_a, _ = network.ports_for_link(node_a, node_b)
        network.switches[node_a].port(port_a).interface.link.bandwidth_bps \
            *= spec.te.hot_capacity_scale
        actuator = ZebraActuator(
            self.framework.control_plane, network,
            prefix_of=lambda dst: IPv4Network((self.addresses[dst], 32)))
        controller = TEController(self.sim, network, actuator, spec=spec.te,
                                  policy=make_policy(spec.te), engine=engine,
                                  owner_of=owners.get)
        controller.start()
        self.engine, self.controller = engine, controller

    def ingest(self) -> None:
        self.engine.register(self.demands)
        self.engine.reallocate()

    def check_ingested(self) -> List[str]:
        stats = self.engine.stats()
        problems = []
        if stats["demands"] != len(self.demands):
            problems.append(f"{stats['demands']} of {len(self.demands)} "
                            f"demands registered")
        if stats["offered_bps"] <= 0.0:
            problems.append("first allocation offered no traffic")
        return problems

    def te_window(self) -> None:
        network = self.network
        network.add_failure_listener(
            _mirror_into_routeflow(network, self.framework.bus))
        network.schedule_failures(self.spec.failures)
        horizon = self.spec.failures.duration + TE_WINDOW + TE_SETTLE
        self.sim.run(until=self.sim.now + horizon)
        self.engine.finalize()
        self.controller.stop()

    def check_window(self) -> List[str]:
        statuses: Dict[str, int] = {}
        for commodity in self.engine.commodities.values():
            status = commodity.path.status if commodity.path else "unresolved"
            statuses[status] = statuses.get(status, 0) + 1
        problems = [f"{count} commodities {status} after the TE window"
                    for status, count in sorted(statuses.items())
                    if status != DELIVERED]
        return problems + verify_spf_rib_consistency(
            self.framework.control_plane)

    def counters(self) -> Dict[str, float]:
        counts = super().counters()
        if self.engine is not None:
            fluid = self.engine.stats()
            counts.update({
                "traffic.demands": fluid["demands"],
                "traffic.commodities": fluid["commodities"],
                "traffic.walks": fluid["resolutions"],
                "traffic.lookups": fluid["lookups"],
                "traffic.reresolutions": fluid["reresolutions"],
                "traffic.affected_demands": fluid["affected_demands"],
                "traffic.delivered_bits": fluid["delivered_bits"],
                "traffic.offered_bits": fluid["offered_bits"],
            })
        if self.controller is not None:
            te = self.controller.stats()
            counts.update({f"te.{key}": te[key] for key in (
                "samples", "decisions", "reroutes", "steers",
                "steer_changes", "ksp_hits", "ksp_computations")})
        return counts


# --------------------------------------------------------------------------
# interdomain-flap: BGP convergence, then eBGP border links bounce in turn
# --------------------------------------------------------------------------
class InterdomainFlap(Pass):

    def __init__(self, spec) -> None:
        topology, sim, _, framework, network = _framework(spec)
        super().__init__(sim, framework, network)
        self.spec = spec
        self.as_map = as_map_from_topology(topology)
        self.borders = [(link.node_a, link.node_b) for link in topology.links
                        if self.as_map[link.node_a]
                        != self.as_map[link.node_b]][:FLAP_BORDERS]
        self.changes: List[float] = []
        self.settled = True
        #: Per flapped border: what the check judges, read at the end of
        #: its down window and after its restore.
        self.flaps: List[Dict[str, object]] = []

    def phases(self) -> List[Phase]:
        return [("configure_s", None, self.configure, self.check_configured),
                ("churn_s", None, self.flap, self.check_flap)]

    def _quiesce(self, deadline: float) -> bool:
        """Run until no FIB changed for ``BGP_SETTLE`` simulated seconds."""
        anchor = self.sim.now
        while self.sim.now < deadline:
            self.sim.run(until=min(self.sim.now + 1.0, deadline))
            last = self.changes[-1] if self.changes else anchor
            if self.sim.now >= last + BGP_SETTLE:
                return True
        return False

    def configure(self) -> None:
        configured = self.framework.run_until_configured(
            max_time=self.spec.max_time)
        self.outputs["configured_seconds"] = configured
        if configured is None:
            return
        self.changes = _fib_change_log(self.sim,
                                       self.framework.control_plane)
        self.settled = self._quiesce(configured + BGP_MAX_EXTRA)
        self.outputs["converged_seconds"] = (self.changes[-1] if self.changes
                                             else configured)
        self.outputs["steady_flows"] = _loads_total(self.framework,
                                                    "flows_current")

    def check_configured(self) -> List[str]:
        if self.outputs["configured_seconds"] is None:
            return ["never configured"]
        problems = [] if self.settled else ["BGP never went quiescent"]
        return problems + verify_interdomain(self.framework.control_plane,
                                             self.as_map)

    def _session_states(self, border) -> List[str]:
        """States of the eBGP sessions across one border link."""
        vms = self.framework.control_plane.vms
        vm_a, vm_b = vms[border[0]], vms[border[1]]
        states = []
        for first, second in ((vm_a, vm_b), (vm_b, vm_a)):
            for session in first.bgp.sessions.values():
                if not session.is_ibgp \
                        and second.owns_ip(session.peer_address) is not None:
                    states.append(session.state)
        return states

    def flap(self) -> None:
        network = self.network
        network.add_failure_listener(
            _mirror_into_routeflow(network, self.framework.bus))
        for border in self.borders:
            removed_before = _loads_total(self.framework, "flow_mods_removed")
            network.schedule_failures(FailureSchedule.single_link_failure(
                border[0], border[1], at=FLAP_LEAD, restore_after=FLAP_DOWN))
            down_at = self.sim.now + FLAP_LEAD
            up_at = down_at + FLAP_DOWN
            self.sim.run(until=down_at)
            self.settled &= self._quiesce(min(up_at,
                                              down_at + BGP_MAX_EXTRA))
            down_states = self._session_states(border)
            withdrawn = (_loads_total(self.framework, "flow_mods_removed")
                         - removed_before)
            self.sim.run(until=up_at)
            self.settled &= self._quiesce(up_at + BGP_MAX_EXTRA)
            self.flaps.append({
                "border": border, "down_states": down_states,
                "withdrawn": withdrawn,
                "up_states": self._session_states(border),
                "flows": _loads_total(self.framework, "flows_current")})

    def check_flap(self) -> List[str]:
        steady = self.outputs["steady_flows"]
        self.outputs["withdrawn_flow_mods"] = sum(flap["withdrawn"]
                                                  for flap in self.flaps)
        self.outputs["final_flows"] = _loads_total(self.framework,
                                                   "flows_current")
        problems = [] if self.settled else ["a flap never went quiescent"]
        for flap in self.flaps:
            border, up_states = flap["border"], flap["up_states"]
            if any(state == "Established" for state in flap["down_states"]):
                problems.append(f"{border}: eBGP sessions stayed up across "
                                f"the failed link")
            if flap["withdrawn"] <= 0:
                problems.append(f"{border}: no withdrawal reached the "
                                f"switches")
            if not up_states or any(state != "Established"
                                    for state in up_states):
                problems.append(f"{border}: sessions not re-established: "
                                f"{up_states}")
            if flap["flows"] != steady:
                problems.append(f"{border}: {flap['flows']} flows after the "
                                f"flap, {steady} before")
        return problems + verify_interdomain(self.framework.control_plane,
                                             self.as_map)


# --------------------------------------------------------------------------
# sharded-lossy-churn: 4 shards over a faulty bus, then controller churn
# --------------------------------------------------------------------------
class ShardedLossyChurn(Pass):

    def __init__(self, spec, seed: int) -> None:
        topology, sim, _, framework, network = _framework(
            spec, bus_faults={"routeflow.*": dict(BUS_FAULTS),
                              "config.rpc": dict(BUS_FAULTS)},
            bus_fault_seed=seed)
        super().__init__(sim, framework, network)
        self.spec = spec
        self.schedule = churn_schedule(
            spec.controllers, [node.node_id for node in topology.nodes],
            list(network.link_ports), seed=seed, spacing=CHURN_SPACING)
        self.schedule.validate_against(
            network.switches, list(network.link_ports),
            shards=spec.controllers)
        self.changes: List[float] = []
        #: Whether the bus went quiet after configuration, and whether the
        #: churn went quiescent.
        self.quiet = False
        self.settled = False

    def phases(self) -> List[Phase]:
        return [("configure_s", None, self.configure, self.check_configured),
                ("churn_s", None, self.churn, self.check_churn)]

    def _signature(self) -> Tuple[int, int, int]:
        totals = self.framework.bus.stats()["_totals"]
        return (_loads_total(self.framework, "flows_current"),
                totals["retransmits"], totals["acked"])

    def configure(self) -> None:
        sim = self.sim
        configured = self.framework.run_until_configured(
            max_time=self.spec.max_time, settle=5.0)
        self.outputs["configured_seconds"] = configured
        if configured is None:
            return
        # Retransmits outlive the VM-running milestone on a lossy bus: the
        # steady state is reached once flows, retransmits and acks all stay
        # put for longer than the maximum retransmit timeout.
        signature, quiet_since = self._signature(), sim.now
        deadline = sim.now + BUS_QUIET_MAX_EXTRA
        while sim.now < deadline:
            sim.run(until=sim.now + 1.0)
            current = self._signature()
            if current != signature:
                signature, quiet_since = current, sim.now
            elif sim.now - quiet_since >= BUS_QUIET:
                self.quiet = True
                break
        self.outputs["steady_flows"] = _loads_total(self.framework,
                                                    "flows_current")
        self.outputs["steady_seconds"] = sim.now

    def check_configured(self) -> List[str]:
        if self.outputs["configured_seconds"] is None:
            return ["never configured"]
        plane = self.framework.control_plane
        problems = [] if self.quiet else ["the bus never went quiet"]
        return (problems + verify_spf_rib_consistency(plane)
                + plane.ownership_violations())

    def churn(self) -> None:
        sim, network = self.sim, self.network
        self.changes = _fib_change_log(sim, self.framework.control_plane)
        network.add_failure_listener(
            _mirror_into_routeflow(network, self.framework.bus))
        network.schedule_failures(self.schedule)
        horizon = sim.now + self.schedule.duration
        deadline = horizon + CHURN_MAX_EXTRA
        while sim.now < deadline:
            sim.run(until=min(sim.now + 1.0, deadline))
            if sim.now >= max([horizon] + self.changes[-1:]) + CHURN_SETTLE:
                self.settled = True
                break

    def check_churn(self) -> List[str]:
        plane = self.framework.control_plane
        flows = _loads_total(self.framework, "flows_current")
        self.outputs["final_flows"] = flows
        problems = [] if self.settled else ["churn never went quiescent"]
        if flows != self.outputs["steady_flows"]:
            problems.append(f"{flows} flows after churn, "
                            f"{self.outputs['steady_flows']} before")
        return (problems + verify_spf_rib_consistency(plane)
                + plane.ownership_violations()
                + plane.orphaned_parked_route_mods())


# --------------------------------------------------------------------------
# registry
# --------------------------------------------------------------------------
def _torus_te(seed: int, smoke: bool) -> TorusTE:
    if smoke:
        return TorusTE(replace(get("te-torus-8x8"),
                               params={"rows": 4, "cols": 4}), 20_000, seed)
    return TorusTE(get("te-torus-8x8"), 1_000_000, seed)


def _interdomain_flap(seed: int, smoke: bool) -> InterdomainFlap:
    if smoke:
        return InterdomainFlap(get("interdomain-3as"))
    return InterdomainFlap(replace(get("interdomain-100as"), seed=seed))


def _sharded_lossy_churn(seed: int, smoke: bool) -> ShardedLossyChurn:
    return ShardedLossyChurn(get("ring-16-c2" if smoke else "torus-8x8-c4"),
                             seed)


#: Workload name -> set-up ``(seed, smoke) -> Pass``.
WORKLOADS: Dict[str, Callable[[int, bool], Pass]] = {
    "torus-te": _torus_te,
    "interdomain-flap": _interdomain_flap,
    "sharded-lossy-churn": _sharded_lossy_churn,
}
