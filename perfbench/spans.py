"""Span tracing by class-level wrappers, installed only for a traced pass.

:class:`Tracer` patches the entry points in :data:`ENTRY_POINTS` (the way
``repro interdomain --profile`` patches its phases) while it is active and
restores the originals on exit, so untraced passes run unmodified code.
Each wrapped call

* records a span ``(id, parent id, entry point, start, end)`` in memory,
  up to :data:`SPAN_CAP` spans per tracer (later spans still count and
  time, but are not kept), and
* counts the call at that same boundary; a few entry points also inspect
  their result to count useful outcomes (see :meth:`Tracer._observe`).

A layer's self time is the duration of its spans minus the time covered
by their child spans.  Time inside a traced phase but outside every span
is *unattributed*.  It is not derived from the self times: the tracer
adds up the gaps before each root span and the tail after the last one,
and times each activation from its own entry to its exit.  So
``sum(self_s) + unattributed == wall_s`` holds only if child time is
subtracted exactly once and root spans follow one another without
overlapping; :meth:`Tracer.accounting_problems` checks it.  A wrapper
that runs while its tracer is inactive (a wrapped bound method kept
past the end of a phase) is counted as a stray call, which also fails
that check.
"""

from __future__ import annotations

import importlib
import json
from array import array
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Tuple

#: (layer, module, owner class or None for a module function, attribute).
ENTRY_POINTS: Tuple[Tuple[str, str, object, str], ...] = (
    ("sim", "repro.sim.kernel", "Simulator", "run"),
    ("sim", "repro.sim.kernel", "Simulator", "schedule"),
    ("net", "repro.net.link", "Link", "transmit"),
    ("openflow", "repro.openflow.channel", "ControlChannel", "send"),
    ("openflow", "repro.openflow.flow_table", "FlowTable", "add"),
    ("openflow", "repro.openflow.flow_table", "FlowTable", "modify"),
    ("openflow", "repro.openflow.flow_table", "FlowTable", "delete"),
    ("openflow", "repro.openflow.flow_table", "FlowTable", "lookup"),
    ("flowvisor", "repro.flowvisor.proxy", "FlowVisor", "channel_receive"),
    ("controller", "repro.controller.discovery", "TopologyDiscovery",
     "on_packet_in"),
    ("core", "repro.core.rpc", "RPCServer", "receive"),
    ("routeflow", "repro.routeflow.rfserver", "RFServer",
     "receive_route_mod"),
    ("routeflow", "repro.routeflow.rfproxy", "RFProxy", "install_route"),
    ("routeflow", "repro.routeflow.rfproxy", "RFProxy", "remove_route"),
    ("routeflow.sharding", "repro.routeflow.sharding", "ShardedControlPlane",
     "takeover"),
    ("routeflow.sharding", "repro.routeflow.sharding", "ShardedControlPlane",
     "reshard"),
    ("routeflow.sharding", "repro.routeflow.rfclient", "RFClient", "resync"),
    ("bus", "repro.bus.bus", "MessageBus", "publish"),
    ("bus", "repro.bus.reliable", "ReliablePublisher", "publish"),
    # The daemon calls compute_routes through its own module's name.
    ("quagga.ospf", "repro.quagga.ospf.daemon", None, "compute_routes"),
    ("quagga.ospf", "repro.quagga.ospf.daemon", "OSPFDaemon", "spf_routes"),
    ("quagga.ospf", "repro.quagga.ospf.daemon", "OSPFDaemon",
     "receive_packet"),
    ("quagga.ospf", "repro.quagga.ospf.lsdb", "LSDB", "install"),
    ("quagga.rib", "repro.quagga.rib", "RIB", "replace_routes"),
    ("quagga.bgp", "repro.quagga.bgp.daemon", "BGPDaemon",
     "receive_announcement"),
    ("quagga.bgp", "repro.quagga.bgp.daemon", "BGPDaemon",
     "receive_update_batch"),
    ("traffic", "repro.traffic.fluid", "FluidEngine", "register"),
    ("traffic", "repro.traffic.fluid", "FluidEngine", "reallocate"),
    ("traffic", "repro.traffic.fluid", None, "max_min_allocation"),
    ("traffic", "repro.traffic.resolver", "PathResolver", "resolve"),
    ("te", "repro.te.policy", "GreedyLeastUtilizedPolicy", "decide"),
    ("te", "repro.te.policy", "StaticECMPPolicy", "decide"),
    ("te", "repro.te.policy", "BanditPolicy", "decide"),
    ("te", "repro.te.ksp", "KShortestPathEngine", "paths"),
    ("te", "repro.te.controller", "ZebraActuator", "apply"),
)

LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(layer for layer, *_ in
                                              ENTRY_POINTS))

#: Spans kept per tracer; later ones are still counted and timed.
SPAN_CAP = 100_000


def entry_name(module: str, owner, attr: str) -> str:
    return f"{owner}.{attr}" if owner else f"{module.rsplit('.', 1)[1]}.{attr}"


class Tracer:
    """Context manager that wraps :data:`ENTRY_POINTS` while active.

    One tracer may be entered several times (once per timed phase); spans,
    counts and self times accumulate across its activations.
    """

    def __init__(self) -> None:
        self.names: List[str] = [entry_name(m, o, a)
                                 for _, m, o, a in ENTRY_POINTS]
        self.calls: Dict[str, int] = dict.fromkeys(self.names, 0)
        self.self_s: Dict[str, float] = dict.fromkeys(LAYERS, 0.0)
        #: Inclusive span time per entry point.
        self.inclusive_s: Dict[str, float] = dict.fromkeys(self.names, 0.0)
        #: Time from each activation's entry to its exit, summed.
        self.wall_s = 0.0
        #: Time of the activations outside every span: the gap before each
        #: root span plus the tail after the last one.
        self.unattributed_s = 0.0
        #: Wrapper calls made while the tracer was inactive.
        self.stray_calls = 0
        self._active = False
        #: End of the last root span, or entry of the current activation.
        self._mark = 0.0
        #: Useful-outcome counters filled by :meth:`_observe`.
        self.useful: Dict[str, int] = {"spf_changed": 0, "fib_changes": 0,
                                       "reresolutions": 0,
                                       "reresolutions_changed": 0}
        self._last_spf: Dict[object, object] = {}
        self._last_path: Dict[Tuple[int, int], tuple] = {}
        self.spans = {"id": array("q"), "parent": array("q"),
                      "name": array("l"), "start": array("d"),
                      "end": array("d")}
        self.spans_seen = 0
        self._stack: List[list] = []
        self._patched: List[Tuple[object, str, object]] = []
        self._origin = perf_counter()

    # ----------------------------------------------------------- wrapping
    def _observe(self, name: str, args, result) -> None:
        """Count useful outcomes where an entry point can waste work."""
        useful = self.useful
        if name == "OSPFDaemon.spf_routes":
            daemon = args[0]
            if result != self._last_spf.get(daemon, {}):
                useful["spf_changed"] += 1
            self._last_spf[daemon] = result
        elif name == "RIB.replace_routes":
            useful["fib_changes"] += len(result)
        elif name == "PathResolver.resolve":
            key = (args[1], args[2])
            walk = (result.status, result.dpids)
            previous = self._last_path.get(key)
            if previous is not None:
                useful["reresolutions"] += 1
                useful["reresolutions_changed"] += previous != walk
            self._last_path[key] = walk

    def _wrap(self, index: int, layer: str, original):
        tracer = self
        name = self.names[index]
        stack = self._stack
        spans = self.spans
        observe = name in ("OSPFDaemon.spf_routes", "RIB.replace_routes",
                           "PathResolver.resolve")

        def wrapper(*args, **kwargs):
            if not tracer._active:
                tracer.stray_calls += 1
                return original(*args, **kwargs)
            span_id = tracer.spans_seen
            tracer.spans_seen = span_id + 1
            parent = stack[-1] if stack else None
            frame = [span_id, perf_counter(), 0.0]
            if parent is None:
                tracer.unattributed_s += frame[1] - tracer._mark
            stack.append(frame)
            try:
                result = original(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - frame[1]
                tracer.self_s[layer] += duration - frame[2]
                tracer.inclusive_s[name] += duration
                tracer.calls[name] += 1
                if parent is None:
                    tracer._mark = end
                else:
                    parent[2] += duration
                if span_id < SPAN_CAP:
                    spans["id"].append(span_id)
                    spans["parent"].append(-1 if parent is None
                                           else parent[0])
                    spans["name"].append(index)
                    spans["start"].append(frame[1] - tracer._origin)
                    spans["end"].append(end - tracer._origin)
            if observe:
                tracer._observe(name, args, result)
            return result

        wrapper.__wrapped__ = original  # type: ignore[attr-defined]
        return wrapper

    def __enter__(self) -> "Tracer":
        for index, (layer, module_name, owner_name, attr) in \
                enumerate(ENTRY_POINTS):
            module = importlib.import_module(module_name)
            owner = getattr(module, owner_name) if owner_name else module
            original = (owner.__dict__[attr] if owner_name
                        else getattr(module, attr))
            setattr(owner, attr, self._wrap(index, layer, original))
            self._patched.append((owner, attr, original))
        self._active = True
        self._entered = self._mark = perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        exited = perf_counter()
        self._active = False
        self.wall_s += exited - self._entered
        self.unattributed_s += exited - self._mark
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()
        return False

    # ----------------------------------------------------------- reporting
    def accounting_problems(self, tolerance: float) -> List[str]:
        """Ways the time accounting fails (empty = consistent): self times
        plus unattributed time miss the traced wall by more than
        ``tolerance`` of it, a self time or the unattributed time is
        negative, or a wrapper ran while the tracer was inactive."""
        problems = []
        error = abs(sum(self.self_s.values()) + self.unattributed_s
                    - self.wall_s)
        if error > tolerance * self.wall_s:
            problems.append(f"self times + unattributed miss the traced "
                            f"wall by {error:.6f}s")
        negative = {layer: seconds for layer, seconds in self.self_s.items()
                    if seconds < 0.0}
        if negative:
            problems.append(f"negative self time: {negative}")
        if self.unattributed_s < 0.0:
            problems.append(f"negative unattributed time "
                            f"{self.unattributed_s:.6f}s")
        if self.stray_calls:
            problems.append(f"{self.stray_calls} wrapped calls ran while "
                            f"the tracer was inactive")
        return problems

    def nesting_violations(self) -> List[str]:
        """Recorded spans that are not enclosed by their parent span: a
        check of the written span records (ids, parents, times)."""
        spans = self.spans
        where = {span_id: i for i, span_id in enumerate(spans["id"])}
        problems = []
        for i, parent in enumerate(spans["parent"]):
            if parent < 0:
                continue
            j = where.get(parent)
            if j is None:
                problems.append(f"span {spans['id'][i]}: parent {parent} "
                                f"not recorded")
            elif not (spans["start"][j] <= spans["start"][i]
                      and spans["end"][i] <= spans["end"][j]):
                problems.append(f"span {spans['id'][i]} escapes its parent "
                                f"{parent}")
        return problems

    def write(self, path: Path) -> None:
        """Write the recorded spans (columnar) and the per-layer totals."""
        payload = {
            "names": self.names,
            "span_cap": SPAN_CAP,
            "spans_seen": self.spans_seen,
            "spans": {key: column.tolist()
                      for key, column in self.spans.items()},
            "self_s": self.self_s,
            "calls": self.calls,
            "inclusive_s": self.inclusive_s,
            "wall_s": self.wall_s,
            "unattributed_s": self.unattributed_s,
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload))
