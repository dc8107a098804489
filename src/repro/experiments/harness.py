"""The experiment harness: the one copy of configure → settle → collect
that every ``repro`` experiment runs (see "Experiment harness" in
docs/ARCHITECTURE.md)."""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field, fields, is_dataclass, replace
from pathlib import Path
from typing import (Any, Callable, Iterable, List, Optional, Sequence, Type,
                    Union)

from repro.core.autoconfig import AutoConfigFramework, FrameworkConfig
from repro.core.ipam import IPAddressManager
from repro.scenarios import ScenarioSpec
from repro.sim import Simulator
from repro.topology.emulator import EmulatedNetwork
from repro.topology.graph import Topology

PathLike = Union[str, Path]


# ---------------------------------------------------------------------------
# configure
# ---------------------------------------------------------------------------
@dataclass
class Testbed:
    """One emulated network under one automatic-configuration framework."""

    topology: Topology
    sim: Simulator
    ipam: IPAddressManager
    framework: AutoConfigFramework
    network: EmulatedNetwork
    #: Simulated seconds to full configuration (None until configured, or
    #: when the time budget ran out first).
    configured_at: Optional[float] = None

    def configure(self, max_time: float,
                  settle: float = 0.0) -> Optional[float]:
        """Run until RouteFlow is fully configured; see
        :meth:`AutoConfigFramework.run_until_configured`."""
        self.configured_at = self.framework.run_until_configured(
            max_time=max_time, settle=settle)
        return self.configured_at

    def total_load(self, key: str) -> int:
        """One control-plane load counter summed over every shard."""
        return sum(load[key] for load in self.framework.shard_loads())


def build(target: Union[ScenarioSpec, Topology],
          config: Optional[FrameworkConfig] = None,
          **overrides: Any) -> Testbed:
    """Assemble a testbed without running it.

    A :class:`~repro.scenarios.ScenarioSpec` supplies its topology and,
    unless ``config`` is given, its framework configuration; a bare
    topology runs under ``config`` (default: :class:`FrameworkConfig`).
    ``overrides`` replace individual framework-configuration fields.
    """
    if isinstance(target, ScenarioSpec):
        topology = target.build_topology()
        if config is None:
            config = target.framework_config(topology)
    else:
        topology = target
        if config is None:
            config = FrameworkConfig()
    if overrides:
        config = replace(config, **overrides)
    sim = Simulator()
    ipam = IPAddressManager()
    framework = AutoConfigFramework(sim, config=config, ipam=ipam)
    network = EmulatedNetwork(sim, topology, ipam=ipam)
    framework.attach(network)
    return Testbed(topology, sim, ipam, framework, network)


def configure(target: Union[ScenarioSpec, Topology],
              config: Optional[FrameworkConfig] = None,
              max_time: Optional[float] = None, settle: float = 0.0,
              **overrides: Any) -> Testbed:
    """:func:`build` a testbed and run it to full configuration, within
    ``max_time`` simulated seconds (default: the scenario's budget, or
    3600 for a bare topology)."""
    if max_time is None:
        max_time = (target.max_time if isinstance(target, ScenarioSpec)
                    else 3600.0)
    testbed = build(target, config, **overrides)
    testbed.configure(max_time, settle)
    return testbed


# ---------------------------------------------------------------------------
# settle
# ---------------------------------------------------------------------------
class FibChanges:
    """The simulated time of every FIB change on every VM, in order."""

    def __init__(self, sim: Simulator, control_plane) -> None:
        self.times: List[float] = []
        for vm in control_plane.vms.values():
            vm.zebra.add_fib_listener(
                lambda prefix, new, old: self.times.append(sim.now))

    def latest(self, default: float) -> float:
        """The last change, or ``default`` when nothing changed."""
        return self.times[-1] if self.times else default

    def since(self, start: float) -> List[float]:
        return [when for when in self.times if when >= start]

    def clear(self) -> None:
        del self.times[:]


def run_until_quiet(sim: Simulator, last_activity: Callable[[], float],
                    settle: float, deadline: float) -> bool:
    """Advance in 1 s steps until ``settle`` seconds pass with no activity.

    ``last_activity`` returns the simulated time quiet is measured from;
    it is polled after every step.  Returns False when ``deadline`` came
    first.
    """
    if settle <= 0:
        raise ValueError(f"the settle period must be > 0 seconds, got {settle}")
    while sim.now < deadline:
        sim.run(until=min(sim.now + 1.0, deadline))
        if sim.now >= last_activity() + settle:
            return True
    return False


# ---------------------------------------------------------------------------
# collect
# ---------------------------------------------------------------------------
def json_key(key: str, **options: Any) -> Any:
    """A dataclass field exported under another JSON key."""
    return field(metadata={"key": key}, **options)


def omitted_when_none() -> Any:
    """An optional dataclass field left out of the JSON record while None."""
    return field(default=None, metadata={"omit_none": True})


def to_record(value: Any) -> Any:
    """The JSON-ready form of a result (see the module docstring)."""
    if is_dataclass(value):
        record = {}
        for item in fields(value):
            member = getattr(value, item.name)
            if member is None and item.metadata.get("omit_none"):
                continue
            record[item.metadata.get("key", item.name)] = to_record(member)
        for name in getattr(value, "EXPORTED_PROPERTIES", ()):
            record[name] = to_record(getattr(value, name))
        return record
    if isinstance(value, dict):
        # Keys are stringified here, before json sorts them, so integer
        # keys sort as text (the order JSON readers see).
        return {str(key): to_record(member) for key, member in value.items()}
    if isinstance(value, (list, tuple)):
        return [to_record(member) for member in value]
    return value


def write_json(results: Any, path: PathLike) -> Path:
    """Write one result, or a list of them, as JSON records."""
    target = Path(path)
    target.write_text(json.dumps(to_record(results), indent=2, sort_keys=True)
                      + "\n")
    return target


def read_json(path: PathLike, record_type: Type) -> list:
    """Load flat records written by :func:`write_json` back into results.

    Derived properties are skipped; fields missing from older files take
    their dataclass defaults.
    """
    names = {item.metadata.get("key", item.name): item.name
             for item in fields(record_type)}
    return [record_type(**{names[key]: value for key, value in entry.items()
                           if key in names})
            for entry in json.loads(Path(path).read_text())]


def write_csv(path: PathLike, header: Sequence[str],
              rows: Iterable[Sequence[object]]) -> Path:
    target = Path(path)
    with target.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)
    return target


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------
def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """Render an ASCII table (the benchmark harness prints these)."""
    columns = [[str(h)] + [str(row[i]) for row in rows] for i, h in enumerate(headers)]
    widths = [max(len(cell) for cell in column) for column in columns]
    lines = []
    header_line = " | ".join(str(h).ljust(widths[i]) for i, h in enumerate(headers))
    lines.append(header_line)
    lines.append("-+-".join("-" * w for w in widths))
    for row in rows:
        lines.append(" | ".join(str(cell).ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def format_seconds(seconds: Optional[float]) -> str:
    """Human-friendly rendering of a duration."""
    if seconds is None:
        return "n/a"
    if seconds < 90:
        return f"{seconds:.1f} s"
    minutes = seconds / 60.0
    if minutes < 90:
        return f"{minutes:.1f} min"
    return f"{minutes / 60.0:.1f} h"


def format_bits(bits: float) -> str:
    """Human-friendly rendering of a bit volume."""
    for unit, scale in (("Gbit", 1e9), ("Mbit", 1e6), ("kbit", 1e3)):
        if bits >= scale:
            return f"{bits / scale:.2f} {unit}"
    return f"{bits:.0f} bit"
