"""Tests for the experiment exporters: one dataclass-driven JSON record
schema (:func:`repro.experiments.write_json`) and one CSV writer.

Every live export is pinned byte-for-byte by test_experiment_goldens.py;
these tests cover the schema rules on small records.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.experiments import (
    SweepResult,
    read_json,
    to_record,
    write_csv,
    write_json,
)
from repro.experiments.harness import json_key, omitted_when_none


@dataclass
class Inner:
    EXPORTED_PROPERTIES = ("double",)

    value: int

    @property
    def double(self) -> int:
        return 2 * self.value


@dataclass
class Outer:
    name: str
    num_items: int = json_key("items")
    inner: List[Inner] = field(default_factory=list)
    by_id: Dict[int, str] = field(default_factory=dict)
    extra: Optional[Inner] = omitted_when_none()


class TestRecords:
    def test_fields_renames_properties_and_nesting(self):
        record = to_record(Outer("x", 3, inner=[Inner(1), Inner(5)]))
        assert record == {"name": "x", "items": 3,
                          "inner": [{"value": 1, "double": 2},
                                    {"value": 5, "double": 10}],
                          "by_id": {}}

    def test_omitted_when_none_only_while_none(self):
        assert "extra" not in to_record(Outer("x", 0))
        assert to_record(Outer("x", 0, extra=Inner(2)))["extra"] == \
            {"value": 2, "double": 4}

    def test_int_keys_sort_as_text(self, tmp_path):
        path = write_json(Outer("x", 0, by_id={2: "a", 100: "c", 10: "b"}),
                          tmp_path / "o.json")
        assert list(json.loads(path.read_text())["by_id"]) == \
            ["10", "100", "2"]

    def test_read_json_inverts_renames_and_defaults(self, tmp_path):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps([{
            "scenario": "s", "family": "ring", "seed": 1, "switches": 4,
            "links": 4, "auto_seconds": 10.0, "manual_seconds": 20.0,
            "speedup": 2.0}]))
        (loaded,) = read_json(path, SweepResult)
        assert (loaded.num_switches, loaded.num_links) == (4, 4)
        assert loaded.controllers == 1 and loaded.milestones == {}

    def test_write_csv_header_only(self, tmp_path):
        path = write_csv(tmp_path / "e.csv", ["a", "b"], iter(()))
        assert path.read_bytes() == b"a,b\r\n"
