"""Deterministic report records for the command line.

A report renders identically for identical inputs; the timing line is the
only nondeterministic field and is excluded from the comparison digest.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field


FORMAT_HEADER = "ssetkit-report 1"
_FLAG = "exact"  # the flag of every record


@dataclass
class Record:
    name: str
    value: str


@dataclass
class Report:
    command: str
    inputs: list = field(default_factory=list)   # (name, sha256) pairs
    records: list = field(default_factory=list)
    status: str = "ok"                            # ok | negative | error
    timing_ms: int = 0

    def add(self, name, value):
        self.records.append(Record(name, _render_value(value)))

    def add_input(self, name, data):
        digest = hashlib.sha256(data if isinstance(data, bytes) else data.encode()).hexdigest()
        self.inputs.append((name, digest))

    def render_text(self, with_timing=True):
        lines = [FORMAT_HEADER, "command: %s" % self.command]
        for name, digest in self.inputs:
            lines.append("input %s sha256 %s" % (name, digest))
        for r in self.records:
            lines.append("record %s %s : %s" % (r.name, _FLAG, r.value))
        lines.append("status %s" % self.status)
        if with_timing:
            lines.append("timing-ms %d" % self.timing_ms)
        return "\n".join(lines) + "\n"

    def render_json(self, with_timing=True):
        payload = {
            "format": FORMAT_HEADER,
            "command": self.command,
            "inputs": [{"name": n, "sha256": d} for n, d in self.inputs],
            "records": [
                {"name": r.name, "mode": _FLAG, "value": r.value} for r in self.records
            ],
            "status": self.status,
        }
        if with_timing:
            payload["timing_ms"] = self.timing_ms
        return json.dumps(payload, sort_keys=True, indent=1) + "\n"

    def render(self, fmt="text", with_timing=True):
        if fmt == "json":
            return self.render_json(with_timing)
        return self.render_text(with_timing)

    def digest(self, fmt="text"):
        """Comparison digest: the rendering without the timing field."""
        return hashlib.sha256(self.render(fmt, with_timing=False).encode()).hexdigest()


def _render_value(value):
    if isinstance(value, dict):
        inner = ", ".join(
            "%s=%s" % (_render_value(k), _render_value(v))
            for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))
        )
        return "{%s}" % inner
    if isinstance(value, (list, tuple)):
        return "(%s)" % ", ".join(_render_value(v) for v in value)
    if isinstance(value, float):
        return "%.17g" % value
    return str(value)
