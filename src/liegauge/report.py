"""Self-describing run reports with a canonical byte form.

Every command-line entry point returns a RunReport.  The structured form
is canonical JSON (sorted keys, no whitespace), so identical inputs give
byte-identical output and the digest of the inputs is reproducible.  All
numeric payloads are carried as exact strings except the residuals of the
finite-difference checks, which are decimal floats accompanied by their
tolerances.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

__all__ = ["RunReport", "canonical_json", "inputs_digest"]


def canonical_json(obj) -> str:
    """Deterministic JSON: sorted keys, tight separators, no NaN."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      allow_nan=False)


def inputs_digest(payload: dict) -> str:
    """Stable digest of a command's parsed inputs."""
    blob = canonical_json(payload).encode("utf-8")
    return "sha256:" + hashlib.sha256(blob).hexdigest()


@dataclass
class RunReport:
    """One command run: what was asked, what came out, how it went."""

    command: str
    inputs_digest: str
    results: dict
    verdict: str
    warnings: list = field(default_factory=list)

    def __post_init__(self):
        if self.verdict not in ("pass", "fail", "warn"):
            raise ValueError(f"unknown verdict {self.verdict!r}")

    def to_json(self) -> str:
        return canonical_json({
            "command": self.command,
            "inputs_digest": self.inputs_digest,
            "results": self.results,
            "verdict": self.verdict,
            "warnings": self.warnings,
        })

    def exit_code(self) -> int:
        return 0 if self.verdict in ("pass", "warn") else 1

    def render_text(self) -> str:
        lines = [f"command: {self.command}",
                 f"inputs digest: {self.inputs_digest}"]
        lines.append("results:")
        _render(self.results, "  ", lines)
        if self.warnings:
            lines.append("warnings:")
            for w in self.warnings:
                lines.append(f"  [{w.get('id', '?')}] {w.get('message', '')}")
        lines.append(f"verdict: {self.verdict}")
        return "\n".join(lines)


def _render(value, indent: str, lines: list) -> None:
    if isinstance(value, dict):
        for key, item in value.items():
            if isinstance(item, (dict, list)):
                lines.append(f"{indent}{key}:")
                _render(item, indent + "  ", lines)
            else:
                lines.append(f"{indent}{key}: {item}")
    elif isinstance(value, list):
        for item in value:
            if isinstance(item, (dict, list)):
                lines.append(f"{indent}-")
                _render(item, indent + "  ", lines)
            else:
                lines.append(f"{indent}- {item}")
    else:
        lines.append(f"{indent}{value}")
