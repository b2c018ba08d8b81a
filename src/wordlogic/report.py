"""Uniform check reports for the CLI and the verification suites."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class Report:
    check: str
    params: dict
    passed: bool
    counterexample: str = None
    stats: dict = field(default_factory=dict)

    def to_dict(self):
        out = {"check": self.check, "params": self.params, "pass": self.passed,
               "stats": self.stats}
        if self.counterexample is not None:
            out["counterexample"] = self.counterexample
        return out

    def line(self):
        mark = "PASS" if self.passed else "FAIL"
        extra = f"  witness: {self.counterexample}" if self.counterexample else ""
        return f"[{mark}] {self.check}{extra}"
