"""In-memory spans recorded by the benchmark around its calls into each layer."""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter


class Tracer:
    """Nested spans (name, cell id, parent, start, end), kept in memory until written out.

    A disabled tracer records nothing, so the untraced and traced runs go
    through the same benchmark code.  Child spans inherit their parent's cell id.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[dict] = []

    @contextmanager
    def span(self, name: str, cell: int | None = None):
        if not self.enabled:
            yield
            return
        parent = self._stack[-1] if self._stack else None
        if cell is None and parent is not None:
            cell = parent["cell"]
        rec = {
            "id": len(self.spans),
            "name": name,
            "cell": cell,
            "parent": None if parent is None else parent["id"],
            "start": perf_counter(),
            "end": None,
        }
        self.spans.append(rec)
        self._stack.append(rec)
        try:
            yield
        finally:
            rec["end"] = perf_counter()
            self._stack.pop()

    def durations(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def total(self, name: str) -> float:
        return float(sum(self.durations(name)))

    def self_times(self) -> dict[str, float]:
        """Per span name: summed duration minus the time its direct children cover."""
        out: dict[str, float] = {}
        for s in self.spans:
            out[s["name"]] = out.get(s["name"], 0.0) + (s["end"] - s["start"])
        for s in self.spans:
            if s["parent"] is not None:
                parent = self.spans[s["parent"]]["name"]
                out[parent] -= s["end"] - s["start"]
        return out

    def export(self) -> list[dict]:
        """Spans with times relative to the first span's start, for writing out."""
        t0 = self.spans[0]["start"] if self.spans else 0.0
        return [{**s, "start": s["start"] - t0, "end": s["end"] - t0} for s in self.spans]
