"""Operation accounting, correctness checks and spans for one benchmark run.

Every call into hypcircle goes through `Recorder.stage`, named
`<module>.<stage>` after the layer it enters.  Untraced iterations only count
operations; traced iterations also keep a span per stage in memory (name,
start, end, parent span, run id), and the spans are written out once when
the run ends.
"""

from __future__ import annotations

import hashlib
import json
import time
from contextlib import contextmanager


class StageFailed(Exception):
    """A stage raised; the rest of the iteration is skipped."""


class Recorder:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.tracing = False
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.checks: dict[str, str] = {}
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.iteration = 0
        self.counters: dict[str, float] = {}
        self.measured: dict[str, float] = {}
        self.known_defects: dict[str, str] = {}
        self._digest = hashlib.sha256()

    # -- one iteration ----------------------------------------------------

    def begin(self, iteration: int, tracing: bool):
        self.iteration = iteration
        self.tracing = tracing
        self.counters = {}
        self._digest = hashlib.sha256()

    def digest(self) -> str:
        return self._digest.hexdigest()

    def feed(self, *parts):
        """Add outputs to this iteration's digest (arrays, bytes or JSON-able)."""
        for part in parts:
            if isinstance(part, bytes):
                self._digest.update(part)
            elif hasattr(part, "tobytes"):
                self._digest.update(part.tobytes())
            else:
                self._digest.update(json.dumps(part, sort_keys=True).encode())

    def count(self, name: str, value: float):
        """An exact counter of this iteration; it must repeat in every iteration."""
        self.counters[name] = self.counters.get(name, 0) + value

    def maximum(self, name: str, value: float):
        self.counters[name] = max(self.counters.get(name, value), value)

    # -- operations ---------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        """A timed interval; a no-op unless this iteration is traced."""
        if not self.tracing:
            yield
            return
        parent = self._stack[-1] if self._stack else None
        rec = {"name": name, "run_id": self.run_id, "iteration": self.iteration,
               "parent": parent, "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    @contextmanager
    def stage(self, name: str):
        """One operation: a call into the layer `name` names."""
        self.attempted += 1
        with self.span(name):
            try:
                yield
            except Exception as exc:
                self.failed += 1
                self.problems.append(f"{name} raised {exc!r}")
                raise StageFailed(name) from exc

    def check(self, name: str, ok: bool, detail: str):
        """One correctness check against an independent reference."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(f"check {name} failed: {detail}")
        # keep the first failure's detail, otherwise the latest pass
        if not ok or not self.checks.get(name, "PASS").startswith("FAIL"):
            self.checks[name] = ("PASS " if ok else "FAIL ") + detail

    # -- span summaries -----------------------------------------------------

    def stage_seconds(self) -> dict[str, float]:
        """Total duration per span name over all traced iterations."""
        out: dict[str, float] = {}
        for s in self.spans:
            out[s["name"]] = out.get(s["name"], 0.0) + s["end"] - s["start"]
        return out

    def self_seconds(self) -> dict[str, float]:
        """Self time per layer: span duration minus the time its children cover."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        out: dict[str, float] = {}
        for s, c in zip(self.spans, child):
            layer = s["name"].split(".")[0]
            out[layer] = out.get(layer, 0.0) + (s["end"] - s["start"]) - c
        return out

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"run_id": self.run_id, "spans": self.spans}, fh)
