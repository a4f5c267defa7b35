"""Spans around the calls into each spinsim layer, recorded from outside.

The tracer replaces module attributes with wrappers for the length of a
traced pass: the ``spinsim.cli`` names through which the CLI calls every
other module, and the ``linalg`` names as imported by ``hamiltonians`` and
``noise``. The program's own code is not changed.

A span is ``[name, start, end, parent index, pass id]``; spans stay in memory
and are written out when the run ends. A span's self time is its duration
minus the durations of its direct children. Counts are taken at the same
boundaries.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

# (module, attribute) -> span name
CLI_SPANS = {
    ("cli", "compile_heisenberg"): "circuits.compile",
    ("cli", "compile_ising"): "circuits.compile",
    ("cli", "circuit_unitary"): "circuits.circuit_unitary",
    ("cli", "circuit_to_text"): "circuits.text_io",
    ("cli", "circuit_from_text"): "circuits.text_io",
    ("cli", "exact_evolve"): "hamiltonians.exact_evolve",
    ("hamiltonians", "herm_expm"): "linalg.herm_expm",
    ("cli", "simulate_noisy"): "noise.simulate_noisy",
    ("noise", "check_density_matrix"): "linalg.check_density_matrix",
    ("cli", "process_tomography"): "tomography.process_tomography",
    ("cli", "chi_of_unitary"): "tomography.analysis",
    ("cli", "process_fidelity"): "tomography.analysis",
    ("cli", "state_fidelity"): "tomography.analysis",
    ("cli", "negativity"): "tomography.analysis",
    ("cli", "chi_to_json"): "tomography.analysis",
    ("cli", "schedule"): "scheduler.schedule",
    ("cli", "validate"): "scheduler.validate",
    ("cli", "timeline_to_csv"): "scheduler.timeline_to_csv",
}
CHANNEL_SPAN = "tomography.channel"

# span -> (counter, amount taken from the call's arguments and result)
_COUNTERS = {
    "circuits.compile": ("circuits.gates_compiled", lambda args, out: len(out.gates)),
    "noise.simulate_noisy": ("noise.gates_propagated", lambda args, out: len(args[0].gates)),
    "scheduler.schedule": ("scheduler.events", lambda args, out: len(out.events)),
    "scheduler.validate": ("scheduler.violations", lambda args, out: len(out)),
}


class Tracer:
    def __init__(self, modules: dict):
        self.modules = modules  # short name -> module object
        self.spans: list[list] = []
        self.counts: list[Counter] = []  # one Counter per traced pass
        self._stack: list[int] = []
        self._pass_id = -1

    def _call(self, name: str, fn, args, kwargs):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        span = [name, time.perf_counter(), None, parent, self._pass_id]
        self.spans.append(span)
        self._stack.append(index)
        try:
            out = fn(*args, **kwargs)
        finally:
            self._stack.pop()
            span[2] = time.perf_counter()
        counter = _COUNTERS.get(name)
        if counter is not None:
            self.counts[-1][counter[0]] += counter[1](args, out)
        return out

    def _wrap(self, name: str, fn):
        if name == "tomography.process_tomography":
            def traced_tomography(channel, *args, **kwargs):
                def traced_channel(*a, **kw):
                    return self._call(CHANNEL_SPAN, channel, a, kw)
                return self._call(name, fn, (traced_channel, *args), kwargs)
            return traced_tomography

        def traced(*args, **kwargs):
            return self._call(name, fn, args, kwargs)
        return traced

    @contextmanager
    def traced_pass(self):
        """Install the wrappers for one pass; always restore the originals."""
        self._pass_id += 1
        self.counts.append(Counter())
        originals = {}
        try:
            for (module, attr), name in CLI_SPANS.items():
                mod = self.modules[module]
                originals[(module, attr)] = getattr(mod, attr)
                setattr(mod, attr, self._wrap(name, getattr(mod, attr)))
            yield self._pass_id
        finally:
            for (module, attr), fn in originals.items():
                setattr(self.modules[module], attr, fn)

    def pass_layers(self, pass_id: int, pass_wall_s: float) -> dict[str, float]:
        """Calls, self times and counts of one traced pass."""
        spans = [(i, s) for i, s in enumerate(self.spans) if s[4] == pass_id]
        child_time: Counter = Counter()
        for _, (_, start, end, parent, _) in spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: Counter = Counter()
        top_level = 0.0
        for i, (name, start, end, parent, _) in spans:
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += (end - start) - child_time[i]
            if parent < 0:
                top_level += end - start
        out.update(self.counts[pass_id])
        out["cli.self_s"] = pass_wall_s - top_level
        return dict(out)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as f:
            for name, start, end, parent, pass_id in self.spans:
                f.write(json.dumps({"name": name, "start": start, "end": end,
                                    "parent": parent, "pass": pass_id}) + "\n")
