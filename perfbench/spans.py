"""Spans around calls into the library, recorded from the benchmark's side.

Nothing inside ``src/`` is instrumented.  A traced run replaces a chosen set
of module attributes (functions, and methods on library classes) with thin
wrappers for the duration of a ``with tracer.patched(...)`` block, then puts
the originals back.  Each wrapper records one span: name, start, end and the
span that was open when it started.  Self time (a span's duration minus the
part its child spans cover) is accumulated per span name as spans close.
"""

from __future__ import annotations

import functools
import json
from contextlib import contextmanager
from time import perf_counter

MAX_KEPT_SPANS = 100_000  # spans kept for `write`; later ones are only counted


class Tracer:
    """In-memory span recorder; `write` saves the spans when the run ends."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.self_s: list[float] = []
        self.calls: list[int] = []
        # (seq, name id, parent seq or -1, start, end); kept up to MAX_KEPT_SPANS,
        # while self times and call counts cover every span
        self.spans: list[tuple[int, int, int, float, float]] = []
        self.dropped = 0
        self._stack: list[list] = []  # open spans: [seq, name id, child seconds]
        self._seq = 0
        self._t0 = perf_counter()

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.self_s.append(0.0)
            self.calls.append(0)
        return nid

    def wrap(self, name: str, fn):
        """`fn` with a span named `name` around every call."""
        nid = self._name_id(name)
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            seq = self._seq
            self._seq = seq + 1
            parent = stack[-1][0] if stack else -1
            frame = [seq, nid, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - start
                self.self_s[nid] += dur - frame[2]
                self.calls[nid] += 1
                if stack:
                    stack[-1][2] += dur
                if len(self.spans) < MAX_KEPT_SPANS:
                    self.spans.append((seq, nid, parent, start, end))
                else:
                    self.dropped += 1

        return traced

    @contextmanager
    def patched(self, targets):
        """Wrap each (owner, attribute, span name) target; restore on exit."""
        saved = []
        try:
            for owner, attr, name in targets:
                orig = getattr(owner, attr)
                saved.append((owner, attr, orig))
                setattr(owner, attr, self.wrap(name, orig))
            yield self
        finally:
            for owner, attr, orig in reversed(saved):
                setattr(owner, attr, orig)

    def self_by_name(self) -> dict[str, dict]:
        return {
            name: {"calls": self.calls[i], "self_s": self.self_s[i]}
            for i, name in enumerate(self.names)
            if self.calls[i]
        }

    def self_by_module(self) -> dict[str, float]:
        """Self seconds summed per module (the span-name prefix before '.')."""
        out: dict[str, float] = {}
        for i, name in enumerate(self.names):
            mod = name.split(".", 1)[0]
            out[mod] = out.get(mod, 0.0) + self.self_s[i]
        return out

    def write(self, path) -> None:
        """Kept spans as JSON rows [seq, name id, parent seq, start us, end us]."""
        t0 = self._t0
        payload = {
            "names": self.names,
            "columns": ["seq", "name", "parent", "start_us", "end_us"],
            "spans": [
                [seq, nid, parent, round((s - t0) * 1e6, 3), round((e - t0) * 1e6, 3)]
                for seq, nid, parent, s, e in self.spans
            ],
            "dropped": self.dropped,
            "self_by_name": self.self_by_name(),
        }
        with open(path, "w") as fh:
            json.dump(payload, fh, separators=(",", ":"))
            fh.write("\n")


def library_targets(lib) -> list[tuple[object, str, str]]:
    """Module boundaries to trace: (owner, attribute, span name).

    Functions are patched in the namespace of the module that calls them,
    because each module imports the names it uses.  Span names are
    ``<module>.<function>`` so self time can be summed per module.
    """
    c, h, m, a = lib.cli, lib.harness, lib.mechanisms, lib.audit
    return [
        (c, "main", "cli.main"),
        (c, "run_estimate", "harness.run_estimate"),
        (h, "run_benchmark", "harness.run_benchmark"),
        (h, "load_csv_dataset", "harness.load_csv_dataset"),
        (h, "generate_dataset", "harness.generate_dataset"),
        (h, "prepare", "mechanisms.prepare"),
        (h, "derive_substream", "noise.derive_substream"),
        (h, "derive_seed", "noise.derive_seed"),
        (h, "predicted_normalized_mse", "theory.predicted_normalized_mse"),
        (m.PreparedMechanism, "run_value", "mechanisms.run_value"),
        (m.PreparedMechanism, "run", "mechanisms.run"),
        (m, "bernstein_aggregate", "bernstein.bernstein_aggregate"),
        (m, "tensor_apply_inverse", "bernstein.tensor_apply_inverse"),
        (m, "variance_exact", "stats.variance_exact"),
        (m, "covariance_exact", "stats.covariance_exact"),
        (m, "correlation_exact", "stats.correlation_exact"),
        (m, "moments_unnormalized", "stats.moments_unnormalized"),
        (lib.noise.NoiseSource, "laplace_vector", "noise.laplace_vector"),
        (lib.noise.NoiseSource, "laplace", "noise.laplace"),
        (lib.noise.NoiseSource, "uniforms", "noise.uniforms"),
        (lib.stats.Dataset, "__init__", "stats.Dataset"),
        (a, "empirical_sensitivity", "audit.empirical_sensitivity"),
        (a, "random_neighbor_pair", "audit.random_neighbor_pair"),
        (a, "derive_seed", "noise.derive_seed"),
        (a, "bernstein_aggregate", "bernstein.bernstein_aggregate"),
        (a, "unnormalized_variance_map", "audit.map.uvar"),
        (a, "unnormalized_covariance_map", "audit.map.ucov"),
        (a, "transformed_pair_map", "audit.map.transformed"),
        (a, "swap_variance_map", "audit.map.swap_variance"),
        (a, "swap_covariance_map", "audit.map.swap_covariance"),
    ]
