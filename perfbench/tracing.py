"""In-memory span tracing of the sun_phase layers, from outside the package.

`Tracer.install` replaces each traced function with a wrapper that
records one span per call: (id, parent id, name, start, end).  The
modules bind imported names at import time (`from .amplitude import
phase_gradient`), so a wrapper replaces every binding of the original
function in every loaded `sun_phase` module, not only the defining one;
`Chart.evaluate` is wrapped on the class.  `Tracer.uninstall` puts every
original binding back.

Only the functions the per-layer metrics name are traced.  Helpers such
as `cli.format_float` stay unwrapped, so their time counts toward the
self time of the traced function that calls them (for example
serialization toward `cli.dump_report`).
"""
from __future__ import annotations

import functools
import sys
import time

# span name -> per-layer statistics reported for it (see run.py)
TRACED = {
    "algebra.build_gellmann_basis": ("calls",),
    "algebra.expm_generator": ("calls", "calls_per_point", "self_s"),
    "charts.Chart.evaluate": ("calls", "calls_per_point", "self_s"),
    "charts.partials": ("calls", "self_s"),
    "charts.left_invariant_frame": ("self_s",),
    "charts.ck_metric": ("self_s",),
    "amplitude.polar_amplitude": ("calls", "self_s"),
    "amplitude.phase_gradient": ("calls_per_point", "self_s"),
    "amplitude.group_relation_residuals": ("self_s",),
    "amplitude.reconstruct_modulus": ("self_s",),
    "amplitude.vortex_winding": ("self_s",),
    "coset.coset_element": ("calls_per_point", "self_s"),
    "coset.section": ("self_s",),
    "coset.ray_relation_residuals": ("self_s",),
    "coset.bridge_residuals": ("self_s",),
    "coset.factorization_residual": ("self_s",),
    "coset.full_cartan_chart": ("calls",),
    "coset.build_cartan_frame": ("calls",),
    "superosc.phase_trace": ("self_s",),
    "superosc.superoscillation_report": ("self_s",),
    "superosc.aligned_generator": ("self_s",),
    "cli.run_group_sweep": ("self_s",),
    "cli.run_ray_sweep": ("self_s",),
    "cli.run_su2_demo": ("self_s",),
    "cli.run_superosc": ("self_s",),
    "cli.run_vortex": ("self_s",),
    "cli.dump_report": ("self_s",),
    "cli.write_csv": ("self_s",),
}


PACKAGE = "sun_phase"


class Tracer:
    """Span recorder; spans are (id, parent, name, start, end) tuples, with
    parent -1 for a root span and times from `time.perf_counter`."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (sid, parent, name, start, end)

        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [
            m for key, m in sorted(sys.modules.items())
            if m is not None and key.split(".")[0] == PACKAGE
        ]
        for name in TRACED:
            mod_name, attr = name.split(".", 1)
            defining = sys.modules[f"{PACKAGE}.{mod_name}"]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(defining, cls_name)
                self._patch(cls, method, self._wrap(name, cls.__dict__[method]))
                continue
            original = getattr(defining, attr)
            wrapper = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def take(self) -> list:
        """Return the recorded spans and start a fresh list."""
        if self._stack:
            raise RuntimeError("spans still open")
        spans = list(self.spans)
        self.spans.clear()
        return spans


def self_times(spans) -> dict[int, float]:
    """Self time of each span: its duration minus the part of its interval
    covered by its direct children (overlapping children count once)."""
    children: dict[int, list[tuple[float, float]]] = {}
    for sid, parent, _name, start, end in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = {}
    for sid, _parent, _name, start, end in spans:
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(sid, ())):
            c_start = max(c_start, cursor)
            c_end = min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out[sid] = (end - start) - covered
    return out


def summarize(spans, inside: str = "charts.partials") -> dict[str, dict]:
    """Per span name: call count, total self time and, for each name, how
    many of its calls ran under an open `inside` span."""
    by_id = {s[0]: s for s in spans}
    selfs = self_times(spans)
    under: dict[int, bool] = {}

    def is_under(sid: int) -> bool:
        parent = by_id[sid][1]
        if parent < 0:
            return False
        if parent not in under:
            under[parent] = by_id[parent][2] == inside or is_under(parent)
        return under[parent]

    out: dict[str, dict] = {}
    for sid, _parent, name, _start, _end in spans:
        entry = out.setdefault(name, {"calls": 0, "self_s": 0.0, "calls_under": 0})
        entry["calls"] += 1
        entry["self_s"] += selfs[sid]
        entry["calls_under"] += is_under(sid)
    return out
