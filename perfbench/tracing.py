"""Layer tracing of spinamp, installed from outside the package.

Inside a forked op child, ``Tracer.install`` wraps each named public
function wherever the package binds it (``from .algebra import
realize_dense`` makes a second binding in ``evolution`` and ``cli``) and
three ``Propagator`` methods on the class.  Every call records a span
``[name, start, end, parent]`` in memory; the child ships the spans to
the parent, which turns them into per-layer self time, total time and
call counts.  A name the package no longer defines is reported as
absent rather than failing the run.
"""

from __future__ import annotations

import functools
import sys
import time
from typing import Dict, List

__all__ = ["TRACEPOINTS", "LAYERS", "COUNTS", "Tracer", "layer_totals", "covered_time"]

# span name -> the (module, attribute) bindings it wraps; "Class.method"
# attributes are patched on the class itself.
TRACEPOINTS = (
    ("cli.main", (("spinamp.cli", "main"),)),
    ("chains.build", (("spinamp.chains", "cluster_chain"), ("spinamp.chains", "exchange_chain"),
                      ("spinamp.chains", "star_hamiltonian"),
                      ("spinamp.chains", "spike_hamiltonians"))),
    ("algebra.realize_dense", (("spinamp.algebra", "realize_dense"),)),
    ("algebra.apply_spec", (("spinamp.algebra", "apply_spec"),)),
    ("maps.gamma_matrix", (("spinamp.maps", "gamma_matrix"),)),
    ("maps.conjugate_hamiltonian", (("spinamp.maps", "conjugate_hamiltonian"),)),
    ("maps.mirror_map", (("spinamp.maps", "mirror_map"),)),
    ("evolution.propagator_init", (("spinamp.evolution", "Propagator.__init__"),)),
    ("evolution.evolve", (("spinamp.evolution", "Propagator.evolve"),)),
    ("evolution.unitary", (("spinamp.evolution", "Propagator.unitary"),)),
    ("evolution.transfer_fidelity", (("spinamp.evolution", "transfer_fidelity"),)),
    ("evolution.max_fidelity_scan", (("spinamp.evolution", "max_fidelity_scan"),)),
    ("evolution.amplification_check", (("spinamp.evolution", "amplification_check"),)),
    ("automaton.ca_vs_hamiltonian_report", (("spinamp.automaton", "ca_vs_hamiltonian_report"),)),
    ("automaton.ca_half_step", (("spinamp.automaton", "ca_half_step"),)),
    ("noise.noise_sweep", (("spinamp.noise", "noise_sweep"),)),
    ("noise.dephasing_ensemble", (("spinamp.noise", "dephasing_ensemble"),)),
    ("noise.trial_rngs", (("spinamp.noise", "trial_rngs"),)),
    ("io.render_csv", (("spinamp.io", "render_csv"),)),
    ("io.write_text_atomic", (("spinamp.io", "write_text_atomic"),)),
)
LAYERS = tuple(name for name, _ in TRACEPOINTS)


def _amp_terms(args, kwargs):
    spec = args[0] if args else kwargs["spec"]
    return len(spec.terms) << spec.n_sites


def _bytes_written(args, kwargs):
    text = args[1] if len(args) > 1 else kwargs["text"]
    return len(text.encode("utf-8"))


# counters computed from a traced call's arguments: span name -> (count, fn)
_COUNTERS = {
    "algebra.apply_spec": ("algebra.apply_spec.amp_terms", _amp_terms),
    "io.write_text_atomic": ("io.bytes_written", _bytes_written),
}
COUNTS = tuple(key for key, _ in _COUNTERS.values())


class Tracer:
    """Span recorder for one op child; install it after fork, before the op."""

    def __init__(self):
        self.spans: List[list] = []
        self.counts: Dict[str, int] = dict.fromkeys(COUNTS, 0)
        self.absent: List[str] = []
        self._stack: List[int] = []

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "spinamp" or key.startswith("spinamp."))]
        for name, targets in TRACEPOINTS:
            found = False
            for module_name, attr in targets:
                module = sys.modules.get(module_name)
                if module is None:
                    continue
                if "." in attr:
                    cls_name, method = attr.split(".")
                    cls = getattr(module, cls_name, None)
                    original = vars(cls).get(method) if isinstance(cls, type) else None
                    if callable(original):
                        setattr(cls, method, self._wrap(name, original))
                        found = True
                    continue
                original = getattr(module, attr, None)
                if not callable(original):
                    continue
                wrapper = self._wrap(name, original)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)
                found = True
            if not found:
                self.absent.append(name)

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        counter = _COUNTERS.get(name)
        counts = self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if counter is not None:
                try:
                    counts[counter[0]] += counter[1](args, kwargs)
                except (AttributeError, IndexError, KeyError, TypeError):
                    pass    # signature changed: the count stays, the span still records
            index = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()

        return traced


def _has_ancestor(spans, index: int, names) -> bool:
    parent = spans[index][3]
    while parent >= 0:
        if spans[parent][0] in names:
            return True
        parent = spans[parent][3]
    return False


def layer_totals(spans) -> Dict[str, list]:
    """name -> [self_s, total_s, calls] for one op's spans.

    Self time is a span's duration minus its direct children's; spans run
    one at a time, so the children never overlap.  Total time counts only
    the outermost span of a name, so a name that calls itself (the chain
    builders) is not counted twice.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out = {name: [0.0, 0.0, 0] for name in LAYERS}
    for i, (name, start, end, _) in enumerate(spans):
        entry = out[name]
        entry[0] += end - start - child_time[i]
        entry[2] += 1
        if not _has_ancestor(spans, i, (name,)):
            entry[1] += end - start
    return out


def covered_time(spans, names) -> float:
    """Time spent inside any span of ``names``, counting nested ones once."""
    names = set(names)
    return sum(end - start for i, (name, start, end, _) in enumerate(spans)
               if name in names and not _has_ancestor(spans, i, names))
