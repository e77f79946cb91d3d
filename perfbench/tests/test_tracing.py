"""The tracer's span arithmetic, its binding-wide wrapping, and the metric
names the benchmark prints against BENCHMARK.json.

Run from the repository root:  python3 -m pytest perfbench/tests
"""

import json
import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT)]

from perfbench import run, workloads  # noqa: E402
from perfbench.tracing import COUNTS, LAYERS, covered_time, layer_totals  # noqa: E402

SPANS = [
    ["cli.main", 0.0, 10.0, -1],
    ["chains.build", 1.0, 3.0, 0],
    ["chains.build", 1.5, 2.5, 1],      # a builder calling another builder
    ["algebra.realize_dense", 4.0, 8.0, 0],
]


def test_self_time_subtracts_children_and_total_counts_outermost():
    totals = layer_totals(SPANS)
    assert totals["cli.main"] == [4.0, 10.0, 1]
    assert totals["chains.build"] == [2.0, 2.0, 2]
    assert totals["algebra.realize_dense"] == [4.0, 4.0, 1]
    assert totals["noise.trial_rngs"] == [0.0, 0.0, 0]


def test_covered_time_counts_nested_spans_once():
    assert covered_time(SPANS, ("chains.build", "algebra.realize_dense")) == 6.0
    assert covered_time(SPANS, ("cli.main", "chains.build")) == 10.0


FAKE_PACKAGE = {
    "__init__.py": "from .algebra import apply_spec\n",
    "algebra.py": """
        def realize_dense(spec):
            return [spec]

        def apply_spec(spec, psi):
            return psi
    """,
    "evolution.py": """
        from .algebra import apply_spec, realize_dense

        class Propagator:
            def __init__(self, spec):
                self.matrix = realize_dense(spec)

            def evolve(self, psi, t):
                return apply_spec(self.spec, psi)

        class Spec:
            n_sites = 3
            terms = (1, 2)
    """,
    "cli.py": """
        from .evolution import Propagator, Spec

        def main(argv=None):
            prop = Propagator(Spec())
            prop.spec = Spec()
            for _ in range(4):
                prop.evolve([0.0], 1.0)
            return 0
    """,
}

PROBE = """
import json, sys
import spinamp.cli
from perfbench.tracing import Tracer, layer_totals
tracer = Tracer()
tracer.install()
sys.modules["spinamp.cli"].main([])
print(json.dumps({"totals": layer_totals(tracer.spans), "counts": tracer.counts,
                  "absent": tracer.absent}))
"""


def test_tracer_wraps_every_binding_and_reports_missing_names(tmp_path):
    package = tmp_path / "spinamp"
    package.mkdir()
    for name, body in FAKE_PACKAGE.items():
        (package / name).write_text(textwrap.dedent(body))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(tmp_path), str(ROOT)]))
    done = subprocess.run([sys.executable, "-c", PROBE], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    result = json.loads(done.stdout)
    totals = result["totals"]
    assert totals["cli.main"][2] == 1
    assert totals["evolution.propagator_init"][2] == 1
    assert totals["algebra.realize_dense"][2] == 1     # called through evolution's binding
    assert totals["evolution.evolve"][2] == 4
    assert totals["algebra.apply_spec"][2] == 4
    assert result["counts"]["algebra.apply_spec.amp_terms"] == 4 * 2 * 2 ** 3
    assert "noise.noise_sweep" in result["absent"]
    assert "algebra.apply_spec" not in result["absent"]


def _fake_passes(ops, traced_flags):
    spans = [["cli.main", 0.0, 0.1, -1]]
    record = {"seconds": 0.1, "rss_kb": 2048, "error": None,
              "layers": layer_totals(spans), "counts": dict.fromkeys(COUNTS, 0),
              "covered": 0.05}
    return [{"traced": t, "ops": [dict(record) for _ in ops], "probes": [0.005, 0.006]}
            for t in traced_flags]


def test_printed_metrics_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ops = workloads.WORKLOADS["noise-mc"].build(random.Random(1))
    e2e = run.end_to_end_metrics(ops, _fake_passes(ops, [False, False]), [0.1, 0.2],
                                 attempted=2 * len(ops), failed=0)
    assert {k: u for k, (_, u) in e2e.items()} == {m["name"]: m["unit"]
                                                   for m in spec["end_to_end"]}
    layers, counts_repeat = run.per_layer_metrics(ops, _fake_passes(ops, [False, True]))
    assert counts_repeat
    assert {k: u for k, (_, u) in layers.items()} == {m["name"]: m["unit"]
                                                      for m in spec["per_layer"]}
    assert all(f"{name}.calls" in layers for name in LAYERS)
