"""Benchmark of the spinamp command line, end to end and layer by layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload dense-exact --seed 1 --seconds 30 --trace 0

The parent imports ``spinamp`` from ``src/`` once, with BLAS pinned to one
thread, and then runs the workload's seeded op list in passes.  Each op is
``spinamp.cli.main(argv)`` in a fresh child forked from that parent, one
child at a time (a closed loop with one client, like a script issuing
commands one after another), so no cache survives from one op to the next.
The child times ``cli.main`` and reports back over a pipe; the parent then
checks the output file with ``perfbench.checks`` and compares its bytes
with the same op's output in the first pass.

Before the first op of a pass and after every op the parent times a fixed
numpy kernel that does not touch spinamp, the speed probe.  The host's
speed drifts by a quarter and more, for seconds to minutes at a time, as
other tenants load it; every reported time is therefore scaled by
(PROBE_REF_S / p) ** PROBE_EXPONENT, with p the median probe time of the
run.  Raw times are kept in the result file.

With ``--trace 0`` the last stdout line carries the end-to-end metrics:
per-op times are medians over passes, summed over the workload and per
subcommand.  With ``--trace 1`` passes alternate untraced and traced, and
the line carries per-layer metrics from the traced passes (see
``perfbench/tracing.py``; span times are raw) plus the tracing overhead.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

sys.path.insert(0, str(ROOT))
from perfbench.checks import CheckError, check  # noqa: E402
from perfbench.tracing import COUNTS, LAYERS, Tracer, covered_time, layer_totals  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

# Single-threaded BLAS: the baseline for a 2-core box, and it keeps the
# thread-pool start-up (about 1 s at the first large eigh) out of every op.
PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
SETUP_LAUNCHES_PER_PASS = 3   # spread over the run, so one burst of outside load moves few
OP_CAP_S = 60.0         # an op running longer is killed and counts as failed
MIN_PASSES = 2
HARD_STOP_S = 140.0     # no new pass after this, whatever --seconds says
PROBE_REF_S = 0.005     # the speed probe's time on the 2-vCPU Xeon these workloads were sized on
# The short probe slows about twice as much (in log terms) as the ops under
# the same outside load; over 50 runs taken under heavy load, the square
# root of its slowdown left the smallest run-to-run spread.
PROBE_EXPONENT = 0.5

SUBCOMMAND_METRICS = {
    "amplify": "amplify_s",
    "transfer": "transfer_s",
    "scan": "scan_s",
    "ca-compare": "ca_compare_s",
    "verify-equivalence": "verify_equivalence_s",
    "noise-sweep": "noise_sweep_s",
    "star-demo": "star_demo_s",
}

SETUP_SNIPPET = """
import time
t0 = time.perf_counter()
import numpy
import spinamp.cli
numpy.linalg.eigh(numpy.eye(64, dtype=complex))
elapsed = time.perf_counter() - t0
import os, sys
if not os.path.realpath(spinamp.cli.__file__).startswith(sys.argv[1]):
    sys.exit("spinamp imported from " + spinamp.cli.__file__)
print(repr(elapsed))
"""


def _parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# -- environment ----------------------------------------------------------


def _blas_version(np) -> str:
    try:
        return str(np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"])
    except (KeyError, TypeError, ValueError):
        return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() or None


def _src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "spinamp").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment(np, seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas": _blas_version(np),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "threads": {key: os.environ.get(key) for key in PINNED_THREADS},
        "seed": seed,
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
    }


# -- machine speed and set-up time ----------------------------------------


class SpeedProbe:
    """A fixed numpy kernel, independent of spinamp, whose time tracks the host's speed.

    It mixes what the ops spend their time on: 26 scatter-adds over 2^14
    complex amplitudes (one matvec of a 14-site chain) and three 300 x 300
    matrix products.
    """

    def __init__(self, np):
        size = 1 << 14
        self._np = np
        self._index = np.arange(size)
        self._amps = np.random.default_rng(0).normal(size=size) + 0j
        self._matrix = np.random.default_rng(1).normal(size=(300, 300))

    def __call__(self) -> float:
        np, index, amps = self._np, self._index, self._amps
        start = time.perf_counter()
        out = np.zeros(amps.size, dtype=complex)
        for flip in range(26):
            out[index ^ (flip * 37 % amps.size)] += 0.5 * amps
        for _ in range(3):
            self._matrix @ self._matrix
        return time.perf_counter() - start


def speed_scale(passes) -> float:
    """The factor that takes raw times to the reference speed."""
    probe = statistics.median(t for p in passes for t in p["probes"])
    return (PROBE_REF_S / probe) ** PROBE_EXPONENT


def measure_setup(launches: int) -> list:
    """Seconds for `import spinamp.cli` plus one BLAS call, per fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(launches):
        done = subprocess.run([sys.executable, "-c", SETUP_SNIPPET, str(SRC) + os.sep],
                              env=env, cwd=str(ROOT), capture_output=True, text=True,
                              timeout=60)
        if done.returncode != 0:
            raise RuntimeError(f"set-up launch failed: {done.stderr.strip()}")
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


# -- one op in a forked child ---------------------------------------------


def _child(argv, out_path: str, traced: bool, wfd: int) -> None:
    """Body of the op child; never returns."""
    payload = {"rc": None}
    try:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, 1)
        tracer = None
        if traced:
            tracer = Tracer()
            tracer.install()
        cli = sys.modules["spinamp.cli"]
        start = time.perf_counter()
        rc = cli.main(list(argv) + ["--out", out_path])
        payload = {"rc": rc, "seconds": time.perf_counter() - start}
        if tracer is not None:
            payload.update(spans=tracer.spans, counts=tracer.counts, absent=tracer.absent)
    except BaseException as exc:  # noqa: BLE001 - reported to the parent, child exits below
        payload["error"] = f"{type(exc).__name__}: {exc}"
    finally:
        try:
            data = memoryview(json.dumps(payload).encode())
            while data:
                data = data[os.write(wfd, data):]
            sys.stderr.flush()
        finally:
            os._exit(0)


def run_op(argv, out_path: str, traced: bool) -> dict:
    """Fork, run one op, and collect its payload, exit status and peak RSS."""
    sys.stdout.flush()
    sys.stderr.flush()
    rfd, wfd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(rfd)
        _child(argv, out_path, traced, wfd)
    os.close(wfd)
    chunks, timed_out = [], False
    deadline = time.monotonic() + OP_CAP_S
    try:
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not select.select([rfd], [], [], remaining)[0]:
                timed_out = True
                os.kill(pid, signal.SIGKILL)
                break
            chunk = os.read(rfd, 1 << 16)
            if not chunk:
                break
            chunks.append(chunk)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        os.close(rfd)
        _, status, usage = os.wait4(pid, 0)
    result = {"rss_kb": usage.ru_maxrss, "error": None}
    if timed_out:
        result["error"] = f"exceeded the {OP_CAP_S:.0f} s cap"
        return result
    try:
        payload = json.loads(b"".join(chunks))
    except ValueError:
        result["error"] = f"child died without a result (wait status {status})"
        return result
    result.update(payload)
    if result["error"] is None and payload["rc"] != 0:
        result["error"] = f"exit code {payload['rc']}"
    return result


# -- passes ---------------------------------------------------------------


def run_pass(ops, run_dir: Path, traced: bool, reference: list, stressed,
             probe: SpeedProbe) -> dict:
    """Run every op once; ``reference`` holds each op's first output digest."""
    records = []
    probes = [probe()]
    for i, op in enumerate(ops):
        out_path = run_dir / f"op{i}.out"
        rec = run_op(op.argv, str(out_path), traced)
        probes.append(probe())
        if rec["error"] is None:
            try:
                data = out_path.read_bytes()
                check(op.command, op.expect, data.decode("utf-8"))
                digest = hashlib.sha256(data).hexdigest()
                if reference[i] is None:
                    reference[i] = digest
                elif reference[i] != digest:
                    rec["error"] = "output bytes differ from the first pass"
            except (OSError, UnicodeDecodeError, CheckError) as exc:
                rec["error"] = f"{type(exc).__name__}: {exc}"
        out_path.unlink(missing_ok=True)
        if traced and "spans" in rec:
            rec["layers"] = layer_totals(rec["spans"])
            rec["covered"] = covered_time(rec["spans"], stressed)
        records.append(rec)
    return {"traced": traced, "ops": records, "probes": probes}


def _median_op_times(passes, n_ops, scale=1.0):
    return [scale * statistics.median(p["ops"][i].get("seconds", 0.0) for p in passes)
            for i in range(n_ops)]


def end_to_end_metrics(ops, passes, setup_times, attempted, failed) -> dict:
    scale = speed_scale(passes)
    times = _median_op_times(passes, len(ops), scale)
    metrics = {
        "setup_s": (scale * statistics.median(setup_times), "s"),
        "wall_s": (sum(times), "s"),
    }
    for command, name in SUBCOMMAND_METRICS.items():
        metrics[name] = (sum(t for op, t in zip(ops, times) if op.command == command), "s")
    metrics["ok_frac"] = ((attempted - failed) / attempted, "ratio")
    rss = max(rec["rss_kb"] for p in passes for rec in p["ops"])
    metrics["peak_rss_mb"] = (rss / 1024.0, "MB")
    return metrics


def _pass_layers(ops, record) -> dict:
    """Per-layer sums over one traced pass, plus its derived counts."""
    layers = {name: [0.0, 0.0, 0] for name in LAYERS}
    counts = dict.fromkeys(COUNTS, 0)
    scan_evals = covered = wall = 0
    for op, rec in zip(ops, record["ops"]):
        wall += rec.get("seconds", 0.0)
        covered += rec.get("covered", 0.0)
        for name, (self_s, total_s, calls) in rec.get("layers", {}).items():
            entry = layers[name]
            entry[0] += self_s
            entry[1] += total_s
            entry[2] += calls
        for key, value in rec.get("counts", {}).items():
            counts[key] += value
        if op.command == "scan":
            scan_evals += rec.get("layers", {}).get("evolution.transfer_fidelity", [0, 0, 0])[2]
    return {"layers": layers, "counts": counts, "scan_evals": scan_evals,
            "stress_share": covered / wall if wall else 0.0}


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer_metrics(ops, passes) -> tuple:
    """(metrics, counts_repeat) from the traced passes of a --trace 1 run."""
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    summaries = [_pass_layers(ops, p) for p in traced]
    first = summaries[0]
    counts_repeat = all(s["layers"][name][2] == first["layers"][name][2]
                        and s["counts"] == first["counts"] for s in summaries for name in LAYERS)

    def med(fn):
        return statistics.median(fn(s) for s in summaries)

    metrics = {}
    for name in LAYERS:
        metrics[f"{name}.self_s"] = (med(lambda s: s["layers"][name][0]), "s")
        metrics[f"{name}.total_s"] = (med(lambda s: s["layers"][name][1]), "s")
        metrics[f"{name}.calls"] = (first["layers"][name][2], "count")
    calls = {name: first["layers"][name][2] for name in LAYERS}
    rows = sum(op.scan_rows for op in ops)
    metrics["algebra.apply_spec.amp_terms"] = (first["counts"]["algebra.apply_spec.amp_terms"],
                                               "count")
    metrics["io.bytes_written"] = (first["counts"]["io.bytes_written"], "bytes")
    metrics["evolution.scan_grid_rows"] = (rows, "count")
    metrics["noise.stream_reuse"] = (_ratio(calls["noise.noise_sweep"],
                                            calls["noise.trial_rngs"]), "ratio")
    metrics["evolution.scan_evals_per_row"] = (_ratio(first["scan_evals"], rows), "ratio")
    metrics["evolution.matvecs_per_evolve"] = (_ratio(calls["algebra.apply_spec"],
                                                      calls["evolution.evolve"]), "ratio")
    metrics["stress_share"] = (med(lambda s: s["stress_share"]), "ratio")
    scale = speed_scale(passes)
    wall_traced = sum(_median_op_times(traced, len(ops), scale))
    wall_plain = sum(_median_op_times(plain, len(ops), scale))
    metrics["trace.overhead_s"] = (wall_traced - wall_plain, "s")
    return metrics, counts_repeat


def _write_spans(path: Path, ops, record) -> None:
    spans = [
        {"op": i, "command": op.command, "name": name, "start": start, "end": end,
         "parent": parent}
        for i, (op, rec) in enumerate(zip(ops, record["ops"]))
        for name, start, end, parent in rec.get("spans", ())
    ]
    path.write_text(json.dumps(spans) + "\n")


def main(argv=None) -> int:
    if not (SRC / "spinamp" / "__init__.py").is_file():
        print(f"error: no spinamp package under {SRC}", file=sys.stderr)
        return 2
    args = _parse_args(argv)
    os.environ.update(PINNED_THREADS)
    sys.path.insert(0, str(SRC))
    import numpy as np
    import spinamp.cli
    if not os.path.realpath(spinamp.cli.__file__).startswith(str(SRC) + os.sep):
        print(f"error: spinamp imported from {spinamp.cli.__file__}", file=sys.stderr)
        return 2
    np.linalg.eigh(np.eye(64, dtype=complex))   # BLAS warm-up shared by every child
    probe = SpeedProbe(np)
    probe()

    workload = WORKLOADS[args.workload]
    ops = workload.build(random.Random(args.seed))
    setup_times = []

    OUT_DIR.mkdir(exist_ok=True)
    run_dir = OUT_DIR / f"run-{os.getpid()}"
    run_dir.mkdir()
    reference = [None] * len(ops)
    passes = []
    started = time.perf_counter()
    try:
        while True:
            traced = bool(args.trace) and len(passes) % 2 == 1
            if not args.trace:
                setup_times += measure_setup(SETUP_LAUNCHES_PER_PASS)
            passes.append(run_pass(ops, run_dir, traced, reference, workload.stressed, probe))
            elapsed = time.perf_counter() - started
            next_end = elapsed + elapsed / len(passes)
            if next_end > HARD_STOP_S or (len(passes) >= MIN_PASSES and next_end > args.seconds):
                break
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    failures = [(i, op.command, rec["error"]) for p in passes
                for i, (op, rec) in enumerate(zip(ops, p["ops"])) if rec["error"]]
    attempted = len(passes) * len(ops)
    failed = len(failures)
    absent = sorted({name for p in passes for rec in p["ops"] for name in rec.get("absent", ())})
    counts_repeat = None
    if args.trace:
        metrics, counts_repeat = per_layer_metrics(ops, passes)
        first_traced = next(p for p in passes if p["traced"])
        _write_spans(OUT_DIR / f"{args.workload}-seed{args.seed}-spans.json", ops, first_traced)
    else:
        metrics = end_to_end_metrics(ops, passes, setup_times, attempted, failed)

    env = environment(np, args.seed)
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "passes": len(passes), "ops_per_pass": len(ops), "attempted": attempted,
        "failed": failed, "failed_frac": failed / attempted, "failures": failures,
        "absent_layers": absent, "counts_repeat": counts_repeat, "environment": env,
        "setup_times_s": setup_times,
        "speed_scale": speed_scale(passes),
        "raw_wall_s": sum(_median_op_times(passes, len(ops))),
        "probes_s": [p["probes"] for p in passes],
        "ops": [{"argv": list(op.argv),
                 "seconds": [p["ops"][i].get("seconds") for p in passes],
                 "traced": [p["traced"] for p in passes]} for i, op in enumerate(ops)],
        "metrics": metrics,
    }
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(passes)} x {len(ops)} ops")
    print("environment " + json.dumps(env, sort_keys=True))
    for i, command, error in failures:
        print(f"FAILED op {i} ({command}): {error}")
    if absent:
        print("absent layers: " + ", ".join(absent))
    if counts_repeat is False:
        print("WARNING: call counts differ between traced passes")
    print(f"failed_frac {failed / attempted:.6g} (ops {attempted})")
    print(f"raw wall_s {report['raw_wall_s']:.6g} s, scaled by {report['speed_scale']:.4g} "
          "for the speed probe")
    for name, m in metrics.items():
        print(f"  {name:42s} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
