"""Command-line front end.

Every experiment in the package is reachable as a subcommand producing a
deterministic CSV or JSON artifact.  Exit codes: 0 success, 1 numeric or
assertion failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from contextlib import contextmanager
from typing import Optional

import numpy as np

from . import __version__
from .algebra import (
    BitConfig,
    HamiltonianSpec,
    SizeError,
    SpinChainError,
    max_commutator,
    max_permuted_deviation,
    require_dense,
)
from .automaton import ca_vs_hamiltonian_report
from .chains import (
    CouplingProfile,
    StarLayout,
    cluster_chain,
    exchange_chain,
    spike_hamiltonians,
)
from .evolution import (
    Propagator,
    amplification_check,
    max_fidelity_scan,
    pst_time,
    transfer_fidelity,
)
from .io import format_number, header_lines, parse_time, render_csv, write_text_atomic
from .maps import conjugate_hamiltonian, gamma_inverse_indices
from .noise import NoiseConfig, TransferTask, noise_sweep

EXIT_OK = 0
EXIT_NUMERIC = 1
EXIT_USAGE = 2


class UsageError(Exception):
    pass


def _profile(kind: str, n_sites: int) -> CouplingProfile:
    if kind == "uniform":
        return CouplingProfile.uniform(n_sites)
    if kind == "engineered":
        return CouplingProfile.engineered(n_sites)
    raise UsageError(f"unknown profile kind {kind!r}")


def _hamiltonian(family: str, profile: CouplingProfile):
    if family == "cluster":
        return cluster_chain(profile)
    if family == "exchange":
        return exchange_chain(profile)
    raise UsageError(f"unknown Hamiltonian family {family!r}")


def _emit(text: str, out: Optional[str]) -> None:
    if not out:
        sys.stdout.write(text)
        return
    try:
        write_text_atomic(out, text)
    except OSError as exc:
        raise UsageError(f"cannot write {out}: {exc.strerror or exc}") from None


def _json_doc(config: dict, payload: dict) -> str:
    doc = {"spinamp_version": __version__, "config": config, "result": payload}
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _time(text: Optional[str], n_sites: int) -> float:
    """The --time value, or the perfect-transfer time when it is omitted."""
    return parse_time(text) if text else pst_time(n_sites)


@contextmanager
def _inputs():
    """A ValueError raised while building a command's inputs is a usage error."""
    try:
        yield
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def finite(text: str) -> float:
    """argparse type for a float flag: finite values only."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text!r} is not finite")
    return value


# -- subcommands ----------------------------------------------------------


def cmd_verify_equivalence(args) -> int:
    require_dense(args.n_max)
    if args.n_min < 2 or args.n_min > args.n_max:
        raise UsageError("need 2 <= n-min <= n-max")
    if args.profiles < 1:
        raise UsageError("need at least one profile per chain length")
    rng = np.random.default_rng(args.seed)
    failures = []
    lines = []
    for n in range(args.n_min, args.n_max + 1):
        worst = 0.0
        for _ in range(args.profiles):
            couplings = tuple(rng.uniform(0.2, 2.0, n - 1))
            fields = tuple(rng.uniform(-1.0, 1.0, n))
            profile = CouplingProfile(n, couplings, fields)
            h_ex = exchange_chain(profile)
            h_cluster = cluster_chain(profile)
            if args.corrupt:
                bad = CouplingProfile(n, tuple(1.01 * j for j in couplings), fields)
                h_cluster = cluster_chain(bad)
            conjugated = conjugate_hamiltonian(h_ex)
            if conjugated.term_map() != h_cluster.term_map():
                extra = set(conjugated.term_map().items()) ^ set(h_cluster.term_map().items())
                failures.append(f"N={n}: symbolic mismatch on terms {sorted(extra)}")
                continue
            dense_dev = max_permuted_deviation(h_ex, h_cluster, gamma_inverse_indices(n))
            worst = max(worst, dense_dev)
            if dense_dev >= args.tol:
                failures.append(f"N={n}: dense deviation {dense_dev:.3e} >= {args.tol}")
        lines.append(f"N={n}: max dense deviation {format_number(worst)}")
    report = "\n".join(lines) + "\n"
    if failures:
        report += "\n".join(failures) + "\n"
        _emit(report, args.out)
        return EXIT_NUMERIC
    _emit(report, args.out)
    return EXIT_OK


def cmd_amplify(args) -> int:
    if args.n is None:
        raise UsageError("--n is required (flag or config)")
    with _inputs():
        profile = _profile(args.profile, args.n)
        t = _time(args.time, args.n)
        alpha = 1.0 / math.sqrt(2.0) if args.alpha is None else args.alpha
        beta = math.sqrt(max(0.0, 1.0 - alpha * alpha)) if args.beta is None else args.beta
        if not abs(alpha * alpha + beta * beta - 1.0) <= 1e-9:
            raise UsageError(f"need alpha^2 + beta^2 = 1, got alpha={alpha}, beta={beta}")
    result = amplification_check(Propagator(cluster_chain(profile)), alpha, beta, t)
    config = {"n": args.n, "profile": args.profile, "t": t,
              "alpha": alpha, "beta": beta, "seed": args.seed}
    _emit(_json_doc(config, {
        "fidelity": result.fidelity,
        "fid0": result.fid0,
        "fid1": result.fid1,
        "phase": result.phase,
    }), args.out)
    return EXIT_OK


def _endpoints(args) -> tuple:
    """The profile and the --source and --target configs of transfer and scan."""
    if args.n is None:
        raise UsageError("--n is required (flag or config)")
    if not args.source or not args.target:
        raise UsageError("--source and --target are required")
    with _inputs():
        profile = _profile(args.profile, args.n)
        source = BitConfig.from_string(args.source)
        target = BitConfig.from_string(args.target)
    if source.n_sites != args.n or target.n_sites != args.n:
        raise UsageError("source/target configs must have N bits")
    return profile, source, target


def cmd_transfer(args) -> int:
    profile, source, target = _endpoints(args)
    with _inputs():
        t = _time(args.time, args.n)
    fid = transfer_fidelity(Propagator(_hamiltonian(args.family, profile)), source, target, t)
    config = {"n": args.n, "profile": args.profile, "family": args.family,
              "source": str(source), "target": str(target), "t": t}
    _emit(_json_doc(config, {"fidelity": fid}), args.out)
    return EXIT_OK


def cmd_scan(args) -> int:
    profile, source, target = _endpoints(args)
    if args.t_max <= 0.0 or args.grid_step <= 0.0:
        raise UsageError("--t-max and --grid-step must be positive")
    t_star, f_star, ts, fidelities = max_fidelity_scan(
        Propagator(_hamiltonian(args.family, profile)), source, target,
        t_max=args.t_max, grid_step=args.grid_step)
    rows = zip(ts, fidelities)
    config = {"n": args.n, "profile": args.profile, "family": args.family,
              "source": str(source), "target": str(target),
              "t_max": args.t_max, "grid_step": args.grid_step}
    comments = header_lines(config, __version__)
    comments.append(f"# t_star: {format_number(t_star)}")
    comments.append(f"# fidelity_star: {format_number(f_star)}")
    _emit(render_csv(("t", "fidelity"), rows, comments), args.out)
    return EXIT_OK


def cmd_ca_compare(args) -> int:
    if args.n is None:
        raise UsageError("--n is required (flag or config)")
    rows = ca_vs_hamiltonian_report(args.n)
    config = {"n": args.n, "profile": "engineered"}
    table = [
        (str(r.input), str(r.continuous_output), r.continuous_prob,
         str(r.mirror_output), r.agree, r.ca_hit_step)
        for r in rows
    ]
    _emit(render_csv(
        ("input", "continuous_output", "continuous_prob",
         "mirror_output", "agree", "ca_hit_step"),
        table, header_lines(config, __version__)), args.out)
    if not all(r.agree for r in rows):
        return EXIT_NUMERIC
    return EXIT_OK


def cmd_noise_sweep(args) -> int:
    with _inputs():
        profile = _profile(args.profile, args.n)
        t = _time(args.time, args.n)
        cfgs = [NoiseConfig(float(p), args.steps, args.trials, args.seed)
                for p in args.p.split(",")]
    tasks = [
        TransferTask("cluster", Propagator(cluster_chain(profile)),
                     BitConfig.single(args.n, 2), args.n, t),
        TransferTask("exchange", Propagator(exchange_chain(profile)),
                     BitConfig.single(args.n, 1), args.n, t),
    ]
    records = noise_sweep(tasks, [c.p for c in cfgs], cfgs[0])
    config = {"n": args.n, "profile": args.profile, "t": t, "steps": args.steps,
              "trials": args.trials, "seed": args.seed, "p_grid": args.p,
              "error_placement": records[0].error_placement}
    rows = [
        (r.hamiltonian, r.p, r.mean_fidelity, r.standard_error, r.trials, r.seed)
        for r in records
    ]
    comments = header_lines(config, __version__)
    block_dims = {r.hamiltonian: r.block_dim for r in records}
    comments.append(f"# block_dims: {json.dumps(block_dims)}")
    _emit(render_csv(
        ("hamiltonian", "p", "mean_fidelity", "std_error", "trials", "seed"),
        rows, comments), args.out)
    return EXIT_OK


def _product_deviation(star_prop: Propagator, spikes, t: float) -> float:
    """max |U_star - U_spike_k ... U_spike_1|, star block by star block: spikes
    flip disjoint sites, so every spike block lies inside one star block."""
    star_blocks = list(star_prop.block_unitaries(t))
    where = np.empty((2, star_prop.spec.dim), dtype=np.intp)    # star block, position
    for k, (indices, _) in enumerate(star_blocks):
        where[0, indices] = k
        where[1, indices] = np.arange(indices.size)
    products = [np.eye(indices.size, dtype=complex) for indices, _ in star_blocks]
    for spike in spikes:
        for indices, u in Propagator(spike).block_unitaries(t):
            block = where[0, indices]
            if (block != block[0]).any():
                raise SpinChainError("a spike block spans two star blocks")
            rows = where[1, indices]
            product = products[block[0]]
            product[rows] = u @ product[rows]
    return max(float(np.max(np.abs(u - p))) for (_, u), p in zip(star_blocks, products))


def cmd_star_demo(args) -> int:
    with _inputs():
        layout = StarLayout(args.spikes, args.length,
                            _profile(args.profile, args.length))
        t = _time(args.time, args.length)
    require_dense(layout.total_sites)
    spikes = spike_hamiltonians(layout)
    comm = max((max_commutator(a, b) for i, a in enumerate(spikes) for b in spikes[i + 1:]),
               default=0.0)
    star_prop = Propagator(sum(spikes, HamiltonianSpec(layout.total_sites)))
    product_dev = _product_deviation(star_prop, spikes, t)
    source = BitConfig.single(layout.total_sites, 1)
    target = BitConfig(layout.total_sites, (1,) * layout.total_sites)
    fid = transfer_fidelity(star_prop, source, target, t)
    config = {"spikes": args.spikes, "length": args.length,
              "profile": args.profile, "t": t}
    _emit(_json_doc(config, {
        "total_sites": layout.total_sites,
        "max_pairwise_commutator": comm,
        "propagator_product_deviation": product_dev,
        "all_ones_probability": fid,
    }), args.out)
    return EXIT_OK


# -- argument plumbing ----------------------------------------------------


def _add_common(sub: argparse.ArgumentParser, func, defaults: dict) -> None:
    sub.add_argument("--config", help="JSON file supplying argument defaults")
    sub.add_argument("--out", help="output path (stdout if omitted)")
    sub.add_argument("--seed", type=int, default=0, help="RNG seed (u64)")
    sub.set_defaults(func=func, **defaults)


def build_parser(**defaults) -> argparse.ArgumentParser:
    """The parser; ``defaults`` (a --config file's) beat each subcommand's own."""
    parser = argparse.ArgumentParser(
        prog="spinamp",
        description="Spin-chain amplification dynamics and differential tests",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("verify-equivalence",
                        help="check the CNOT-ladder identity symbolically and entry by entry")
    p.add_argument("--n-min", type=int, default=2)
    p.add_argument("--n-max", type=int, default=8)
    p.add_argument("--profiles", type=int, default=5,
                   help="random profiles per chain length")
    p.add_argument("--tol", type=finite, default=1e-12)
    p.add_argument("--corrupt", action="store_true",
                   help="negative control: perturb one side and expect failure")
    _add_common(p, cmd_verify_equivalence, defaults)

    p = subs.add_parser("amplify", help="score the amplification conversion")
    p.add_argument("--n", type=int)
    p.add_argument("--profile", default="engineered")
    p.add_argument("--time", help="evolution time; accepts pi tokens like pi/2")
    p.add_argument("--alpha", type=finite)
    p.add_argument("--beta", type=finite)
    _add_common(p, cmd_amplify, defaults)

    p = subs.add_parser("transfer", help="basis-state transfer probability")
    p.add_argument("--n", type=int)
    p.add_argument("--profile", default="engineered")
    p.add_argument("--family", default="cluster", choices=("cluster", "exchange"))
    p.add_argument("--source", help="bit string, site 1 first")
    p.add_argument("--target")
    p.add_argument("--time")
    _add_common(p, cmd_transfer, defaults)

    p = subs.add_parser("scan", help="fidelity scan over a time window")
    p.add_argument("--n", type=int)
    p.add_argument("--profile", default="uniform")
    p.add_argument("--family", default="cluster", choices=("cluster", "exchange"))
    p.add_argument("--source")
    p.add_argument("--target")
    p.add_argument("--t-max", type=finite, default=200.0)
    p.add_argument("--grid-step", type=finite, default=0.1)
    _add_common(p, cmd_scan, defaults)

    p = subs.add_parser("ca-compare",
                        help="exhaustive CA vs continuous evolution table")
    p.add_argument("--n", type=int)
    _add_common(p, cmd_ca_compare, defaults)

    p = subs.add_parser("noise-sweep", help="Monte Carlo dephasing comparison")
    p.add_argument("--n", type=int, default=6)
    p.add_argument("--profile", default="engineered")
    p.add_argument("--p", default="0,0.02,0.05,0.1,0.15,0.2",
                   help="comma-separated flip probabilities")
    p.add_argument("--steps", type=int, default=25)
    p.add_argument("--trials", type=int, default=10_000)
    p.add_argument("--time")
    _add_common(p, cmd_noise_sweep, defaults)

    p = subs.add_parser("star-demo", help="star-geometry factorization checks")
    p.add_argument("--spikes", type=int, default=3)
    p.add_argument("--length", type=int, default=3)
    p.add_argument("--profile", default="engineered")
    p.add_argument("--time")
    _add_common(p, cmd_star_demo, defaults)

    return parser


def _parse_with_config(argv) -> argparse.Namespace:
    """Parse argv; --config JSON supplies defaults, explicit flags win."""
    args = build_parser().parse_args(argv)
    if not getattr(args, "config", None):
        return args
    try:
        with open(args.config) as handle:
            doc = json.load(handle)
    except (OSError, ValueError) as exc:
        raise UsageError(f"cannot read --config {args.config}: {exc}") from None
    if not isinstance(doc, dict):
        raise UsageError("--config must contain a JSON object")
    defaults = {}
    for key, value in doc.items():
        attr = key.replace("-", "_")
        if attr in ("func", "command") or not hasattr(args, attr):
            raise UsageError(f"config key {key!r} unknown for this subcommand")
        # anything but text, booleans and null goes through the flag's own
        # type check as its text, as if typed on the command line
        keep = value is None or isinstance(value, (str, bool))
        defaults[attr] = value if keep else str(value)
    return build_parser(**defaults).parse_args(argv)


def main(argv=None) -> int:
    try:
        args = _parse_with_config(argv)
        return args.func(args)
    except (UsageError, SizeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (SpinChainError, ValueError) as exc:
        print(f"failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
