"""Command-line front end.

Every experiment in the package is reachable as a subcommand producing a
deterministic CSV or JSON artifact.  Exit codes: 0 success, 1 numeric or
assertion failure, 2 usage error (a chain too long for the command, a time
whose phases overflow, or a run too large for memory, included).
"""

from __future__ import annotations

import json
import math
import sys
from contextlib import contextmanager
from types import SimpleNamespace
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
    PST_TIME,
    Propagator,
    TimeRangeError,
    amplification_check,
    block_unitaries,
    max_fidelity_scan,
    transfer_fidelity,
)
from .io import format_number, header_lines, parse_time, render_csv, write_text_atomic
from .maps import conjugate_hamiltonian, gamma_inverse_indices
from .noise import ERROR_PLACEMENT, NoiseConfig, noise_sweep

EXIT_OK = 0
EXIT_NUMERIC = 1
EXIT_USAGE = 2

#: Longest chain a command builds, set by cost: the free-fermion route's
#: N x N ``eigh`` grows as N^3 (``amplify`` on one BLAS thread of a 2-vCPU
#: Xeon: 0.4 s at N = 1024, 2.2 s at N = 2048).
MAX_CHAIN = 1024


class UsageError(Exception):
    pass


def _profile(kind: str, n_sites: int) -> CouplingProfile:
    """The named profile; a chain above ``MAX_CHAIN`` is refused first."""
    if n_sites > MAX_CHAIN:
        raise SizeError(f"N={n_sites} exceeds the {MAX_CHAIN}-site chain cap")
    if kind == "uniform":
        return CouplingProfile.uniform(n_sites)
    if kind == "engineered":
        return CouplingProfile.engineered(n_sites)
    raise UsageError(f"unknown profile kind {kind!r}")


def _emit(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    try:
        write_text_atomic(out, text)
    except OSError as exc:
        raise UsageError(f"cannot write {out}: {exc.strerror or exc}") from None


def _json_doc(config: dict, payload: dict) -> str:
    doc = {"spinamp_version": __version__, "config": config, "result": payload}
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _time(text: Optional[str]) -> float:
    """The --time value, or the perfect-transfer time when it is omitted."""
    return PST_TIME if text is None else parse_time(text)


@contextmanager
def _inputs():
    """A ValueError raised while building a command's inputs is a usage error."""
    try:
        yield
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def u64(text: str) -> int:
    """Flag type of --seed: an integer in 0..2^64 - 1."""
    value = int(text)
    if not 0 <= value < 2 ** 64:
        raise ValueError(f"{text!r} is outside 0..2^64 - 1")
    return value


# -- subcommands ----------------------------------------------------------


def cmd_verify_equivalence(args) -> int:
    require_dense(args.n_max)
    if args.n_min < 2 or args.n_min > args.n_max:
        raise UsageError("need 2 <= n-min <= n-max")
    if args.profiles < 1:
        raise UsageError("need at least one profile per chain length")
    if not 0.0 < args.tol < math.inf:
        raise UsageError(f"--tol must be positive and finite, got {args.tol}")
    rng = np.random.default_rng(args.seed)
    failures = []
    lines = []
    for n in range(args.n_min, args.n_max + 1):
        worst = 0.0
        for _ in range(args.profiles):
            couplings = tuple(rng.uniform(0.2, 2.0, n - 1))
            fields = tuple(rng.uniform(-1.0, 1.0, n))
            profile = CouplingProfile(couplings, fields)
            h_ex = exchange_chain(profile)
            h_cluster = cluster_chain(profile)
            if args.corrupt:
                bad = CouplingProfile(tuple(1.01 * j for j in couplings), fields)
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
    _emit("".join(line + "\n" for line in lines + failures), args.out)
    return EXIT_NUMERIC if failures else EXIT_OK


def cmd_amplify(args) -> int:
    with _inputs():
        profile = _profile(args.profile, args.n)
        t = _time(args.time)
        alpha, beta = args.alpha, args.beta     # one given fixes the other
        if alpha is None:
            alpha = (1.0 / math.sqrt(2.0) if beta is None
                     else math.sqrt(max(0.0, 1.0 - beta * beta)))
        if beta is None:
            beta = math.sqrt(max(0.0, 1.0 - alpha * alpha))
        prop = Propagator(profile, "cluster")
        result = amplification_check(prop, alpha, beta, t)
    config = {"n": args.n, "profile": args.profile, "t": t,
              "alpha": alpha, "beta": beta}
    _emit(_json_doc(config, {
        "fidelity": result.fidelity,
        "fid0": result.fid0,
        "fid1": result.fid1,
        "phase": result.phase,
    }), args.out)
    return EXIT_OK


def _endpoints(args) -> tuple:
    """The profile and the --source and --target configs of transfer and scan;
    a config of another length is refused by the propagator."""
    return (_profile(args.profile, args.n), BitConfig.from_string(args.source),
            BitConfig.from_string(args.target))


def cmd_transfer(args) -> int:
    with _inputs():
        profile, source, target = _endpoints(args)
        t = _time(args.time)
        prop = Propagator(profile, args.family)
        fid = transfer_fidelity(prop, source, target, t)
    config = {"n": args.n, "profile": args.profile, "family": args.family,
              "source": str(source), "target": str(target), "t": t}
    _emit(_json_doc(config, {"fidelity": fid}), args.out)
    return EXIT_OK


def cmd_scan(args) -> int:
    with _inputs():
        profile, source, target = _endpoints(args)
        prop = Propagator(profile, args.family)
        t_star, f_star, ts, fidelities = max_fidelity_scan(
            prop, source, target, t_max=args.t_max, grid_step=args.grid_step)
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
    report = ca_vs_hamiltonian_report(args.n)
    # site 1 first; index -1, no continuous output, names the empty string
    names = np.array([format(i, f"0{args.n}b")[::-1] for i in range(1 << args.n)] + [""])
    columns = (names[report.inputs], names[report.continuous_output], report.continuous_prob,
               names[report.mirror_output], report.agree, report.ca_hit_step)
    config = {"n": args.n, "profile": "engineered"}
    _emit(render_csv(
        ("input", "continuous_output", "continuous_prob",
         "mirror_output", "agree", "ca_hit_step"),
        zip(*(c.tolist() for c in columns)), header_lines(config, __version__)), args.out)
    return EXIT_OK if report.agree.all() else EXIT_NUMERIC


def cmd_noise_sweep(args) -> int:
    with _inputs():
        profile = _profile(args.profile, args.n)
        cfg = NoiseConfig(args.p.split(","), _time(args.time), args.steps, args.trials, args.seed)
    records = noise_sweep(profile, cfg)
    config = {"n": args.n, "profile": args.profile, "t": cfg.total_time, "steps": cfg.steps,
              "trials": cfg.trials, "seed": cfg.seed, "p_grid": args.p,
              "error_placement": ERROR_PLACEMENT}
    rows = [
        (r.hamiltonian, r.p, r.mean_fidelity, r.standard_error, cfg.trials, cfg.seed)
        for r in records
    ]
    comments = header_lines(config, __version__)
    block_dims = {r.hamiltonian: r.block_dim for r in records}
    comments.append(f"# block_dims: {json.dumps(block_dims)}")
    _emit(render_csv(
        ("hamiltonian", "p", "mean_fidelity", "std_error", "trials", "seed"),
        rows, comments), args.out)
    return EXIT_OK


def _star_checks(star: HamiltonianSpec, spikes, t: float) -> tuple:
    """(max |U_star - U_spike_k ... U_spike_1|, |<1...1|U_star|10...0>|^2),
    one size class of star blocks at a time: spikes flip disjoint sites, so
    every spike block lies inside one star block.  A class's product is
    built after its unitary, from the spikes' block unitaries, about 2^16
    product entries per batch.  The probability is read off the star's
    block before the product is subtracted, and is 0.0 when the two states
    lie in different blocks."""
    spike_blocks = [b for spike in spikes for b in block_unitaries(spike, t)]
    seed, ones = 1, star.dim - 1
    row, pos = np.full((2, star.dim), -1)     # star block in the class, position
    deviation = probability = 0.0
    for indices, u in block_unitaries(star, t):
        row[indices] = np.arange(indices.shape[0])[:, None]
        pos[indices] = np.arange(indices.shape[1])
        if row[seed] >= 0 and row[ones] == row[seed]:
            probability = float(abs(u[row[seed], pos[ones], pos[seed]]) ** 2)
        product = np.broadcast_to(np.eye(u.shape[1], dtype=complex), u.shape).copy()
        for spike_indices, v in spike_blocks:
            r, p = row[spike_indices], pos[spike_indices]
            mine = np.flatnonzero((r >= 0).any(axis=1))
            if (r[mine] != r[mine, :1]).any():
                raise SpinChainError("a spike block spans two star blocks")
            step = max(1, (1 << 16) // (p.shape[1] * u.shape[1]))
            for lo in range(0, mine.size, step):
                k = mine[lo:lo + step]
                product[r[k, :1], p[k]] = v[k] @ product[r[k, :1], p[k]]
        row[indices] = -1
        u -= product
        deviation = max(deviation, float(np.max(np.abs(u))))
        del u, product              # free each class before the next is evolved
    return deviation, probability


def cmd_star_demo(args) -> int:
    with _inputs():
        layout = StarLayout(args.spikes, _profile(args.profile, args.length))
        t = _time(args.time)
    require_dense(layout.total_sites)
    spikes = spike_hamiltonians(layout)
    comm = max((max_commutator(a, b) for i, a in enumerate(spikes) for b in spikes[i + 1:]),
               default=0.0)
    product_dev, fid = _star_checks(sum(spikes, HamiltonianSpec(layout.total_sites)), spikes, t)
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


#: (name, help, handler, arguments) of every subcommand, in help order; an
#: argument is (flag, keywords of type, default, help, store_true, required).
COMMANDS = (
    ("verify-equivalence", "check the CNOT-ladder identity symbolically and entry by entry",
     cmd_verify_equivalence, (
         ("--n-min", dict(type=int, default=2)),
         ("--n-max", dict(type=int, default=8)),
         ("--profiles", dict(type=int, default=5, help="random profiles per chain length")),
         ("--tol", dict(type=float, default=1e-12)),
         ("--corrupt", dict(action="store_true", default=False,
                            help="negative control: perturb one side and expect failure")),
         ("--seed", dict(type=u64, default=0, help="RNG seed (u64)")),
     )),
    ("amplify", "score the amplification conversion", cmd_amplify, (
        ("--n", dict(type=int, required=True)),
        ("--profile", dict(default="engineered")),
        ("--time", dict(help="evolution time; accepts pi tokens like pi/2")),
        ("--alpha", dict(type=float)),
        ("--beta", dict(type=float)),
    )),
    ("transfer", "basis-state transfer probability", cmd_transfer, (
        ("--n", dict(type=int, required=True)),
        ("--profile", dict(default="engineered")),
        ("--family", dict(default="cluster")),
        ("--source", dict(required=True, help="bit string, site 1 first")),
        ("--target", dict(required=True)),
        ("--time", {}),
    )),
    ("scan", "fidelity scan over a time window", cmd_scan, (
        ("--n", dict(type=int, required=True)),
        ("--profile", dict(default="uniform")),
        ("--family", dict(default="cluster")),
        ("--source", dict(required=True)),
        ("--target", dict(required=True)),
        ("--t-max", dict(type=float, default=200.0)),
        ("--grid-step", dict(type=float, default=0.1)),
    )),
    ("ca-compare", "exhaustive CA vs continuous evolution table", cmd_ca_compare, (
        ("--n", dict(type=int, required=True)),
    )),
    ("noise-sweep", "Monte Carlo dephasing comparison", cmd_noise_sweep, (
        ("--n", dict(type=int, default=6)),
        ("--profile", dict(default="engineered")),
        ("--p", dict(default="0,0.02,0.05,0.1,0.15,0.2",
                     help="comma-separated flip probabilities")),
        ("--steps", dict(type=int, default=25)),
        ("--trials", dict(type=int, default=10_000)),
        ("--time", {}),
        ("--seed", dict(type=u64, default=0, help="RNG seed (u64)")),
    )),
    ("star-demo", "star-geometry factorization checks", cmd_star_demo, (
        ("--spikes", dict(type=int, default=3)),
        ("--length", dict(type=int, default=3)),
        ("--profile", dict(default="engineered")),
        ("--time", {}),
    )),
)
_COMMON = (
    ("--config", dict(help="JSON file supplying argument defaults")),
    ("--out", dict(help="output path (stdout if omitted)")),
)


class ArgvError(UsageError):
    """A malformed command line: one ``spinamp: error:`` line, exit 2."""


def _value(flag: str, keywords: dict, text: str):
    kind = keywords.get("type", str)
    try:
        return kind(text)
    except ValueError:
        raise ArgvError(f"argument {flag}: invalid {kind.__name__} value: {text!r}") from None


def _help(command=None) -> str:
    """The --help text of spinamp, or of one entry of ``COMMANDS``."""
    rows = [("-h, --help", "show this help and exit")]
    if command is None:
        head = "spinamp [-h] [--version] COMMAND ...\n\nSpin-chain amplification dynamics and differential tests"
        rows += [("--version", "print the version and exit"), *(c[:2] for c in COMMANDS)]
    else:
        head = f"spinamp {command[0]} [flags]\n\n{command[1]}"
        rows += [(f"{flag} {'' if 'action' in kw else flag[2:].upper().replace('-', '_')}",
                  kw.get("help", "")) for flag, kw in command[3] + _COMMON]
    return f"usage: {head}\n" + "".join(f"\n  {a:<22}  {b}".rstrip() for a, b in rows) + "\n"


def parse_argv(argv: list) -> Optional[SimpleNamespace]:
    """The namespace ``argv`` asks for, or None once --help (anywhere after the
    command) or --version is printed.  A flag takes its ``COMMANDS`` default,
    then its --config value, then its last argv value; a ``required`` flag
    left None or empty is refused."""
    command = next((c for c in COMMANDS if argv[:1] == [c[0]]), None)
    if argv[:1] == ["--version"] or {"-h", "--help"} & set(argv if command else argv[:1]):
        sys.stdout.write(f"{__version__}\n" if argv[0] == "--version" else _help(command))
        return None
    if command is None:
        raise ArgvError(f"the first argument must be one of {', '.join(c[0] for c in COMMANDS)}")
    flags = dict(command[3] + _COMMON)
    given, tokens = {}, iter(argv[1:])
    for token in tokens:
        flag, eq, text = token.partition("=")
        keywords = flags.get(flag, {})
        switch = "action" in keywords               # store_true takes no value, not even "="
        if flag not in flags or switch and eq:
            raise ArgvError(f"unrecognized arguments: {token}")
        if not (switch or eq):
            text = next(tokens, None)
            if text is None or text.partition("=")[0] in flags:
                raise ArgvError(f"argument {flag}: expected one argument")
        given[flag] = switch or _value(flag, keywords, text)
    doc = {}
    if given.get("--config"):
        try:
            with open(given["--config"]) as handle:
                doc = json.load(handle)
        except (OSError, ValueError) as exc:
            raise UsageError(f"cannot read --config {given['--config']}: {exc}") from None
        if not isinstance(doc, dict):
            raise UsageError("--config must contain a JSON object")
    values = {flag: keywords.get("default") for flag, keywords in flags.items()}
    for key, value in doc.items():
        flag = "--" + key.replace("_", "-")
        if flag not in flags:
            raise UsageError(f"config key {key!r} unknown for this subcommand")
        default = flags[flag].get("default")
        # null only where the default is None, booleans for on/off flags alone;
        # other values go through the flag's type as text, unless argv's value wins
        if value is None and default is not None or isinstance(value, bool) != isinstance(default, bool):
            raise UsageError(f"config key {key!r} cannot be {json.dumps(value)}")
        keep = value is None or isinstance(value, bool) or flag in given
        values[flag] = value if keep else _value(flag, flags[flag], str(value))
    values.update(given)
    for flag, keywords in flags.items():
        if keywords.get("required") and values[flag] in (None, ""):
            raise UsageError(f"{flag} is required (flag or config)")
    return SimpleNamespace(func=command[2], **{f[2:].replace("-", "_"): v for f, v in values.items()})


def main(argv=None) -> int:
    try:
        args = parse_argv(sys.argv[1:] if argv is None else list(argv))
        return EXIT_OK if args is None else args.func(args)
    except (UsageError, SizeError, TimeRangeError, MemoryError) as exc:
        # numpy's MemoryError names the allocation; a bare one says nothing
        prog = "spinamp: " if isinstance(exc, ArgvError) else ""
        print(f"{prog}error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_USAGE
    except (SpinChainError, ValueError) as exc:
        print(f"failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
