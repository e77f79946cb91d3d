"""Independent reference implementations the library is checked against.

Each one computes by the textbook route, with no code shared with
``spinamp``'s kernels:

* ``kron_dense``      -- a Hamiltonian as a sum of Kronecker products;
* ``entries_by_term`` -- a spec's nonzero entries, one term at a time,
  the loop that ``algebra._entries`` replaces with one array pass;
* ``kron_unitary``    -- e^{-iHt} from a full eigendecomposition of it;
* ``exchange_sector`` -- the exchange chain on one excitation-number
  sector, entry by entry from its definition, for chains too long for
  the whole 2^N space;
* ``cnot_matrix`` / ``gamma_matrix`` -- the CNOT ladder as products of
  dense 2^N x 2^N permutation matrices;
* ``dephasing_trial`` -- one noisy transfer, evolved step by step over
  the whole 2^N space, with the propagator's chain rebuilt as a spec;
* ``forward_ensemble`` -- every noisy transfer of a sweep as free
  fermions, each trial's orbitals multiplied by the N x N site-basis
  segment propagator at every step, for chains too long for 2^N (it
  reads h's eigenpairs off ``Propagator.vals`` and ``Propagator.vecs``);
* ``gamma_forward_bits`` / ``gamma_inverse_bits`` / ``mirror_bits`` --
  the ladder maps and the mirror map, bit by bit on ``BitConfig`` tuples;
* ``ca_half_step_bits`` -- one CA half-step, site by site;
* ``ca_report_rows`` -- the CA comparison table, one config at a time,
  reading the full 2^N x 2^N unitary of ``kron_unitary``;
* ``binomial_transfer`` -- the engineered chain's one-excitation transfer
  probabilities in closed form, at any chain length;
* ``uniform_chain_amplitude`` -- a k-excitation amplitude of the uniform
  chain from its sine modes, a determinant with no ``eigh`` in it.

``argparse_namespace`` reads a ``spinamp`` command line, --config file and
all, with argparse, built from ``cli.COMMANDS`` as the CLI once built it;
a flag the table marks ``required`` is checked after the --config merge.

``pair_phase_deviations`` is no reference but a measurement: the
conditional phases of two excitations, read off ``Propagator.amplitudes``.
"""

import argparse
import itertools
import json
import math

import numpy as np

from spinamp import __version__, cli
from spinamp.algebra import BitConfig, HamiltonianSpec
from spinamp.chains import CouplingProfile, cluster_chain, exchange_chain
from spinamp.evolution import PST_TIME

PAULI_MATRICES = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "Y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    "Z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}


def kron_dense(spec: HamiltonianSpec) -> np.ndarray:
    """The 2^N x 2^N matrix of ``spec`` by explicit Kronecker products."""
    n = spec.n_sites
    out = np.zeros((1 << n, 1 << n), dtype=complex)
    for term in spec.terms:
        letters = dict(term.letters)
        # site 1 occupies the least significant index block
        mat = np.array([[term.coefficient]], dtype=complex)
        for site in range(n, 0, -1):
            mat = np.kron(mat, PAULI_MATRICES[letters.get(site, "I")])
        out += mat
    return out


def entries_by_term(spec: HamiltonianSpec) -> tuple:
    """(src, dst, values) of every nonzero <dst|H|src>, ordered by flip
    mask, then by src.  Each term c * i^|x&z| X^x Z^z, its masks read off
    its letters, adds the weights c * i^|x&z| * (-1)^|b&z| of every basis
    state b to its flip mask's running sum, which starts at 0.0."""
    states = np.arange(spec.dim)
    weights: dict = {}
    for term in spec.terms:
        x = sum(1 << (site - 1) for site, p in term.letters if p != "Z")
        z = sum(1 << (site - 1) for site, p in term.letters if p != "X")
        signs = 1.0 - 2.0 * (np.bitwise_count(states & z) & 1)
        w = term.coefficient * (1, 1j, -1, -1j)[(x & z).bit_count() % 4] * signs
        weights[x] = weights.get(x, 0.0) + w
    src, dst, values = [np.empty(0, dtype=np.intp)], [np.empty(0, dtype=np.intp)], [np.empty(0)]
    for flip, w in sorted(weights.items()):
        nonzero = w.nonzero()[0]
        src.append(nonzero)
        dst.append(nonzero ^ flip)
        values.append(w[nonzero])
    return np.concatenate(src), np.concatenate(dst), np.concatenate(values)


def kron_unitary(spec: HamiltonianSpec, t: float) -> np.ndarray:
    """e^{-iHt} over the whole 2^N space, from ``eigh`` of :func:`kron_dense`."""
    vals, vecs = np.linalg.eigh(kron_dense(spec))
    return (vecs * np.exp(-1j * vals * t)) @ vecs.conj().T


def exchange_sector(profile: CouplingProfile, excitations: int) -> tuple:
    """(indices, h): the basis indices holding ``excitations`` up spins,
    ascending, and the exchange chain's matrix on them.  A coupling J_n
    links two states that differ by one excitation hopping between sites
    n and n+1; the diagonal is sum_n B_n (1 - 2 b_n)."""
    n = profile.n_sites
    indices = [b for b in range(1 << n) if bin(b).count("1") == excitations]
    position = {b: k for k, b in enumerate(indices)}
    h = np.zeros((len(indices), len(indices)))
    for k, b in enumerate(indices):
        bits = [(b >> i) & 1 for i in range(n)]
        h[k, k] = sum(field * (1 - 2 * bit) for field, bit in zip(profile.fields, bits))
        for site, j in enumerate(profile.couplings):
            if bits[site] != bits[site + 1]:
                h[position[b ^ (0b11 << site)], k] = j
    return np.array(indices), h


def cnot_matrix(n_sites: int, control: int, target: int) -> np.ndarray:
    """Dense CNOT on the full 2^N space."""
    dim = 1 << n_sites
    idx = np.arange(dim)
    flipped = np.where((idx >> (control - 1)) & 1, idx ^ (1 << (target - 1)), idx)
    mat = np.zeros((dim, dim))
    mat[flipped, idx] = 1.0
    return mat


def gamma_matrix(n_sites: int) -> np.ndarray:
    """The full ladder C_2^1 C_3^2 ... C_N^{N-1} as a dense permutation."""
    mat = np.eye(1 << n_sites)
    for n in range(n_sites, 1, -1):
        mat = cnot_matrix(n_sites, n, n - 1) @ mat
    return mat


def dephasing_trial(prop, source, measure_site, total_time, p, cfg, uniforms, sites) -> float:
    """One noisy transfer from one trial's row of draws; P(measure_site is up).

    Evolves segment by segment over the whole 2^N space, with e^{-iHt}
    from :func:`kron_unitary`, and flips the sign of every amplitude whose
    drawn site is up when the uniform falls below p.
    """
    n = prop.n_sites
    chain = cluster_chain if prop.family == "cluster" else exchange_chain
    u_seg = kron_unitary(chain(prop.profile), total_time / cfg.steps)
    idx = np.arange(1 << n)
    psi = np.zeros(1 << n, dtype=complex)
    psi[source.index] = 1.0
    for step in range(cfg.steps):
        psi = u_seg @ psi
        if uniforms[step] < p:
            psi[((idx >> (int(sites[step]) - 1)) & 1).astype(bool)] *= -1.0
    up = ((idx >> (measure_site - 1)) & 1).astype(bool)
    return min(1.0, float(np.sum(np.abs(psi[up]) ** 2)))


def forward_ensemble(prop, source, measure_site, total_time, p, cfg, draws) -> np.ndarray:
    """All trial fidelities, as ``dephasing_ensemble`` scores them, by the
    plain forward route: row c of trial t is orbital c over the sites,
    every row times the segment propagator u = V e^{-i lambda T/steps} V^T
    at every step, then the hit trials times their flip's sign row.  A
    trial scores (1 - det(I - 2 W_A W_A^H)) / 2, A the measured site's sign
    set: site m on the exchange chain, sites m..N on the cluster chain."""
    vals, vecs = prop.vals, prop.vecs
    n, occupied = prop.n_sites, prop.occupied(source)
    u_seg = (vecs * np.exp(-1j * vals * total_time / cfg.steps)) @ vecs.T
    signs = 1.0 - 2.0 * (np.tri(n).T if prop.ladder else np.eye(n))
    uniforms, sites = draws
    orbitals = np.zeros((cfg.trials, len(occupied), n), dtype=complex)
    orbitals[:, np.arange(len(occupied)), occupied] = 1.0
    for step in range(cfg.steps):
        orbitals = orbitals @ u_seg
        for trial in np.flatnonzero(uniforms[:, step] < p):
            orbitals[trial] *= signs[sites[trial, step] - 1]
    w_a = orbitals[:, :, signs[measure_site - 1] < 0].swapaxes(1, 2)
    parity = np.linalg.det(np.eye(w_a.shape[1]) - 2.0 * w_a @ w_a.conj().swapaxes(1, 2))
    return np.clip((1.0 - parity.real) / 2.0, 0.0, 1.0)


def gamma_forward_bits(b: BitConfig) -> BitConfig:
    """Suffix-XOR: output bit i = XOR of input bits i..N."""
    out = []
    acc = 0
    for bit in reversed(b.bits):
        acc ^= bit
        out.append(acc)
    return BitConfig(tuple(reversed(out)))


def gamma_inverse_bits(b: BitConfig) -> BitConfig:
    """Adjacent differences: output bit i = b_i xor b_{i+1} (b_{N+1} = 0)."""
    padded = b.bits + (0,)
    return BitConfig(tuple(x ^ y for x, y in zip(padded, padded[1:])))


def mirror_bits(b: BitConfig) -> BitConfig:
    """Site reversal conjugated through the ladder, bit by bit."""
    return gamma_forward_bits(gamma_inverse_bits(b).reversed_sites())


def ca_half_step_bits(b: BitConfig, parity: str) -> BitConfig:
    """One CA half-step, site by site, reading the pre-step configuration."""
    n = b.n_sites
    want = 0 if parity == "even" else 1
    bits = list(b.bits)
    for site in range(2, n + 1):
        if site % 2 != want:
            continue
        if site < n:
            if b.bits[site - 2] != b.bits[site]:
                bits[site - 1] ^= 1
        else:
            if b.bits[site - 2] == 1:
                bits[site - 1] ^= 1
    return BitConfig(tuple(bits))


def ca_report_rows(n_sites: int) -> list:
    """The comparison table as (input, continuous_output, continuous_prob,
    mirror_output, agree, ca_hit_step) tuples, site 1 varying slowest.

    Continuous outputs are column argmaxes of |U|^2 for the full unitary
    of :func:`kron_unitary`; the CA runs config by config for N half-steps
    from an even start, with no other stop, and the hit step is the first
    that shows the mirror output (-1 if none does).
    """
    spec = cluster_chain(CouplingProfile.engineered(n_sites))
    probs = abs(kron_unitary(spec, PST_TIME)) ** 2
    rows = []
    for bits in itertools.product((0, 1), repeat=n_sites):
        b = BitConfig(bits)
        col = probs[:, b.index]
        best = int(col.argmax())
        continuous = BitConfig.from_index(n_sites, best)
        mirror = mirror_bits(b)
        trajectory = [b]
        for step in range(n_sites):
            trajectory.append(ca_half_step_bits(trajectory[-1], ("even", "odd")[step % 2]))
        hit = trajectory.index(mirror) if mirror in trajectory else -1
        rows.append((b, continuous, float(col[best]), mirror, continuous == mirror, hit))
    return rows


def binomial_transfer(n_sites: int, site: int, t: float) -> float:
    """|<site|U(t)|1>|^2 on the engineered exchange chain, one excitation.

    Its hopping matrix is 2 S_x for spin (N - 1)/2 (Christandl et al., PRL
    92, 187902 (2004)), so the probability is binomial:
    C(N-1, site-1) s^(site-1) (1-s)^(N-site), with s = sin^2 t.
    """
    s, k = math.sin(t) ** 2, site - 1
    return math.exp(math.log(math.comb(n_sites - 1, k)) + k * math.log(s)
                    + (n_sites - site) * math.log1p(-s))


def pair_phase_deviations(prop, t: float, first: int, mirror) -> dict:
    """(a, b) -> phi2 - phi1(a) - phi1(b), in [-pi, pi], for sites
    first <= a < b <= N, where phi1(s) is the phase of <mirror(c)|U(t)|c>
    for c the lone excitation at s, and phi2 that of c with 1s at a and b.
    Each of these amplitudes must have modulus at least 1/2."""
    n = prop.n_sites

    def phase(*sites) -> float:
        config = BitConfig(tuple(int(s in sites) for s in range(1, n + 1)))
        amp = prop.amplitudes(config, mirror(config), t)[0]
        assert abs(amp) >= 0.5
        return float(np.angle(amp))

    phi1 = {s: phase(s) for s in range(first, n + 1)}
    return {(a, b): math.remainder(phase(a, b) - phi1[a] - phi1[b], 2.0 * math.pi)
            for a, b in itertools.combinations(phi1, 2)}


class ArgvRefused(Exception):
    """argparse refused the command line (where the CLI exited with code 2)."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ArgvRefused(message)


def argparse_parser(**defaults) -> argparse.ArgumentParser:
    """Every subcommand of ``cli.COMMANDS`` with its flags, no prefix
    abbreviations and no ``required`` flags, since a --config file may
    supply one; ``defaults`` (a --config file's) beat the table's."""
    parser = _Parser(prog="spinamp", allow_abbrev=False)
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)
    for name, help_text, func, arguments in cli.COMMANDS:
        sub = subs.add_parser(name, help=help_text, allow_abbrev=False)
        for flag, keywords in arguments + cli._COMMON:
            sub.add_argument(flag, **{k: v for k, v in keywords.items() if k != "required"})
        sub.set_defaults(func=func, **defaults)
    return parser


def argparse_namespace(argv) -> argparse.Namespace:
    """Parse argv; --config JSON supplies defaults, explicit flags win.  A
    null is kept only where the default is None, a boolean only for an
    on/off flag; other values are set as text, so argparse puts them
    through the flag's type unless argv gives the flag.  Then a flag that
    ``cli.COMMANDS`` marks required is refused if it is None or empty."""
    parser = argparse_parser()
    args = parser.parse_args(argv)
    if getattr(args, "config", None):
        args = _merged(parser, args, argv)
    arguments = next(c[3] for c in cli.COMMANDS if c[0] == args.command)
    for flag, keywords in arguments:
        if keywords.get("required") and getattr(args, flag[2:].replace("-", "_")) in (None, ""):
            raise ArgvRefused(f"{flag} is required")
    return args


def _merged(parser, args, argv) -> argparse.Namespace:
    """argv parsed again with the --config file of ``args`` as defaults."""
    try:
        with open(args.config) as handle:
            doc = json.load(handle)
    except (OSError, ValueError) as exc:
        raise ArgvRefused(f"cannot read --config {args.config}: {exc}") from None
    if not isinstance(doc, dict):
        raise ArgvRefused("--config must contain a JSON object")
    own = vars(parser.parse_args([args.command]))      # the subcommand's own defaults
    defaults = {}
    for key, value in doc.items():
        attr = key.replace("-", "_")
        if attr in ("func", "command") or attr not in own:
            raise ArgvRefused(f"config key {key!r} unknown for this subcommand")
        if (value is None and own[attr] is not None
                or isinstance(value, bool) != isinstance(own[attr], bool)):
            raise ArgvRefused(f"config key {key!r} cannot be {json.dumps(value)}")
        keep = value is None or isinstance(value, (str, bool))
        defaults[attr] = value if keep else str(value)
    return argparse_parser(**defaults).parse_args(argv)


def uniform_chain_amplitude(n_sites: int, sources, targets, t: float) -> complex:
    """<targets|e^{-iht}|sources> for fermions on the uniform chain with no
    field, h = tridiag(1), sites 1-based: det u[D, S], with
    u = sum_k phi_k phi_k^T e^{-i lambda_k t}, phi_k(n) = sqrt(2/(N+1))
    sin(pi k n/(N+1)) and lambda_k = 2 cos(pi k/(N+1)) (Lieb, Schultz &
    Mattis, Ann. Phys. 16, 407 (1961))."""
    modes = np.arange(1, n_sites + 1)
    angle = math.pi / (n_sites + 1)

    def phi(sites):
        return math.sqrt(2.0 / (n_sites + 1)) * np.sin(angle * np.outer(sites, modes))

    u = (phi(targets) * np.exp(-2j * t * np.cos(angle * modes))) @ phi(sources).T
    return complex(np.linalg.det(u))
