"""Seeded op lists for the benchmark's workloads.

A workload is a fixed list of CLI commands built from ``--seed``.  The
chain sizes of every slot are fixed, so the cost of a pass does not depend
on the seed; the seed picks what the physics does not care about for cost:
amplitudes, source configurations, flip probabilities and RNG seeds.

Every workload also carries small "companion" ops, three for each
subcommand it does not centre on, so each per-subcommand metric is
measured on every workload.  Companions run at N <= 7 on the dense path
and cost a few percent of a pass; they time each command's fixed
overhead.  Three of them average out more timing noise than one would.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, List

from perfbench.checks import PST_TIME, grid_rows, mirror, suffix_xor

__all__ = ["Op", "Workload", "WORKLOADS", "COMMANDS"]

COMMANDS = ("amplify", "transfer", "scan", "ca-compare", "verify-equivalence",
            "noise-sweep", "star-demo")


@dataclass(frozen=True)
class Op:
    """One CLI invocation (argv without --out) and what its checker expects."""

    command: str
    argv: tuple
    expect: dict = field(default_factory=dict)

    @property
    def scan_rows(self) -> int:
        if self.command != "scan":
            return 0
        return grid_rows(self.expect["t_max"], self.expect["grid_step"])


def _config(rng: random.Random, n: int, walls=None) -> str:
    """A random configuration that the mirror map moves.

    With ``walls`` given, the config has exactly that many domain walls
    (ones among its adjacent differences, b_{N+1} = 0): the conserved
    wall number fixes the Krylov sector and so the matvec count.
    """
    while True:
        if walls is None:
            bits = "".join(str(rng.randrange(2)) for _ in range(n))
        else:
            ones = set(rng.sample(range(n), walls))
            bits = suffix_xor("".join("1" if i in ones else "0" for i in range(n)))
        if mirror(bits) != bits:
            return bits


def _single(rng: random.Random, n: int, site=None) -> str:
    """One excitation at ``site``, or at a random site off the centre."""
    k = site or rng.choice([k for k in range(1, n + 1) if 2 * k != n + 1])
    return "".join("1" if i == k else "0" for i in range(1, n + 1))


def amplify(rng, n):
    alpha = round(rng.uniform(0.1, 0.99), 6)
    return Op("amplify", ("amplify", "--n", str(n), "--alpha", repr(alpha)),
              {"n": n, "alpha": alpha})


def transfer(rng, n, family="cluster", walls=None):
    source = _config(rng, n, walls) if family == "cluster" else _single(rng, n)
    target = mirror(source) if family == "cluster" else source[::-1]
    return Op("transfer", ("transfer", "--n", str(n), "--family", family,
                           "--source", source, "--target", target),
              {"family": family, "source": source})


def scan(rng, n, family, profile, t_max, grid_step, site=None):
    source = _config(rng, n) if family == "cluster" else _single(rng, n, site)
    target = mirror(source) if family == "cluster" else source[::-1]
    return Op("scan", ("scan", "--n", str(n), "--family", family, "--profile", profile,
                       "--source", source, "--target", target,
                       "--t-max", repr(t_max), "--grid-step", repr(grid_step)),
              {"family": family, "source": source, "t_max": t_max, "grid_step": grid_step,
               "pst": profile == "engineered" and t_max >= PST_TIME})


def ca_compare(n):
    return Op("ca-compare", ("ca-compare", "--n", str(n)), {"n": n})


def verify_equivalence(rng, n_min, n_max, tol=1e-12):
    seed = rng.randrange(2 ** 32)
    return Op("verify-equivalence",
              ("verify-equivalence", "--n-min", str(n_min), "--n-max", str(n_max),
               "--profiles", "1", "--tol", repr(tol), "--seed", str(seed)),
              {"n_min": n_min, "n_max": n_max, "tol": tol})


def noise_sweep(rng, n, trials):
    ps = (0.0, round(rng.uniform(0.02, 0.08), 4), round(rng.uniform(0.1, 0.2), 4))
    seed = rng.randrange(2 ** 32)
    return Op("noise-sweep", ("noise-sweep", "--n", str(n), "--trials", str(trials),
                              "--p", ",".join(repr(p) for p in ps), "--seed", str(seed)),
              {"p": ps, "trials": trials, "seed": seed})


def star_demo(spikes, length):
    return Op("star-demo", ("star-demo", "--spikes", str(spikes), "--length", str(length)),
              {"spikes": spikes, "length": length})


_COMPANIONS = {
    "amplify": lambda rng: amplify(rng, 7),
    "transfer": lambda rng: transfer(rng, 7),
    "scan": lambda rng: scan(rng, 6, "exchange", "engineered", 2.0, 0.05),
    "ca-compare": lambda rng: ca_compare(7),
    "verify-equivalence": lambda rng: verify_equivalence(rng, 5, 7),
    "noise-sweep": lambda rng: noise_sweep(rng, 4, 400),
    "star-demo": lambda rng: star_demo(2, 3),
}


COMPANION_REPEATS = 3


def _with_companions(rng: random.Random, ops: List[Op]) -> List[Op]:
    present = {op.command for op in ops}
    return ops + [_COMPANIONS[c](rng) for c in COMMANDS if c not in present
                  for _ in range(COMPANION_REPEATS)]


def dense_exact(rng: random.Random) -> List[Op]:
    return _with_companions(rng, [
        amplify(rng, 6),
        amplify(rng, 8),
        amplify(rng, 10),
        transfer(rng, 9),
        transfer(rng, 10, family="exchange"),
        scan(rng, 8, "exchange", "uniform", 20.0, 0.05),
        scan(rng, 9, "cluster", "engineered", 2.0, 0.02),
        ca_compare(9),
        verify_equivalence(rng, 8, 9),
        star_demo(2, 5),
    ])


def krylov_long(rng: random.Random) -> List[Op]:
    # Wall counts away from 0 and N keep the Krylov sector large and the
    # matvec count fixed: 510 per transfer at N = 13, 330 at N = 14.
    return _with_companions(rng, [
        amplify(rng, 13),
        amplify(rng, 14),
        amplify(rng, 16),
        transfer(rng, 13, walls=rng.randint(4, 9)),
        transfer(rng, 14, walls=rng.randint(6, 8)),
        # the golden-section refinement's matvecs depend on the source
        # site (660-715 at N = 13), so the scan keeps the end-to-end one
        scan(rng, 13, "exchange", "uniform", 2.0, 0.25, site=1),
    ])


def noise_mc(rng: random.Random) -> List[Op]:
    return _with_companions(rng, [noise_sweep(rng, n, 2000) for n in (5, 6, 7, 8)])


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[random.Random], List[Op]]
    stressed: tuple     # layers whose share of wall time this workload is built to raise


WORKLOADS = {w.name: w for w in (
    Workload("dense-exact", dense_exact,
             ("evolution.propagator_init", "algebra.realize_dense")),
    Workload("krylov-long", krylov_long, ("algebra.apply_spec",)),
    Workload("noise-mc", noise_mc,
             ("noise.noise_sweep", "noise.dephasing_ensemble", "noise.trial_rngs")),
)}
