"""Output checkers for the benchmark's CLI ops.

Each checker validates one command's output file against physics the
benchmark works out for itself; nothing here imports spinamp, so a bug
in the package cannot vouch for its own output.  A checker returns None
for a correct output and raises ``CheckError`` with the reason otherwise.

Site 1 is the leftmost character of every bit string, as in the CLI.
"""

from __future__ import annotations

import json
import math
import re

__all__ = ["CheckError", "PST_TOL", "PST_TIME", "mirror", "suffix_xor", "grid_rows", "check"]

#: Perfect-transfer outputs must reach probability 1 within this margin.
PST_TOL = 1e-9

#: Transfer time of the engineered profile (J_n = sqrt(n (N - n))).
PST_TIME = math.pi / 2.0


class CheckError(Exception):
    """An op's output contradicts the physics it should show."""


def suffix_xor(bits: str) -> str:
    """Output bit i is the XOR of input bits i..N (the CNOT ladder on configs)."""
    out, acc = [], 0
    for c in reversed(bits):
        acc ^= int(c)
        out.append(str(acc))
    return "".join(reversed(out))


def mirror(bits: str) -> str:
    """The mirror map: suffix-XOR of the reversed adjacent differences.

    Adjacent differences d_i = b_i xor b_{i+1} (with b_{N+1} = 0) undo the
    ladder; reversing them is site reversal on the exchange side.
    """
    padded = [int(c) for c in bits] + [0]
    diffs = "".join(str(a ^ b) for a, b in zip(padded, padded[1:]))
    return suffix_xor(diffs[::-1])


def grid_rows(t_max: float, step: float) -> int:
    """Rows of a scan over [0, t_max] at ``step`` (numpy.arange's length rule)."""
    return math.ceil((t_max + 0.5 * step) / step)


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def _near_one(value: float, what: str) -> None:
    _require(1.0 - PST_TOL <= value <= 1.0 + PST_TOL,
             f"{what} = {value!r}, expected 1 within {PST_TOL}")


def _expected_target(family: str, source: str) -> str:
    # cluster: the mirror map; exchange: plain site reversal
    return mirror(source) if family == "cluster" else source[::-1]


def _csv(text: str):
    """(comment lines, header, rows) of a CSV file with '#' comments."""
    lines = text.splitlines()
    comments = [ln for ln in lines if ln.startswith("#")]
    data = [ln.split(",") for ln in lines if not ln.startswith("#")]
    _require(bool(data), "no CSV header")
    return comments, data[0], data[1:]


def _comment_value(comments, key: str) -> float:
    prefix = f"# {key}: "
    values = [ln[len(prefix):] for ln in comments if ln.startswith(prefix)]
    _require(len(values) == 1, f"expected one '{prefix.strip()}' header line")
    return float(values[0])


def check_amplify(expect: dict, text: str) -> None:
    doc = json.loads(text)
    config, result = doc["config"], doc["result"]
    _require(config["n"] == expect["n"], f"echoed n {config['n']} != {expect['n']}")
    _require(abs(config["alpha"] - expect["alpha"]) <= 1e-12, "echoed alpha differs")
    _require(abs(config["t"] - PST_TIME) <= 1e-12, f"time {config['t']} is not pi/2")
    _near_one(result["fidelity"], "amplification fidelity")


def check_transfer(expect: dict, text: str) -> None:
    doc = json.loads(text)
    config = doc["config"]
    source = expect["source"]
    _require(config["family"] == expect["family"], "echoed family differs")
    _require(config["source"] == source, "echoed source differs")
    _require(config["target"] == _expected_target(expect["family"], source),
             f"target {config['target']} is not the mirror of {source}")
    _near_one(doc["result"]["fidelity"], "transfer fidelity")


def check_scan(expect: dict, text: str) -> None:
    comments, header, rows = _csv(text)
    _require(header == ["t", "fidelity"], f"unexpected columns {header}")
    t_max, step = expect["t_max"], expect["grid_step"]
    _require(len(rows) == grid_rows(t_max, step),
             f"{len(rows)} grid rows, expected {grid_rows(t_max, step)}")
    fids = []
    for i, (t, fid) in enumerate(rows):
        _require(abs(float(t) - i * step) <= 1e-9, f"row {i} has t = {t}")
        fid = float(fid)
        _require(0.0 <= fid <= 1.0 + PST_TOL, f"row {i} fidelity {fid} outside [0, 1]")
        fids.append(fid)
    config = json.loads(next(ln for ln in comments if ln.startswith("# config: "))[10:])
    _require(config["source"] == expect["source"], "echoed source differs")
    _require(config["target"] == _expected_target(expect["family"], expect["source"]),
             "scan target is not the mirror of its source")
    t_star = _comment_value(comments, "t_star")
    f_star = _comment_value(comments, "fidelity_star")
    _require(0.0 <= t_star <= t_max + step, f"t_star {t_star} outside the window")
    _require(f_star >= max(fids) - PST_TOL,
             f"fidelity_star {f_star} below the grid maximum {max(fids)}")
    _require(f_star <= 1.0 + PST_TOL, f"fidelity_star {f_star} exceeds 1")
    if expect["pst"]:
        _near_one(f_star, "fidelity_star of an engineered chain")


def check_ca_compare(expect: dict, text: str) -> None:
    n = expect["n"]
    _, header, rows = _csv(text)
    _require(header == ["input", "continuous_output", "continuous_prob",
                        "mirror_output", "agree", "ca_hit_step"],
             f"unexpected columns {header}")
    _require(len(rows) == 1 << n, f"{len(rows)} rows, expected {1 << n}")
    inputs = {row[0] for row in rows}
    _require(len(inputs) == 1 << n and all(len(b) == n and set(b) <= {"0", "1"}
                                           for b in inputs),
             "inputs are not every configuration")
    for inp, cont, prob, mir, agree, _ in rows:
        _require(mir == mirror(inp), f"mirror_output {mir} of {inp} is wrong")
        _require(agree == "true" and cont == mir,
                 f"continuous output {cont} of {inp} misses the mirror {mir}")
        _near_one(float(prob), f"continuous_prob of {inp}")


_DEVIATION_LINE = re.compile(r"N=(\d+): max dense deviation (\S+)")


def check_verify_equivalence(expect: dict, text: str) -> None:
    lines = text.splitlines()
    sizes = list(range(expect["n_min"], expect["n_max"] + 1))
    _require(len(lines) == len(sizes), f"{len(lines)} report lines for {len(sizes)} sizes")
    for n, line in zip(sizes, lines):
        m = _DEVIATION_LINE.fullmatch(line)
        _require(m is not None and int(m.group(1)) == n, f"unexpected line {line!r}")
        dev = float(m.group(2))
        _require(0.0 <= dev < expect["tol"], f"N={n}: deviation {dev} >= {expect['tol']}")


def check_star_demo(expect: dict, text: str) -> None:
    result = json.loads(text)["result"]
    sites = expect["spikes"] * (expect["length"] - 1) + 1
    _require(result["total_sites"] == sites, f"total_sites {result['total_sites']} != {sites}")
    for key in ("max_pairwise_commutator", "propagator_product_deviation"):
        _require(0.0 <= result[key] < PST_TOL, f"{key} = {result[key]}")
    _near_one(result["all_ones_probability"], "all-ones probability")


def check_noise_sweep(expect: dict, text: str) -> None:
    _, header, rows = _csv(text)
    _require(header == ["hamiltonian", "p", "mean_fidelity", "std_error", "trials", "seed"],
             f"unexpected columns {header}")
    want = sorted((h, p) for h in ("cluster", "exchange") for p in expect["p"])
    got = sorted((row[0], float(row[1])) for row in rows)
    _require(len(got) == len(want)
             and all(g[0] == w[0] and abs(g[1] - w[1]) <= 1e-12 for g, w in zip(got, want)),
             f"rows cover {got}, expected {want}")
    for ham, p, mean, err, trials, seed in rows:
        mean = float(mean)
        _require(0.0 <= mean <= 1.0, f"{ham} p={p}: mean {mean} outside [0, 1]")
        _require(float(err) >= 0.0, f"{ham} p={p}: negative standard error")
        _require(int(trials) == expect["trials"] and int(seed) == expect["seed"],
                 f"{ham} p={p}: echoed trials/seed differ")
        if float(p) == 0.0:
            _near_one(mean, f"{ham} noiseless mean fidelity")


CHECKERS = {
    "amplify": check_amplify,
    "transfer": check_transfer,
    "scan": check_scan,
    "ca-compare": check_ca_compare,
    "verify-equivalence": check_verify_equivalence,
    "star-demo": check_star_demo,
    "noise-sweep": check_noise_sweep,
}


def check(command: str, expect: dict, text: str) -> None:
    """Validate one output; malformed text is a CheckError too."""
    try:
        CHECKERS[command](expect, text)
    except CheckError:
        raise
    except (KeyError, IndexError, TypeError, ValueError, StopIteration) as exc:
        raise CheckError(f"malformed {command} output: {type(exc).__name__}: {exc}") from None
