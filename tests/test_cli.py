import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from spinamp import automaton, chains, cli, evolution, noise
from spinamp.algebra import BitConfig, HamiltonianSpec, PauliTerm, SpinChainError
from spinamp.chains import CouplingProfile, StarLayout, spike_hamiltonians
from spinamp.cli import _json_doc, main
from spinamp.io import format_number, parse_time, render_csv, write_text_atomic
from spinamp.maps import mirror_map

from oracles import ArgvRefused, argparse_namespace, ca_report_rows, kron_dense, kron_unitary


def test_parse_time_tokens():
    assert parse_time("pi") == math.pi
    assert parse_time("pi/2") == math.pi / 2
    assert parse_time("3pi/4") == 3 * math.pi / 4
    assert parse_time("2*pi") == 2 * math.pi
    assert parse_time("1.25") == 1.25
    assert parse_time("-pi/2") == -math.pi / 2
    assert parse_time("+3pi/4") == 3 * math.pi / 4
    for bad in ("two pies", "pi/0", "--pi"):
        with pytest.raises(ValueError):
            parse_time(bad)


def test_format_number():
    assert format_number(0.1) == "0.1"
    assert format_number(1.0 / 3.0) == "0.333333333333333"
    assert format_number(True) == "true"
    assert format_number(7) == "7"


def test_atomic_write(tmp_path):
    path = tmp_path / "data.csv"
    write_text_atomic(str(path), "hello\n")
    assert path.read_text() == "hello\n"
    assert [p for p in os.listdir(tmp_path)] == ["data.csv"]


@pytest.mark.parametrize("umask", [0o022, 0o077])
def test_atomic_write_gives_the_mode_open_would(umask, tmp_path):
    old = os.umask(umask)
    try:
        write_text_atomic(str(tmp_path / "data.csv"), "hello\n")
        with open(tmp_path / "plain.csv", "w") as handle:
            handle.write("hello\n")
    finally:
        os.umask(old)
    modes = {p.name: p.stat().st_mode & 0o777 for p in tmp_path.iterdir()}
    assert modes == {"data.csv": 0o666 & ~umask, "plain.csv": 0o666 & ~umask}


def test_render_csv_uses_lf_and_comments():
    text = render_csv(("a", "b"), [(1, 0.5)], ["# note"])
    assert text == "# note\na,b\n1,0.5\n"


def _per_value_csv(columns, rows, comments) -> str:
    lines = [*comments, ",".join(columns)]
    lines += [",".join(format_number(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


_CELLS = [st.booleans(), st.integers(), st.text("01x,", max_size=4), st.floats(),
          st.floats().map(np.float64), st.sampled_from([-0.0, 1e-300, 0.1, 1 / 3, 2.0 ** 70]),
          st.booleans().map(np.bool_), st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64)]


@given(data=st.data())
def test_render_csv_matches_a_per_value_render(data):
    # render_csv formats a column at a time; the bytes are format_number's
    n_rows = data.draw(st.integers(0, 5))
    kinds = data.draw(st.lists(st.sampled_from(_CELLS + [st.one_of(*_CELLS)]),
                               min_size=1, max_size=4))
    rows = list(zip(*(data.draw(st.lists(kind, min_size=n_rows, max_size=n_rows))
                      for kind in kinds)))
    columns = [f"c{i}" for i in range(len(kinds))]
    assert render_csv(columns, rows, ["# x"]) == _per_value_csv(columns, rows, ["# x"])


def test_render_csv_matches_a_per_value_render_on_scan_rows():
    ts = np.arange(0.0, 20.05, 0.1)
    rows = [*zip(ts, np.sin(ts) ** 2), (np.float64(-0.0), np.float64(1e-300))]
    mixed = [(True, 3, "01", -0.0, 1e-300), (False, -7, "10", 0.1, np.float64(2) / 3)]
    for columns, table in ((("t", "fidelity"), rows), ("abcde", mixed)):
        assert render_csv(columns, table) == _per_value_csv(columns, table, ())


def test_verify_equivalence_ok(capsys):
    assert main(["verify-equivalence", "--n-max", "5", "--profiles", "3"]) == 0
    out = capsys.readouterr().out
    assert "N=5" in out


def test_verify_equivalence_negative_control(capsys):
    assert main(["verify-equivalence", "--n-max", "4", "--profiles", "1",
                 "--corrupt"]) == 1
    assert "mismatch" in capsys.readouterr().out


def test_verify_equivalence_above_cap(capsys):
    assert main(["verify-equivalence", "--n-max", "13"]) == 2
    err = capsys.readouterr().err
    assert "dense cap" in err
    assert "matrix-free" not in err     # the command has no matrix-free mode


def test_amplify_json(tmp_path):
    out = tmp_path / "amp.json"
    assert main(["amplify", "--n", "6", "--time", "pi/2",
                 "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert abs(doc["result"]["fidelity"] - 1.0) < 1e-8
    assert doc["config"]["t"] == math.pi / 2


def test_amplify_requires_n():
    assert main(["amplify"]) == 2


def test_transfer_command(tmp_path):
    out = tmp_path / "t.json"
    assert main(["transfer", "--n", "6", "--family", "cluster",
                 "--source", "010000", "--target", "000001",
                 "--time", "pi/2", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["result"]["fidelity"] > 1.0 - 1e-8


def test_transfer_rejects_wrong_length():
    assert main(["transfer", "--n", "6", "--source", "01", "--target", "10"]) == 2


def test_scan_csv(tmp_path):
    out = tmp_path / "scan.csv"
    assert main(["scan", "--n", "2", "--family", "exchange",
                 "--profile", "uniform", "--source", "10", "--target", "01",
                 "--t-max", "2", "--grid-step", "0.05", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# spinamp v")
    header = [l for l in lines if not l.startswith("#")][0]
    assert header == "t,fidelity"
    star = [l for l in lines if l.startswith("# t_star")][0]
    assert abs(float(star.split(":")[1]) - math.pi / 2) < 1e-5


def test_scan_of_unreachable_target_reports_t_zero(capsys):
    # source and target lie in different blocks: the fidelity is 0 on the
    # whole grid, so no time beats the first grid point
    assert main(["scan", "--n", "7", "--source", "1010000", "--target", "0001010",
                 "--t-max", "30"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "# t_star: 0" in lines
    assert "# fidelity_star: 0" in lines


def test_ca_compare_csv(tmp_path):
    out = tmp_path / "ca.csv"
    assert main(["ca-compare", "--n", "4", "--out", str(out)]) == 0
    rows = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert rows[0] == ("input,continuous_output,continuous_prob,"
                       "mirror_output,agree,ca_hit_step")
    assert len(rows) == 17
    assert all(",true," in r for r in rows[1:])


@pytest.mark.parametrize("n", range(2, 9))
def test_ca_compare_rows_match_per_config_oracle(n, capsys):
    # the CLI renders the report's index arrays as bit strings, site 1 first
    assert main(["ca-compare", "--n", str(n)]) == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if not l.startswith("#")]
    expected = ca_report_rows(n)
    assert len(lines) == 1 + len(expected)
    for line, (b, continuous, prob, mirror, agree, hit) in zip(lines[1:], expected):
        fields = line.split(",")
        assert fields[:2] + fields[3:] == [str(b), str(continuous), str(mirror),
                                           "true" if agree else "false", str(hit)]
        assert abs(float(fields[2]) - prob) <= 1e-12


def test_ca_compare_n3_golden(capsys):
    # the whole table, byte for byte; 010 and 111, which the even half-step
    # leaves fixed, show their mirrors at half-step 3
    assert main(["ca-compare", "--n", "3"]) == 0
    assert capsys.readouterr().out == (
        f"# spinamp v{cli.__version__}\n"
        '# config: {"n": 3, "profile": "engineered"}\n'
        "input,continuous_output,continuous_prob,mirror_output,agree,ca_hit_step\n"
        "000,000,1,000,true,0\n"
        "001,010,1,010,true,2\n"
        "010,001,1,001,true,3\n"
        "011,011,1,011,true,0\n"
        "100,111,1,111,true,2\n"
        "101,101,1,101,true,0\n"
        "110,110,1,110,true,0\n"
        "111,100,1,100,true,3\n")


def test_scan_n4_golden(capsys):
    # the whole scan, byte for byte: the grid, the refined t_star near pi/2,
    # and at t = 0 a fidelity of rounding size where U(0) = I gives exactly 0
    assert main(["scan", "--n", "4", "--family", "exchange", "--profile", "engineered",
                 "--source", "1000", "--target", "0001", "--t-max", "2",
                 "--grid-step", "0.25"]) == 0
    assert capsys.readouterr().out == (
        f"# spinamp v{cli.__version__}\n"
        '# config: {"family": "exchange", "grid_step": 0.25, "n": 4, "profile": "engineered", '
        '"source": "1000", "t_max": 2.0, "target": "0001"}\n'
        "# t_star: 1.57079633696298\n"
        "# fidelity_star: 1\n"
        "t,fidelity\n"
        "0,3.08148791101957e-33\n"
        "0.25,0.000229318912048272\n"
        "0.5,0.0121430277904843\n"
        "0.75,0.100305712337893\n"
        "1,0.355005329261722\n"
        "1.25,0.730390375879636\n"
        "1.5,0.985063732212299\n"
        "1.75,0.907681273856805\n"
        "2,0.565243754730313\n")


def test_ca_compare_runs_to_its_exhaustive_limit(capsys):
    # 2^16 rows on free-fermion determinants, every one on the mirror
    assert main(["ca-compare", "--n", "16"]) == 0
    lines = capsys.readouterr().out.splitlines()
    rows = [line.split(",") for line in lines[3:]]
    assert lines[2].startswith("input,") and len(rows) == 1 << 16
    assert len({row[0] for row in rows}) == 1 << 16
    assert all(row[1] == row[3] and row[4] == "true" and float(row[2]) > 1.0 - 1e-12
               for row in rows)


def test_ca_compare_fails_loudly_when_the_mirror_is_unlikely(capsys, monkeypatch):
    # uniform couplings: a row whose mirror has probability <= 1/2 names no
    # continuous output and does not agree, and the command exits 1
    monkeypatch.setattr(automaton, "CouplingProfile",
                        SimpleNamespace(engineered=CouplingProfile.uniform))
    assert main(["ca-compare", "--n", "5"]) == 1
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[3:]]
    assert len(rows) == 32
    unlikely = [row for row in rows if float(row[2]) <= 0.5]
    assert unlikely and all(row[1] == "" and row[4] == "false" for row in unlikely)
    assert all(row[1] == row[3] and row[4] == "true" for row in rows if float(row[2]) > 0.5)
    assert rows[0] == ["00000", "00000", "1", "00000", "true", "0"]


def test_noise_sweep_reruns_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["noise-sweep", "--n", "6", "--trials", "150", "--p", "0,0.1",
            "--seed", "5"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    # the trials evolve in the source's block: C(6, 2) wall states, 6 single excitations
    assert '# block_dims: {"cluster": 15, "exchange": 6}' in a.read_text().splitlines()


def test_noise_sweep_prints_zero_spread_for_identical_trials(capsys):
    # the cluster chain's 10^4 trials at p = 0 are bitwise equal; their
    # std_error once read 5.17013734178651e-28, from the rounding of the mean
    assert main(["noise-sweep", "--n", "12", "--profile", "uniform", "--p", "0,1"]) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()
            if not line.startswith("#")][1:]
    assert [row[:2] for row in rows] == [["cluster", "0"], ["exchange", "0"],
                                         ["cluster", "1"], ["exchange", "1"]]
    assert rows[0] == ["cluster", "0", "4.28501431294889e-10", "0", "10000", "0"]
    assert [float(row[3]) > 0.0 for row in rows] == [False, False, True, True]


def test_amplify_rejects_nan_time(capsys):
    # the Krylov loop once skipped a NaN time and scored the initial state
    assert main(["amplify", "--n", "14", "--time", "nan"]) == 2
    assert capsys.readouterr().out == ""


def test_transfer_rejects_infinite_time(capsys):
    # an infinite time once reached the JSON output as the token NaN
    assert main(["transfer", "--n", "4", "--source", "1000", "--target", "0001",
                 "--time", "inf"]) == 2
    assert capsys.readouterr().out == ""


_HUGE_TIME = [
    ["transfer", "--n", "3", "--family", "exchange", "--source", "100", "--target", "001",
     "--time", "1e308"],
    ["amplify", "--n", "4", "--time", "1e308"],
    ["star-demo", "--spikes", "2", "--length", "3", "--time", "1e308"],
    ["noise-sweep", "--n", "4", "--trials", "10", "--time", "1e308"],
    ["scan", "--n", "3", "--family", "exchange", "--source", "100", "--target", "001",
     "--t-max", "1.7e308", "--grid-step", "1e307"],
]


@pytest.mark.parametrize("argv", _HUGE_TIME, ids=[argv[0] for argv in _HUGE_TIME])
def test_time_whose_phases_overflow_is_a_usage_error(argv, capsys):
    # a finite time whose phases t * lambda overflow once became NaN, with
    # numpy warnings on stderr and exit 1
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: evolution time") and captured.err.count("\n") == 1


def test_large_time_with_finite_phases_still_runs(capsys):
    assert main(["amplify", "--n", "4", "--time", "1e300"]) == 0
    assert capsys.readouterr().err == ""
    # a scan far out in time, where adjacent floats lie further apart than
    # the refinement tolerance, stops refining
    assert main(["scan", "--n", "2", "--profile", "uniform", "--family", "exchange",
                 "--source", "10", "--target", "01", "--t-max", "1.7e308",
                 "--grid-step", "1e307"]) == 0


@pytest.mark.parametrize("flag, other", [("--alpha", "beta"), ("--beta", "alpha")])
def test_amplify_derives_the_missing_amplitude(flag, other, capsys):
    # either amplitude alone fixes the other as sqrt(1 - a^2)
    assert main(["amplify", "--n", "4", flag, "0.6"]) == 0
    config = json.loads(capsys.readouterr().out)["config"]
    assert config[flag[2:]] == 0.6
    assert config[other] == math.sqrt(1.0 - 0.6 * 0.6)


def test_fermion_commands_build_no_spec(monkeypatch, capsys):
    # amplify, transfer, scan and noise-sweep build h from the profile's
    # couplings and fields alone
    def refuse(self):
        raise AssertionError("a Pauli spec was built")

    monkeypatch.setattr(HamiltonianSpec, "__post_init__", refuse)
    for family in ("cluster", "exchange"):
        assert main(["transfer", "--n", "5", "--family", family,
                     "--source", "01000", "--target", "00001"]) == 0
        assert main(["scan", "--n", "5", "--family", family, "--source", "01000",
                     "--target", "00001", "--t-max", "5"]) == 0
    assert main(["amplify", "--n", "5"]) == 0
    assert main(["noise-sweep", "--n", "5", "--trials", "20"]) == 0
    with pytest.raises(AssertionError, match="spec"):
        main(["star-demo"])


def test_unknown_family_in_config_is_a_usage_error(tmp_path, capsys):
    # --config bypasses argparse's choices, so the propagator refuses it
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"family": "foo"}))
    for argv in (["transfer", "--n", "3", "--source", "100", "--target", "001"],
                 ["scan", "--n", "3", "--source", "100", "--target", "001"]):
        assert main(argv + ["--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: unknown Hamiltonian family 'foo'\n"


def test_json_output_never_carries_nan(capsys):
    # a NaN input is refused before evaluation, never written as the token NaN
    assert main(["amplify", "--n", "4", "--alpha", "nan"]) == 2
    assert capsys.readouterr().out == ""


def test_json_doc_refuses_nan():
    with pytest.raises(ValueError):
        _json_doc({"n": 4}, {"fidelity": math.nan})


_SCAN = ["scan", "--n", "4", "--source", "1000", "--target", "0001"]
_SWEEP = ["noise-sweep", "--n", "4", "--trials", "2"]


_BAD_INPUT = [
    (["amplify", "--n", "4", "--time", "pi/0"], "divides by zero"),
    (["amplify", "--n", "4", "--time", ""], "cannot parse time value"),
    (_SWEEP + ["--time", ""], "cannot parse time value"),
    (["amplify", "--n", "4", "--config", "empty_time.json"], "cannot parse time value"),
    (["amplify", "--n", "4", "--out", ""], "cannot write"),
    (["amplify", "--n", "4", "--config", "empty_out.json"], "cannot write"),
    (_SCAN + ["--t-max", "nan"], "finite"),
    (_SCAN + ["--grid-step", "inf"], "finite"),
    (_SCAN + ["--grid-step", "0"], "positive"),
    (["amplify", "--n", "4", "--alpha", "inf"], "finite"),
    (["amplify", "--n", "4", "--alpha", "2"], "alpha^2 + beta^2"),
    (["amplify", "--n", "1"], "at least 2 sites"),
    (["amplify", "--n", "0"], "at least 2 sites"),
    (["noise-sweep", "--n", "-3"], "at least 2 sites"),
    (["star-demo", "--length", "0"], "at least 2 sites"),
    (["amplify", "--n", "1025"], "1024-site chain cap"),
    (["noise-sweep", "--n", "1025"], "1024-site chain cap"),
    (["amplify", "--n", "1000000"], "1024-site chain cap"),
    (["transfer", "--n", "1025", "--source", "01" + "0" * 1023, "--target", "0" * 1024 + "1"],
     "1024-site chain cap"),
    (["scan", "--n", "1025", "--source", "1" + "0" * 1024, "--target", "0" * 1024 + "1"],
     "1024-site chain cap"),
    (_SWEEP + ["--p", "0.1,nan"], "flip probability"),
    (_SWEEP + ["--p", "2"], "flip probability"),
    (_SWEEP + ["--p", ","], "float"),
    (_SWEEP + ["--p", "0.1,2,x"], "got 2.0"),
    (_SWEEP + ["--trials", "0"], "trials"),
    (_SWEEP + ["--steps", "0"], "steps"),
    (_SWEEP + ["--time", "0"], "positive"),
    (_SWEEP + ["--time", "-1"], "positive"),
    (["star-demo", "--spikes", "0"], "spike"),
    (["transfer", "--n", "3", "--source", "102", "--target", "001"], "0 or 1"),
    (["verify-equivalence", "--profiles", "0"], "profile"),
    (["verify-equivalence", "--seed", "-1"], "invalid u64 value"),
    (["verify-equivalence", "--tol", "0"], "--tol must be positive"),
    (["verify-equivalence", "--tol", "-1"], "--tol must be positive"),
    (_SWEEP + ["--seed", "18446744073709551616"], "invalid u64 value"),
    (["amplify", "--n", "4", "--seed", "0"], "unrecognized arguments: --seed"),
    (["scan", "--n", "4", "--source", "0100", "--target", "0001", "--grid-step", "1e-300"],
     "below 2^63"),
    (["scan", "--n", "2", "--profile", "uniform", "--family", "exchange", "--source", "10",
      "--target", "01", "--t-max", "1.79e308", "--grid-step", "1e307"], "grid_step / 2 finite"),
    (["ca-compare", "--n", "17"], "exhaustive limit 16"),
    (["ca-compare", "--n", "1"], "at least 2 sites"),
    (["ca-compare", "--n", "-1"], "at least 2 sites"),
    (["ca-compare", "--config", "negative_n.json"], "at least 2 sites"),
    (["amplify", "--n", "4", "--config", "missing.json"], "No such file"),
    (["amplify", "--n", "4", "--config", "malformed.json"], "Expecting property name"),
]


@pytest.mark.parametrize("argv, reason", _BAD_INPUT,
                         ids=[" ".join(argv) for argv, _ in _BAD_INPUT])
def test_bad_input_is_a_usage_error(argv, reason, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "malformed.json").write_text("{bad")
    (tmp_path / "empty_time.json").write_text('{"time": ""}')
    (tmp_path / "empty_out.json").write_text('{"out": ""}')
    (tmp_path / "negative_n.json").write_text('{"n": -1}')
    # a refused sweep builds no chain and draws nothing
    props = _count_calls(monkeypatch, noise, "Propagator")
    draws = _count_calls(monkeypatch, noise, "trial_draws")
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert reason in captured.err
    assert props == [] and draws == []


@pytest.mark.parametrize("argv, call", [
    (["amplify", "--n", "4", "--alpha", "2"],
     lambda prop: evolution.amplification_check(prop, 2.0, 0.0, math.pi / 2)),
    (["amplify", "--n", "4", "--alpha", "0.6", "--beta", "0.81"],
     lambda prop: evolution.amplification_check(prop, 0.6, 0.81, math.pi / 2)),
    (["scan", "--n", "4", "--source", "1000", "--target", "0001", "--grid-step", "1e-300"],
     lambda prop: evolution.max_fidelity_scan(prop, None, None, 200.0, 1e-300)),
    (["scan", "--n", "2", "--source", "10", "--target", "01", "--t-max", "1.79e308",
      "--grid-step", "1e307"],
     lambda prop: evolution.max_fidelity_scan(prop, None, None, 1.79e308, 1e307)),
], ids=["alpha", "alpha-beta", "grid-points", "grid-stop"])
def test_amplify_and_scan_refusals_are_the_librarys(argv, call, capsys):
    # amplify and scan keep no check of their own: the CLI's one error line
    # is the library's refusal of the same values, and exits 2
    assert main(argv) == 2
    captured = capsys.readouterr()
    with pytest.raises(ValueError) as refused:
        call(evolution.Propagator(CouplingProfile.engineered(4), "cluster"))
    assert (captured.out, captured.err) == ("", f"error: {refused.value}\n")


def test_chain_length_stops_at_max_chain(capsys):
    # the fermion route reads sites off a Python int, so chains past an
    # int64 index run, with the top site (bit 63 at N = 64) set; MAX_CHAIN
    # sites still run, and one more is refused with one error line
    assert cli.MAX_CHAIN == 1024
    for n in (64, 1024):
        assert main(["amplify", "--n", str(n)]) == 0
        assert json.loads(capsys.readouterr().out)["result"]["fidelity"] > 1.0 - 1e-8
    for family, mirror in (("cluster", mirror_map), ("exchange", BitConfig.reversed_sites)):
        for n in (64, 65):
            source = BitConfig.from_string("01" + "0" * (n - 3) + "1")
            assert main(["transfer", "--n", str(n), "--family", family,
                         "--source", str(source), "--target", str(mirror(source))]) == 0
            assert json.loads(capsys.readouterr().out)["result"]["fidelity"] > 1.0 - 1e-8
    assert main(["amplify", "--n", "1025"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_long_chain_is_refused_before_it_is_built(monkeypatch, capsys):
    # a chain beyond MAX_CHAIN sites, or beyond the exhaustive limit of
    # ca-compare, is refused before any profile or term exists
    built = []
    for cls in (CouplingProfile, PauliTerm):
        post_init = cls.__post_init__
        monkeypatch.setattr(cls, "__post_init__",
                            lambda self, post_init=post_init: built.append(self) or post_init(self))
    for argv, message in (
        (["amplify", "--n", "1025"], "1024-site chain cap"),
        (["noise-sweep", "--n", "1025"], "1024-site chain cap"),
        (["transfer", "--n", "1025", "--source", "1" + "0" * 1024, "--target", "0" * 1025],
         "1024-site chain cap"),
        (["ca-compare", "--n", "100"], "exhaustive limit 16"),
    ):
        assert main(argv) == 2
        assert message in capsys.readouterr().err
    assert built == []


@pytest.mark.parametrize("message, line", [("Unable to allocate 7.28 TiB for an array", None),
                                           ("", "out of memory")], ids=["numpy", "bare"])
def test_allocation_failure_is_a_usage_error(message, line, monkeypatch, capsys):
    # a grid too large for memory exits 2 with one line, not a traceback
    def refuse(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(cli, "max_fidelity_scan", refuse)
    assert main(_SCAN + ["--t-max", "1e9", "--grid-step", "1e-3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {line or message}\n"


def _count_calls(monkeypatch, module, name):
    """Wrap ``module.name`` so each call is recorded; returns the record."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_noise_sweep_runs_above_the_dense_cap(capsys):
    # both chains evolve as free fermions, in the C(N, 2) and C(N, 1) sectors
    assert main(["noise-sweep", "--n", "13", "--trials", "200"]) == 0
    assert '# block_dims: {"cluster": 78, "exchange": 13}\n' in capsys.readouterr().out
    assert main(["noise-sweep", "--n", "100", "--trials", "200"]) == 0
    assert '# block_dims: {"cluster": 4950, "exchange": 100}\n' in capsys.readouterr().out


def test_star_demo(tmp_path):
    out = tmp_path / "star.json"
    assert main(["star-demo", "--spikes", "3", "--length", "3",
                 "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["result"]["max_pairwise_commutator"] < 1e-12
    assert doc["result"]["all_ones_probability"] > 1.0 - 1e-8


@pytest.mark.parametrize("spikes, length", [(3, 3), (2, 4)])
def test_star_demo_matches_kronecker_oracle(spikes, length, capsys):
    assert main(["star-demo", "--spikes", str(spikes), "--length", str(length)]) == 0
    result = json.loads(capsys.readouterr().out)["result"]
    layout = StarLayout(spikes, CouplingProfile.engineered(length))
    specs = spike_hamiltonians(layout)
    dense = [kron_dense(s) for s in specs]
    comm = max(float(np.max(np.abs(a @ b - b @ a)))
               for i, a in enumerate(dense) for b in dense[i + 1:])
    u_star = kron_unitary(sum(specs[1:], specs[0]), math.pi / 2)
    product = np.eye(len(u_star), dtype=complex)
    for spec in specs:
        product = kron_unitary(spec, math.pi / 2) @ product
    assert result["total_sites"] == layout.total_sites
    assert abs(result["max_pairwise_commutator"] - comm) < 1e-12
    assert abs(result["propagator_product_deviation"]
               - float(np.max(np.abs(u_star - product)))) < 1e-12
    # from site 1 alone up to all ones
    assert abs(result["all_ones_probability"] - abs(u_star[-1, 1]) ** 2) < 1e-12


def test_product_deviation_refuses_a_spike_across_star_blocks():
    # a diagonal "star" has one block per basis state; X_1 links two of them
    z, x = (HamiltonianSpec(2, (PauliTerm(1.0, {1: p}),)) for p in "ZX")
    with pytest.raises(SpinChainError, match="spans two star blocks"):
        cli._star_checks(z, [x], 1.0)


def test_all_ones_probability_is_zero_across_star_blocks():
    # on a diagonal spec 10 and 11 lie in different blocks
    z = HamiltonianSpec(2, (PauliTerm(1.0, {1: "Z"}),))
    deviation, probability = cli._star_checks(z, [z], 1.0)
    assert probability == 0.0
    assert deviation < 1e-15


def _traced_peak(argv) -> int:
    """Peak traced allocation of one successful run of ``argv``."""
    tracemalloc.start()
    try:
        assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


_NO_FULL_MATRIX = [
    (["star-demo", "--spikes", "2", "--length", "5"], 9),
    (["verify-equivalence", "--n-min", "10", "--n-max", "10"], 10),
    (["ca-compare", "--n", "10"], 10),
]


@pytest.mark.parametrize("argv, n_sites", _NO_FULL_MATRIX,
                         ids=[" ".join(argv) for argv, _ in _NO_FULL_MATRIX])
def test_peak_memory_stays_below_one_full_matrix(argv, n_sites, capsys):
    # every array is per block or per entry: the traced peak stays below
    # one 2^N x 2^N float64 matrix
    peak = _traced_peak(argv)
    capsys.readouterr()
    assert peak < 8 << (2 * n_sites)


_NO_FULL_STATE = [
    ["amplify", "--n", "18"],
    ["transfer", "--n", "18", "--source", "01" + "0" * 16, "--target", "0" * 17 + "1"],
]


@pytest.mark.parametrize("argv", _NO_FULL_STATE, ids=[" ".join(argv) for argv in _NO_FULL_STATE])
def test_peak_memory_stays_below_one_state_vector(argv, capsys):
    # amplify reads four amplitudes and transfer one, each a determinant
    # from the 18 x 18 single-particle propagator: the traced peak stays
    # below one 2^N complex vector
    peak = _traced_peak(argv)
    assert json.loads(capsys.readouterr().out)["result"]["fidelity"] > 1.0 - 1e-8
    assert peak < 16 << 18


def test_unwritable_out_path_is_a_usage_error(tmp_path, capsys):
    (tmp_path / "taken").mkdir()
    for out in (tmp_path / "no" / "x.json", tmp_path / "taken"):
        assert main(["amplify", "--n", "4", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot write {out}: ")
        assert captured.err.count("\n") == 1
    # no temp file left next to either target
    assert os.listdir(tmp_path) == ["taken"]
    assert os.listdir(tmp_path / "taken") == []


def test_out_neither_follows_nor_overwrites_a_planted_temp_name(monkeypatch, tmp_path, capsys):
    # with the random name known, a symlink planted there makes the write
    # fail rather than write through it
    monkeypatch.setattr(os, "urandom", lambda n: bytes(n))
    target = tmp_path / "target.txt"
    target.write_text("keep\n")
    planted = tmp_path / f".spinamp-{bytes(6).hex()}"
    planted.symlink_to(target)
    out = tmp_path / "amp.json"
    assert main(["amplify", "--n", "4", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot write {out}: ")
    assert target.read_text() == "keep\n" and os.readlink(planted) == str(target)
    assert sorted(os.listdir(tmp_path)) == [planted.name, "target.txt"]


def test_star_demo_builds_spikes_once(monkeypatch, capsys):
    calls = [_count_calls(monkeypatch, module, "spike_hamiltonians")
             for module in (cli, chains)]
    for run, spikes in enumerate((2, 3), start=1):
        assert main(["star-demo", "--spikes", str(spikes), "--length", "3"]) == 0
        assert sum(len(c) for c in calls) == run
    capsys.readouterr()


def test_star_demo_respects_cap(monkeypatch, capsys):
    # refused before a single spike Hamiltonian is built
    calls = [_count_calls(monkeypatch, module, "spike_hamiltonians")
             for module in (cli, chains)]
    for spikes, length in ((5, 4), (20000, 3)):
        assert main(["star-demo", "--spikes", str(spikes), "--length", str(length)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "dense cap" in captured.err
    assert calls == [[], []]


_FLAGS = {
    "verify-equivalence": ["--n-min", "--n-max", "--profiles", "--tol", "--corrupt", "--seed"],
    "amplify": ["--n", "--profile", "--time", "--alpha", "--beta"],
    "transfer": ["--n", "--profile", "--family", "--source", "--target", "--time"],
    "scan": ["--n", "--profile", "--family", "--source", "--target", "--t-max", "--grid-step"],
    "ca-compare": ["--n"],
    "noise-sweep": ["--n", "--profile", "--p", "--steps", "--trials", "--time", "--seed"],
    "star-demo": ["--spikes", "--length", "--profile", "--time"],
}


def test_help_lists_every_subcommand(capsys):
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    assert [name for name, *_ in cli.COMMANDS] == list(_FLAGS)
    for name, help_text, *_ in cli.COMMANDS:
        assert re.search(rf"^ +{name} +{re.escape(help_text)}$", out, re.M)


@pytest.mark.parametrize("command", _FLAGS)
def test_subcommand_help_lists_its_own_flags(command, capsys):
    assert main([command, "--help"]) == 0
    flags = set(re.findall(r"--[a-z-]+", capsys.readouterr().out))
    assert flags == {*_FLAGS[command], "--config", "--out", "--help"}


@pytest.mark.parametrize("argv", [["bogus"], [], ["--n", "4", "amplify"]])
def test_missing_or_unknown_subcommand_is_a_usage_error(argv, capsys):
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("spinamp: error: ")


@pytest.mark.parametrize("argv, message", [
    (["amplify", "--n"], "argument --n: expected one argument"),
    (["amplify", "--n", "4", "--time", "--n"], "argument --time: expected one argument"),
    (["amplify", "--n", "4", "--time", "--alpha=1"], "argument --time: expected one argument"),
    (["amplify", "--n", "four"], "argument --n: invalid int value: 'four'"),
    (["amplify", "--n", "4", "--alpha", "inf"], "argument --alpha: invalid finite value: 'inf'"),
    (["amplify", "--n", "4", "--pro", "uniform"], "unrecognized arguments: --pro"),
    (["amplify", "--n", "4", "stray"], "unrecognized arguments: stray"),
    (["verify-equivalence", "--corrupt=yes"], "unrecognized arguments: --corrupt=yes"),
    (["transfer", "--family", "foo"], "argument --family: invalid choice: 'foo'"),
])
def test_parse_error_is_one_line(argv, message, capsys):
    # no usage block and no abbreviations: the error line alone, exit 2
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"spinamp: error: {message}")
    assert captured.err.count("\n") == 1


def test_version_is_printed(capsys):
    assert main(["--version"]) == 0
    assert capsys.readouterr().out == f"{cli.__version__}\n"


def test_negative_pi_time_needs_no_equals_sign(tmp_path):
    outputs = []
    for time in (["--time", "-pi/2"], ["--time=-pi/2"]):
        out = tmp_path / f"{len(outputs)}.json"
        assert main(["amplify", "--n", "4", *time, "--out", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0])["config"]["t"] == -math.pi / 2


def test_a_run_imports_no_argparse(tmp_path):
    # the parser reads argv from COMMANDS alone: neither argparse nor the
    # gettext and locale modules it pulls in are loaded by a run
    code = ("import sys, spinamp.cli\n"
            "assert spinamp.cli.main(['amplify', '--n', '4', '--out', sys.argv[1]]) == 0\n"
            "print(sorted({'argparse', 'gettext', 'locale'} & set(sys.modules)))\n")
    src = os.path.dirname(os.path.dirname(cli.__file__))
    done = subprocess.run([sys.executable, "-c", code, str(tmp_path / "amp.json")],
                          env={**os.environ, "PYTHONPATH": src}, capture_output=True,
                          text=True, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")


def _argparse_reads_as_flag(token: str) -> bool:
    """Whether argparse takes ``token``, after a flag that wants a value,
    for a flag instead: it starts with '-' and is neither a lone '-', a
    negative number nor a text with a space."""
    return (len(token) > 1 and token[0] == "-" and " " not in token
            and not re.match(r"^-\d+$|^-\d*\.\d+$", token))


_TEXTS = st.one_of(
    st.integers(-3, 40).map(str),
    st.floats().map(repr),
    st.sampled_from(["", "x", "=", "a=b", "pi/2", "-pi/2", "cluster", "exchange", "uniform",
                     "engineered", "0,0.1", "1e999", "18446744073709551616", "0110", "-1 2",
                     "4.0", "--bogus", "-n"]),
)
_JSON = st.one_of(st.none(), st.booleans(), st.integers(-3, 40), st.floats(), _TEXTS)


def _good(keywords: dict):
    """Values the flag takes, as JSON values: text for a flag without a type."""
    kind = keywords.get("type")
    if "choices" in keywords:
        return st.sampled_from(keywords["choices"])
    if "action" in keywords:
        return st.booleans()
    if kind in (int, cli.u64):
        return st.integers(0, 2 ** 64 - 1 if kind is cli.u64 else 40)
    if kind is cli.finite:
        return st.floats(allow_nan=False, allow_infinity=False)
    return st.sampled_from(["pi/2", "-pi/2", "0.5", "0110", "uniform", "0,0.1", "out.csv"])


@st.composite
def _command_lines(draw):
    """(argv, --config document or None) for one command of ``COMMANDS``:
    its flags in any order, repeated, in both value forms, with bad values,
    unknown flags, abbreviations and stray words among them."""
    name, _, _, arguments = draw(st.sampled_from(cli.COMMANDS))
    table = dict(arguments + cli._COMMON)
    flags = [flag for flag in table if flag != "--config"]
    argv = [name]
    for _ in range(draw(st.integers(0, 5))):
        flag = draw(st.sampled_from(flags))
        form = draw(st.sampled_from(["separate"] * 5 + ["joined"] * 5 + ["stray"]))
        text = draw(st.one_of(*[_good(table[flag]).map(str)] * 3, _TEXTS))
        if form == "stray":
            argv.append(draw(st.sampled_from(["--bogus", "--bogus=1", "-n", "x", flag[:-1] + "=1"]
                                             + [flag[:-1]] * (len(flag) > 4))))
        elif form == "joined":
            argv.append(f"{flag}={text}")
        elif "action" in table[flag]:
            argv.append(flag)
        else:
            if draw(st.integers(0, 5)) == 0:                # another flag where a value belongs
                text = draw(st.sampled_from(flags)) + draw(st.sampled_from(["", "=1"]))
            # the one intended difference: argparse refuses a value it reads
            # as a flag, the CLI refuses only the command's own flags
            assume(not _argparse_reads_as_flag(text) or text.partition("=")[0] in flags)
            argv += [flag, text]
    if draw(st.integers(0, 4)) == 0:
        argv.append(draw(st.sampled_from(flags)))          # a last flag, maybe lacking its value
    if draw(st.booleans()):
        return argv, None
    doc, used = {}, [t.partition("=")[0][2:] for t in argv if t.partition("=")[0] in flags]
    for _ in range(draw(st.integers(0, 3))):
        key = draw(st.sampled_from(used * 3 + [flag[2:] for flag in flags]
                                   + ["n_max", "bogus", "func"]))
        keywords = table.get("--" + key.replace("_", "-"), {})
        doc[key] = draw(st.one_of(_good(keywords), _good(keywords), _JSON))
    return argv, doc


def _parsed(parse, argv):
    """The namespace ``parse`` gives argv, as a dict without argparse's
    ``command``, or "refused"."""
    try:
        args = vars(parse(argv))
    except (ArgvRefused, cli.UsageError):
        return "refused"
    args.pop("command", None)
    return args


@pytest.fixture(scope="module")
def config_path(tmp_path_factory):
    return str(tmp_path_factory.mktemp("config") / "config.json")


@settings(max_examples=400, deadline=None)
@given(line=_command_lines())
def test_parser_agrees_with_argparse_oracle(line, config_path):
    argv, doc = line
    if doc is not None:
        with open(config_path, "w") as handle:
            json.dump(doc, handle)
        argv = argv[:1] + ["--config", config_path] + argv[1:]
    assert _parsed(cli.parse_argv, argv) == _parsed(argparse_namespace, argv)


def test_config_file_supplies_defaults(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 6, "time": "pi/2"}))
    out = tmp_path / "amp.json"
    assert main(["amplify", "--config", str(cfg), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["config"]["n"] == 6

    bad = tmp_path / "bad.json"
    for key in ("unknown-key", "func"):
        bad.write_text(json.dumps({key: 1}))
        assert main(["amplify", "--config", str(bad)]) == 2


def test_command_line_beats_config_file(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 6}))
    assert main(["amplify", "--config", str(cfg), "--n", "5"]) == 0
    assert json.loads(capsys.readouterr().out)["config"]["n"] == 5


def test_config_value_under_a_command_line_flag_is_not_read(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    # values that would fail the flags' types, but argv gives both flags
    cfg.write_text(json.dumps({"n": "six", "alpha": "inf"}))
    assert main(["amplify", "--config", str(cfg), "--n", "5", "--alpha=1"]) == 0
    config = json.loads(capsys.readouterr().out)["config"]
    assert (config["n"], config["alpha"]) == (5, 1.0)


@pytest.mark.parametrize("doc", ['{"n": 4, "alpha": NaN}', '{"n": [4]}',
                                 '{"n": 4, "time": {"t": 1}}'])
def test_config_values_pass_the_flag_type_check(doc, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(doc)
    assert main(["amplify", "--config", str(cfg)]) == 2
    assert capsys.readouterr().out == ""


_BAD_CONFIG = [
    (["noise-sweep", "--n", "4"], {"steps": None}),
    (["noise-sweep", "--n", "4"], {"trials": None}),
    (["noise-sweep", "--n", "4"], {"seed": None}),
    (["noise-sweep", "--n", "4"], {"p": None}),
    (["noise-sweep"], {"n": None}),
    (["star-demo"], {"spikes": None}),
    (["star-demo"], {"length": None}),
    (["verify-equivalence"], {"n_max": None}),
    (["verify-equivalence"], {"profiles": None}),
    (["verify-equivalence"], {"tol": None}),
    (["scan", "--n", "4", "--source", "1000", "--target", "0001"], {"t_max": None}),
    # an on/off flag takes a JSON boolean, and no other flag does
    (["verify-equivalence", "--n-max", "3"], {"corrupt": "false"}),
    (["verify-equivalence", "--n-max", "3"], {"corrupt": 0}),
    (["verify-equivalence", "--n-max", "3"], {"corrupt": None}),
    (["star-demo"], {"spikes": True}),
    (["amplify"], {"n": False}),
    (["noise-sweep", "--n", "4"], {"time": True}),
]


@pytest.mark.parametrize("argv, doc", _BAD_CONFIG,
                         ids=[f"{argv[0]} {json.dumps(doc)}" for argv, doc in _BAD_CONFIG])
def test_config_null_and_boolean_values_are_checked(argv, doc, tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    props = _count_calls(monkeypatch, noise, "Propagator")
    draws = _count_calls(monkeypatch, noise, "trial_draws")
    assert main(argv + ["--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: config key") and captured.err.count("\n") == 1
    assert props == [] and draws == []


def test_config_null_means_omitted_and_booleans_switch(tmp_path, capsys):
    # null is kept for a flag whose own default is None; a JSON boolean
    # turns an on/off flag on or leaves it off
    cfg = tmp_path / "cfg.json"
    for doc, code in (({"n": 4, "time": None, "out": None}, 0), ({"n": None}, 2)):
        cfg.write_text(json.dumps(doc))
        assert main(["amplify", "--config", str(cfg)]) == code
    assert json.loads(capsys.readouterr().out)["config"]["t"] == math.pi / 2
    for corrupt, code in ((False, 0), (True, 1)):
        cfg.write_text(json.dumps({"n_max": 3, "corrupt": corrupt}))
        assert main(["verify-equivalence", "--config", str(cfg)]) == code
