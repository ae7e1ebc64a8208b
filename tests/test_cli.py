"""Command-line interface: subcommands, CSV artifacts, exit codes."""

import argparse
import hashlib
import json
import math
import re
import time

import pytest

import prcodes.weights
from prcodes import cli
from prcodes.cli import run
from prcodes.construct import build_code
from prcodes.gf2 import BitPoly, enumerate_primitives
from prcodes.weights import (
    avg_dual_approx,
    avg_primal_approx,
    ensemble_average_exact,
    macwilliams,
    weight_enumerator_exact,
)


def read_csv(path):
    with open(path) as f:
        lines = f.read().splitlines()
    assert lines[0].startswith("# manifest: ")
    manifest = json.loads(lines[0][len("# manifest: "):])
    header = lines[1]
    rows = [ln.split(",") for ln in lines[2:]]
    return manifest, header, rows


# a minimal valid argv per subcommand, and every dest it parses to with its default
SURFACE = {
    "primitives": (["--k", "4"], {"k": 4}),
    "weights": (["--poly", "0x13", "--n", "20"],
                {"poly": "0x13", "n": 20, "dual": False, "outdir": None}),
    "avg-weights": (["--k", "6", "--n", "14", "--mode", "exact"],
                    {"k": 6, "n": 14, "mode": "exact", "allow_slow": False, "outdir": None}),
    "kld": (["--k", "6", "--n", "14", "--which", "dual"],
            {"k": 6, "n": 14, "which": "dual", "allow_slow": False, "outdir": None}),
    "dmin": (["--k", "6", "--n", "14"],
             {"k": 6, "n": 14, "scan": False, "allow_slow": False, "outdir": None}),
    "union-bound": (["--poly", "0x13", "--n", "20", "--ebno-list", "3"],
                    {"poly": "0x13", "n": 20, "ebno_list": "3", "source": "approx9",
                     "no_prefactor": False, "outdir": None}),
    "simulate": (["--poly", "0x13", "--n", "20", "--ebno-list", "3"],
                 {"poly": "0x13", "n": 20, "ebno_list": "3", "seed": 0,
                  "max_trials": 10_000_000, "target_errors": 100, "allow_slow": False,
                  "outdir": None}),
    "reproduce": (["table1"], {"target": "table1", "seed": 0, "allow_slow": False,
                               "outdir": None}),
}
CHOICES = {
    ("avg-weights", "mode"): ["exact", "approx8", "approx9", "literal9"],
    ("kld", "which"): ["dual", "primal"],
    ("union-bound", "source"): ["approx9", "exact"],
    ("reproduce", "target"): ["table1", "table2", "table3", "fig1", "fig2", "fig3",
                              "fig4-pr", "fig5-pr"],
}


def test_cli_surface():
    parser = cli._build_parser()
    subparsers = next(a for a in parser._actions
                      if isinstance(a, argparse._SubParsersAction)).choices
    assert list(subparsers) == list(SURFACE)
    for name, (argv, expect) in SURFACE.items():
        ns = vars(parser.parse_args([name] + argv))
        assert callable(ns.pop("func"))
        assert ns == {"subcommand": name, **expect}, name
        with pytest.raises(SystemExit) as exc:
            parser.parse_args([name, "--help"])
        assert exc.value.code == 0
        for action in subparsers[name]._actions:
            choices = CHOICES.get((name, action.dest))
            assert choices is None or list(action.choices) == choices, (name, action.dest)
            # _Parser reads these as values, so no option may be spelled this way
            assert not any(re.match(r"-(\.?\d|inf|nan)", s, re.IGNORECASE)
                           for s in action.option_strings)
    assert set(CHOICES) <= {(name, a.dest) for name, p in subparsers.items()
                            for a in p._actions if a.choices}
    with pytest.raises(SystemExit) as exc:
        parser.parse_args(["--help"])
    assert exc.value.code == 0


def test_no_arguments_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        run([])
    assert exc.value.code == 2


def test_unknown_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        run(["frobnicate"])
    assert exc.value.code == 2


def test_unknown_reproduce_target_is_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run(["reproduce", "table9", "--outdir", str(tmp_path)])
    assert exc.value.code == 2


def test_primitives_lists_hex(capsys):
    assert run(["primitives", "--k", "4"]) == 0
    assert capsys.readouterr().out.splitlines() == ["0x13", "0x19"]


def test_primitives_k12_stdout_digest(capsys):
    assert run(["primitives", "--k", "12"]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == "6c08398321d9347ec1ba9ee39fcd46bb7baa7147aedf78a50d05e2f48f97af12"


def test_primitives_domain_error(capsys):
    assert run(["primitives", "--k", "30"]) == 1
    assert "error:" in capsys.readouterr().err


def test_weights_golden_rows(tmp_path):
    assert run(["weights", "--poly", "0x13", "--n", "20",
                "--outdir", str(tmp_path)]) == 0
    manifest, header, rows = read_csv(tmp_path / "weights_primal_0x13_n20.csv")
    assert header == "j,value"
    assert manifest["command"] == "weights"
    assert manifest["version"]
    values = {int(j): int(v) for j, v in rows}
    assert {j: v for j, v in values.items() if v} == {0: 1, 9: 2, 10: 4,
                                                      11: 6, 12: 3}


def test_weights_accepts_symbolic_poly(tmp_path):
    assert run(["weights", "--poly", "1+x+x^4", "--n", "20",
                "--outdir", str(tmp_path)]) == 0
    assert (tmp_path / "weights_primal_0x13_n20.csv").exists()


def test_weights_dual_matches_transform(tmp_path):
    assert run(["weights", "--poly", "0x13", "--n", "15", "--dual",
                "--outdir", str(tmp_path)]) == 0
    _, _, rows = read_csv(tmp_path / "weights_dual_0x13_n15.csv")
    expect = macwilliams(
        weight_enumerator_exact(build_code(BitPoly.parse("0x13"), 15))
    ).counts
    assert tuple(int(v) for _, v in rows) == expect


def test_weights_rejects_non_maximal_poly(tmp_path, capsys):
    assert run(["weights", "--poly", "0x1f", "--n", "20",
                "--outdir", str(tmp_path)]) == 1
    assert "maximum-length" in capsys.readouterr().err


def test_avg_weights_exact(tmp_path):
    assert run(["avg-weights", "--k", "2", "--n", "3", "--mode", "exact",
                "--outdir", str(tmp_path)]) == 0
    _, _, rows = read_csv(tmp_path / "avg_weights_exact_k2_n3.csv")
    assert [float(v) for _, v in rows] == [1.0, 0.0, 3.0, 0.0]


def test_avg_weights_modes_write_files(tmp_path):
    expect = {
        "exact": ensemble_average_exact(6, 14)[0],
        "approx8": avg_dual_approx(6, 14),
        "approx9": avg_primal_approx(6, 14, mode="primary"),
        "literal9": avg_primal_approx(6, 14, mode="literal"),
    }
    for mode, dist in expect.items():
        assert run(["avg-weights", "--k", "6", "--n", "14", "--mode", mode,
                    "--outdir", str(tmp_path)]) == 0
        _, _, rows = read_csv(tmp_path / f"avg_weights_{mode}_k6_n14.csv")
        assert [v for _, v in rows] == [f"{x:.12g}" for x in dist.values], mode


def test_slow_gate_requires_flag(tmp_path, capsys):
    # the flag changes nothing for an ensemble; the library's k <= 18 limit refuses
    argv = ["avg-weights", "--k", "13", "--n", "27", "--mode", "exact"]
    assert run(argv + ["--outdir", str(tmp_path / "plain")]) == 0
    assert run(argv + ["--allow-slow", "--outdir", str(tmp_path / "flagged")]) == 0
    name = "avg_weights_exact_k13_n27.csv"
    assert (tmp_path / "plain" / name).read_bytes() == (tmp_path / "flagged" / name).read_bytes()
    assert run(["avg-weights", "--k", "19", "--n", "27", "--mode", "exact",
                "--outdir", str(tmp_path)]) == 1
    assert "2 <= k <= 18, got 19" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["dmin"], ["dmin", "--scan"], ["kld", "--which", "dual"]])
def test_ensemble_commands_run_without_flag(tmp_path, command):
    assert run(command + ["--k", "13", "--n", "26", "--outdir", str(tmp_path)]) == 0


def test_unfactorable_degree_is_refused_at_once(tmp_path, capsys):
    start = time.perf_counter()
    assert run(["union-bound", "--poly", "1+x+x^256", "--n", "300", "--ebno-list", "3",
                "--outdir", str(tmp_path)]) == 1
    assert time.perf_counter() - start < 1.0
    assert "2 <= k <= 64, got 256" in capsys.readouterr().err


def test_kld_prints_and_writes(tmp_path, capsys):
    assert run(["kld", "--k", "5", "--n", "12", "--which", "dual",
                "--outdir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "kld dual k=5 n=12" in out
    _, header, rows = read_csv(tmp_path / "kld_dual_k5_n12.csv")
    assert header == "k,n,which,kld"
    assert rows[0][:3] == ["5", "12", "dual"]
    assert float(rows[0][3]) > 0


def test_dmin_scan(tmp_path, capsys):
    assert run(["dmin", "--k", "8", "--n", "20", "--scan",
                "--outdir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "witness" in out
    _, header, rows = read_csv(tmp_path / "dmin_k8_n20.csv")
    assert header == "n,dmin_bound,witness_d"
    n, bound, wd = rows[0]
    assert (n, bound) == ("20", "4")
    assert int(wd) >= 4


def test_dmin_without_scan_leaves_witness_blank(tmp_path):
    assert run(["dmin", "--k", "8", "--n", "20",
                "--outdir", str(tmp_path)]) == 0
    _, _, rows = read_csv(tmp_path / "dmin_k8_n20.csv")
    assert rows[0][2] == ""


def test_dmin_refuses_short_codes(tmp_path, capsys):
    # at k = 4, n = 5 every code of the family has d = 1, yet the bound read 2
    assert run(["dmin", "--k", "4", "--n", "5", "--outdir", str(tmp_path)]) == 1
    assert "2k = 8" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_dmin_refuses_n_equal_k_before_ensemble_work(tmp_path, monkeypatch):
    def unreachable(*args):
        raise AssertionError("ensemble work ran")

    monkeypatch.setattr(prcodes.weights, "_pair_members", unreachable)
    assert run(["dmin", "--k", "5", "--n", "5", "--outdir", str(tmp_path)]) == 1


def test_approx9_union_bound_refuses_short_codes(tmp_path, capsys):
    # the sum starts at the profile's distance bound, 2 at k = 4, n = 5, where
    # every degree-4 code has d = 1, so it would leave out the lightest codewords
    assert run(["union-bound", "--poly", "0x13", "--n", "5", "--ebno-list", "4",
                "--outdir", str(tmp_path)]) == 1
    assert "2k = 8" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_union_bound_curve(tmp_path):
    assert run(["union-bound", "--poly", "0x13", "--n", "20",
                "--ebno-list", "4,5,6", "--outdir", str(tmp_path)]) == 0
    _, header, rows = read_csv(tmp_path / "union_bound_0x13_n20.csv")
    assert header == "ebno_db,epsilon_ub"
    eps = [float(v) for _, v in rows]
    assert eps[0] > eps[1] > eps[2] > 0


def test_union_bound_variants(tmp_path):
    base = ["union-bound", "--poly", "0x13", "--n", "20", "--ebno-list", "5"]
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    out_c = tmp_path / "c"
    assert run(base + ["--outdir", str(out_a)]) == 0
    assert run(base + ["--no-prefactor", "--outdir", str(out_b)]) == 0
    assert run(base + ["--source", "exact", "--outdir", str(out_c)]) == 0
    name = "union_bound_0x13_n20.csv"
    eps = {}
    for tag, d in (("pref", out_a), ("nopref", out_b), ("exact", out_c)):
        _, _, rows = read_csv(d / name)
        eps[tag] = float(rows[0][1])
    assert eps["nopref"] > eps["pref"] > 0
    assert eps["exact"] > 0 and eps["exact"] != eps["pref"]


@pytest.mark.parametrize("poly, n", [("0xb", 4), ("0x7", 3)])
def test_exact_union_bound_sums_every_codeword(tmp_path, poly, n):
    # at n < 2k the profile threshold dmin_bound skips weights 1-2 and can
    # pass the code's minimum distance; the exact bound starts at that distance
    assert run(["union-bound", "--poly", poly, "--n", str(n), "--ebno-list", "4",
                "--source", "exact", "--no-prefactor", "--outdir", str(tmp_path)]) == 0
    _, _, rows = read_csv(tmp_path / f"union_bound_{poly}_n{n}.csv")
    code = build_code(BitPoly.parse(poly), n)
    counts = [0] * (n + 1)
    for m in range(1 << code.k):
        counts[code.encode(m).bit_count()] += 1
    gamma = 2 * code.k / n * 10 ** 0.4
    pairwise = sum(a * 0.5 * math.erfc(math.sqrt(w * gamma / 2))
                   for w, a in enumerate(counts) if w)
    assert pairwise > 0.01
    assert float(rows[0][1]) == pytest.approx(pairwise, rel=1e-11)


def test_simulate_deterministic_artifacts(tmp_path):
    args = ["simulate", "--poly", "0x13", "--n", "20", "--ebno-list", "2,3",
            "--seed", "11", "--max-trials", "20000", "--target-errors", "50"]
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert run(args + ["--outdir", str(out1)]) == 0
    assert run(args + ["--outdir", str(out2)]) == 0
    name = "wer_0x13_n20_seed11.csv"
    assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    manifest, header, rows = read_csv(out1 / name)
    assert manifest["seed"] == 11
    assert header == "ebno_db,trials,word_errors,wer"
    assert len(rows) == 2


@pytest.mark.parametrize("command", [
    ["simulate", "--poly", "0x13", "--n", "20", "--max-trials", "100"],
    ["union-bound", "--poly", "0x13", "--n", "20"],
])
@pytest.mark.parametrize("snrs", ["nan,inf", "3,nan", "-inf", "4,inf"])
def test_non_finite_snr_is_domain_error(tmp_path, capsys, command, snrs):
    out = tmp_path / "out"
    assert run(command + [f"--ebno-list={snrs}", "--outdir", str(out)]) == 1
    assert "non-finite" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("command", [
    ["simulate", "--poly", "0x13", "--n", "20", "--max-trials", "100"],
    ["union-bound", "--poly", "0x13", "--n", "20"],
])
@pytest.mark.parametrize("snrs, bad", [("-3100", "-3100.0"), ("2,-3240", "-3240.0"),
                                       ("3090,3", "3090.0")])
def test_unrepresentable_snr_is_domain_error(tmp_path, capsys, command, snrs, bad):
    # finite points whose noise sigma or gamma is 0, inf or an overflow
    out = tmp_path / "out"
    assert run(command + [f"--ebno-list={snrs}", "--outdir", str(out)]) == 1
    assert f"error: Eb/N0 = {bad} dB gives" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("source", ["exact", "approx9"])
def test_union_bound_refuses_snr_before_enumerator(monkeypatch, tmp_path, capsys, source):
    # an unrepresentable point is refused before any weight profile is computed
    def refuse(*args, **kwargs):
        raise AssertionError("weight profile computed before the SNR check")

    monkeypatch.setattr(cli, "weight_enumerator_exact", refuse)
    monkeypatch.setattr(cli, "avg_primal_approx", refuse)
    out = tmp_path / "out"
    assert run(["union-bound", "--poly", "0x400003", "--n", "110", "--source", source,
                "--ebno-list=3,3090", "--outdir", str(out)]) == 1
    assert "error: Eb/N0 = 3090.0 dB gives" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("command", [
    ["simulate", "--poly", "0x13", "--n", "20", "--max-trials", "100"],
    ["union-bound", "--poly", "0x13", "--n", "20"],
])
@pytest.mark.parametrize("snrs", ["-inf", "-nan", "-inf,2", "-Infinity", "-NaN,3"])
def test_non_finite_snr_as_separate_argument(tmp_path, capsys, command, snrs):
    out = tmp_path / "out"
    assert run(command + ["--ebno-list", snrs, "--outdir", str(out)]) == 1
    spaced = capsys.readouterr().err
    assert run(command + [f"--ebno-list={snrs}", "--outdir", str(out)]) == 1
    assert capsys.readouterr().err == spaced
    assert "non-finite" in spaced
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("command", [
    ["simulate", "--poly", "0x13", "--n", "20", "--max-trials", "2000"],
    ["union-bound", "--poly", "0x13", "--n", "20"],
])
@pytest.mark.parametrize("snrs", ["-3,2", "-0.5,1", "-.5,2"])
def test_negative_snr_list_as_separate_argument(tmp_path, command, snrs):
    spaced, joined = tmp_path / "spaced", tmp_path / "joined"
    assert run(command + ["--ebno-list", snrs, "--outdir", str(spaced)]) == 0
    assert run(command + [f"--ebno-list={snrs}", "--outdir", str(joined)]) == 0
    (name,) = [p.name for p in spaced.iterdir()]
    assert (spaced / name).read_bytes() == (joined / name).read_bytes()
    manifest, _, _ = read_csv(spaced / name)
    assert manifest["params"]["ebno_list"] == [float(x) for x in snrs.split(",")]


def test_simulate_slow_gate(tmp_path, capsys):
    poly = enumerate_primitives(12)[0].to_hex()
    assert run(["simulate", "--poly", poly, "--n", "24", "--ebno-list", "3",
                "--outdir", str(tmp_path)]) == 1
    assert "--allow-slow" in capsys.readouterr().err


def test_outdir_env_default(tmp_path, monkeypatch):
    monkeypatch.setenv("PRCODES_OUTDIR", str(tmp_path / "envout"))
    assert run(["weights", "--poly", "0x13", "--n", "15"]) == 0
    assert (tmp_path / "envout" / "weights_primal_0x13_n15.csv").exists()


def test_unwritable_outdir_is_domain_error(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert run(["weights", "--poly", "0x13", "--n", "15",
                "--outdir", str(blocker)]) == 1
    assert "error:" in capsys.readouterr().err


def test_reproduce_enumerator_table(tmp_path):
    assert run(["reproduce", "table3", "--outdir", str(tmp_path)]) == 0
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == ["table3_k11_n20.csv", "table3_k11_n32.csv",
                     "table3_k4_n20.csv", "table3_k4_n32.csv"]
    _, _, rows = read_csv(tmp_path / "table3_k4_n32.csv")
    values = {int(j): int(v) for j, v in rows}
    assert {j: v for j, v in values.items() if v} == {0: 1, 16: 3, 17: 8, 18: 4}


def test_reproduce_kld_table_prints_reference(tmp_path, capsys):
    assert run(["reproduce", "table1", "--outdir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "reference=8.300e-03" in out
    manifest, header, rows = read_csv(tmp_path / "table1.csv")
    assert header == "k,n,kld_computed,kld_reference"
    assert len(rows) == 3  # the k=15 row needs --allow-slow
    for _, _, computed, reference in rows:
        assert 0.5 <= float(computed) / float(reference) <= 2.0


def test_reproduce_primal_average_curves(tmp_path):
    assert run(["reproduce", "fig2", "--outdir", str(tmp_path)]) == 0
    for tag in ("exact", "approx"):
        for n in (25, 45):
            assert (tmp_path / f"fig2_primal_{tag}_k10_n{n}.csv").exists()
    _, _, rows = read_csv(tmp_path / "fig2_primal_exact_k10_n25.csv")
    total = sum(float(v) for _, v in rows)
    assert total == pytest.approx(1024, rel=1e-9)


def test_reproduce_table2_runs_fast_rows(tmp_path, capsys):
    assert run(["reproduce", "table2", "--outdir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "reference=1.800e-03" in out
    _, _, rows = read_csv(tmp_path / "table2.csv")
    assert len(rows) == 2
    for _, _, computed, reference in rows:
        assert 0.5 <= float(computed) / float(reference) <= 2.0


def test_reproduce_distance_growth(tmp_path):
    assert run(["reproduce", "fig3", "--outdir", str(tmp_path)]) == 0
    path = tmp_path / "fig3_dmin_growth_0x13.csv"
    _, header, rows = read_csv(path)
    assert header == "n,dmin_bound,witness_d"
    assert [int(r[0]) for r in rows] == list(range(8, 49, 4))
    for _, bound, wd in rows:
        assert int(wd) >= 1 and int(bound) >= 2
    assert (tmp_path / "fig3_dmin_growth_0x12d.csv").exists()
    assert (tmp_path / "fig3_dmin_growth_0x12b53.csv").exists()
