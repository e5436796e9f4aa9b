import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import grdcalc
from grdcalc import invariants, pushforward, schubert
from grdcalc.cli import main
from grdcalc.families import ClassLabel


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def test_invariants_json(capsys):
    payload = run_json(capsys, "invariants", "--g", "21", "--r", "6", "--d", "24")
    assert payload == {"rho": "0", "N": "1385670", "xi": "312"}


def test_invariants_bad_triple_exits_one(capsys):
    code, _, err = run_cli(capsys, "invariants", "--g", "3", "--r", "1", "--d", "2")
    assert code == 1
    assert "rho" in err


def test_slope_genus21(capsys):
    payload = run_json(capsys, "slope", "--g", "21", "--r", "6", "--d", "24")
    assert payload["ratio"] == "2459/377"
    assert payload["lambda"] == "2459/95"
    assert payload["delta0"] == "-377/95"
    assert payload["bound"] == "72/11"
    assert payload["violates"] is True
    assert payload["conjectural"] is False


def test_slope_family_member(capsys):
    payload = run_json(capsys, "slope", "--m", "2")
    assert payload["ratio"] == "7"
    assert payload["g"] == 10
    assert payload["conjectural"] is True


def test_slope_sweep(capsys):
    payload = run_json(capsys, "slope", "--sweep", "4")
    assert payload["gap_identity"] is True
    assert len(payload["reports"]) == 4
    assert payload["reports"][0]["gap"] == "0"


def test_slope_flag_combinations_rejected(capsys):
    code, _, err = run_cli(capsys, "slope", "--m", "2", "--sweep", "3")
    assert code == 1
    code, _, err = run_cli(capsys, "slope", "--g", "21")
    assert code == 1


def test_schubert_both_methods(capsys):
    payload = run_json(capsys, "schubert", "--r", "1", "--d", "3", "--k", "4",
                       "--b", "0,0", "--method", "both")
    assert payload["value"] == "2"
    assert payload["value_pieri"] == "2"
    assert payload["methods_agree"] is True


def test_picard_pullback_j(capsys):
    payload = run_json(capsys, "picard", "pullback", "j", "--g", "8",
                       "--class", "delta_6:1")
    assert payload == {"psi": "-1"}


def test_picard_pullback_k_needs_h(capsys):
    code, _, err = run_cli(capsys, "picard", "pullback", "k", "--g", "8",
                           "--class", "psi:1")
    assert code == 1
    payload = run_json(capsys, "picard", "pullback", "k", "--g", "8", "--h", "3",
                       "--class", "psi:1")
    assert payload == {"degree": "5"}


def test_families_marked(capsys):
    payload = run_json(capsys, "families", "marked", "--g", "4", "--r", "1",
                       "--d", "3", "--h", "1")
    assert payload["gamma"] == "-4"
    assert payload["alpha"] == "-18"


def test_families_mogb_zero(capsys):
    payload = run_json(capsys, "families", "mogb", "--g", "6", "--r", "2", "--d", "6")
    assert payload == {"alpha": {}, "beta": {}, "gamma": {}}


def test_pushforward_both_methods_agree(capsys):
    code, out, err = run_cli(capsys, "pushforward", "--g", "6", "--r", "2",
                             "--d", "6", "--class", "beta", "--method", "both")
    assert code == 0
    payload = json.loads(out)
    assert payload["methods_agree"] is True
    assert payload["coefficients"] == payload["coefficients_assembled"]


def test_unknown_flag_rejected(capsys):
    code, _, err = run_cli(capsys, "slope", "--bogus", "1")
    assert code == 1


def test_verify_small_gmax_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "verify", "--g-max", "4")
    assert code == 1
    assert "g-max" in err


def test_output_is_deterministic(capsys):
    _, first, _ = run_cli(capsys, "pushforward", "--g", "8", "--r", "3", "--d", "9",
                          "--class", "gamma")
    _, second, _ = run_cli(capsys, "pushforward", "--g", "8", "--r", "3", "--d", "9",
                           "--class", "gamma")
    assert first == second


def test_tsv_and_pretty_formats(capsys):
    code, out, _ = run_cli(capsys, "invariants", "--g", "4", "--r", "1", "--d", "3",
                           "--format", "tsv")
    assert code == 0
    assert "N\t2" in out.splitlines()
    code, out, _ = run_cli(capsys, "invariants", "--g", "4", "--r", "1", "--d", "3",
                           "--format", "pretty")
    assert code == 0
    assert any(line.startswith("N") and line.rstrip().endswith("2")
               for line in out.splitlines())


def test_config_file_supplies_defaults(tmp_path, capsys):
    config = tmp_path / "grdcalc.conf"
    config.write_text("# defaults\nformat=tsv\n")
    code, out, _ = run_cli(capsys, "invariants", "--g", "4", "--r", "1", "--d", "3",
                           "--config", str(config))
    assert code == 0
    assert "rho\t0" in out.splitlines()


def test_verify_quick_run_and_golden_round_trip(tmp_path, capsys):
    golden = tmp_path / "golden"
    code, out, _ = run_cli(capsys, "verify", "--g-max", "5", "--m-max", "3",
                           "--golden", str(golden))
    assert code == 0
    assert "golden" in out
    assert (golden / "verify_golden.json").exists()
    # Second run compares clean.
    code, out, _ = run_cli(capsys, "verify", "--g-max", "5", "--m-max", "3",
                           "--golden", str(golden))
    assert code == 0
    assert "match" in out
    # Tampering must be detected with the verification exit code.
    path = golden / "verify_golden.json"
    assert "2459/377" in path.read_text()
    path.write_text(path.read_text().replace("2459/377", "2459/378"))
    code, out, _ = run_cli(capsys, "verify", "--g-max", "5", "--m-max", "3",
                           "--golden", str(golden))
    assert code == 2
    assert "mismatch" in out


def test_verify_honours_format(tmp_path, capsys):
    golden = tmp_path / "golden"
    argv = ["verify", "--g-max", "5", "--m-max", "3"]
    code, table, _ = run_cli(capsys, *argv)
    assert code == 0 and table.endswith("15/15 checks passed\n")
    payload = run_json(capsys, *argv, "--format", "json", "--golden", str(golden))
    assert (payload["passed"], payload["total"]) == (15, 15)
    assert payload["golden_status"] == "written"
    assert [c["name"] for c in payload["checks"]] == [
        line.split()[1] for line in table.splitlines()[:-1]]
    assert all(set(c) == {"name", "passed", "detail"} and c["passed"]
               for c in payload["checks"])
    config = tmp_path / "grdcalc.conf"
    config.write_text("format=tsv\n")
    code, out, _ = run_cli(capsys, *argv, "--config", str(config), "--golden", str(golden))
    assert code == 0
    lines = out.splitlines()
    assert "checks.13.name\tslope-vs-assembly" in lines
    assert {"passed\t15", "total\t15", "golden_status\tmatch"} <= set(lines)


@pytest.mark.parametrize("name, fmt", [("verify_default.txt", []),
                                       ("verify_default.json", ["--format", "json"])])
def test_default_verify_report_is_pinned(capsys, name, fmt):
    # Every row detail of the default battery, byte for byte: a change to how
    # a check computes its routes must leave its report as it was.
    code, out, err = run_cli(capsys, "verify", *fmt)
    assert (code, err) == (0, "")
    assert out == (Path(__file__).parent / "data" / name).read_text(encoding="utf-8")


def test_long_count_below_the_digit_limit_prints(capsys):
    # The pencil count at g = 14000 has about 4200 digits, under Python's
    # default limit of 4300 on int -> str; g = 14400 is refused above.
    payload = run_json(capsys, "invariants", "--g", "14000", "--r", "1", "--d", "7001")
    assert len(payload["N"]) > 4000


def test_golden_path_that_is_a_file_is_usage_error(tmp_path, capsys):
    blocker = tmp_path / "golden"
    blocker.write_text("not a directory\n")
    code, out, err = run_cli(capsys, "verify", "--g-max", "5", "--m-max", "3",
                             "--golden", str(blocker))
    assert code == 1 and not out
    assert err.startswith(f"grdcalc: error: cannot use golden file {blocker / 'verify_golden.json'}")


def test_golden_file_not_utf8_is_usage_error(tmp_path, capsys):
    path = tmp_path / "verify_golden.json"
    path.write_bytes(b"\xff\xfe not json\n")
    code, out, err = run_cli(capsys, "verify", "--g-max", "5", "--m-max", "3",
                             "--golden", str(tmp_path))
    assert code == 1 and not out
    assert err.startswith(f"grdcalc: error: cannot use golden file {path}")


def test_missing_subcommand_is_usage_error(capsys):
    code, _, _ = run_cli(capsys)
    assert code == 1


@pytest.mark.parametrize("argv, config, code, expected", [
    (["picard", "pullback", "j", "--g", "8", "--class", "psi:abc"], None, 1, "psi:abc"),
    (["verify"], "g_max=abc\n", 1, "g_max"),
    (["verify"], "m_max=1.5\n", 1, "m_max"),
    (["invariants", "--g", "0", "--r", "1", "--d", "1"], None, 1, "g=0"),
    (["schubert", "--r", "0", "--d", "3", "--k", "1000000000", "--b", "3"], None, 0, "1"),
    (["schubert", "--r", "1", "--d", "3", "--k", "100000000", "--b", "0,0",
      "--method", "pieri"], None, 0, "0"),
    (["families", "m21", "--g", "1", "--r", "0", "--d", "0"], None, 1, "genus-2-tail"),
    (["verify", "--g-max", "4"], None, 1, "g_max"),
    (["slope", "--m", "3", "--g", "5"], None, 1, "give exactly one of"),
    (["families", "mogb", "--g", "7", "--r", "1", "--d", "3"], None, 1, "rho(g=7"),
    (["families", "m21", "--g", "6", "--r", "2", "--d", "6", "--h", "2"], None, 1, "--h"),
    (["families", "mogb", "--g", "6", "--r", "2", "--d", "6", "--h", "2"], None, 1, "--h"),
    (["picard", "pullback", "i", "--g", "6", "--h", "3", "--class", "psi:1"], None, 1, "--h"),
    (["schubert", "--r", "1", "--d", "3", "--k", "4", "--b=-1,-1"], None, 1, "leaves the box"),
    (["slope", "--sweep", "1001"], None, 1, "--sweep must be at most 1000"),
    (["verify", "--m-max", "1001"], None, 1, "m_max <= 1000 (--m-max)"),
    (["verify", "--g-max", "61"], None, 1, "g_max <= 60 (--g-max)"),
    (["verify"], "g_max=61\n", 1, "g_max <= 60 (--g-max)"),
    (["verify"], "m_max=1001\n", 1, "m_max <= 1000 (--m-max)"),
    (["invariants", "--g", "14400", "--r", "1", "--d", "7201"], None, 1, "-digit limit"),
    (["families", "marked", "--g", "14400", "--r", "1", "--d", "7201", "--h", "1"], None, 1,
     "-digit limit"),
    (["invariants", "--g", "1" + "0" * 30, "--r", "1", "--d", "5" + "0" * 28 + "1"], None, 1,
     "--g must be at most 20000"),
    (["schubert", "--r", "1", "--d", "1" + "0" * 20, "--k", "1" + "9" * 19 + "8", "--b", "0,0"],
     None, 1, "--d must be at most 300"),
    (["invariants", "--g", "400000", "--r", "1", "--d", "200001"], None, 1,
     "--g must be at most 20000"),
    (["families", "marked", "--g", "2000000", "--r", "1999999", "--d", "3999998", "--h", "1"],
     None, 1, "--g must be at most 20000"),
    (["families", "mogb", "--g", "2000000", "--r", "1999999", "--d", "3999998"], None, 1,
     "--g must be at most 20000"),
    (["picard", "pullback", "k", "--g", "1000000", "--h", "1", "--class", "psi:1"], None, 1,
     "--g must be at most 20000"),
    (["pushforward", "--g", "20000", "--r", "19999", "--d", "39998", "--class", "beta",
      "--method", "assembled"], None, 1, "--method assembled needs --g at most 2000; "
     "use --method closed"),
    (["schubert", "--r", "1", "--d", "100000", "--k", "199998", "--b", "0,0", "--method",
      "pieri"], None, 1, "--d must be at most 300"),
    (["schubert", "--r", "10", "--d", "290", "--k", "308", "--b", ",".join("0" * 11),
      "--method", "pieri"], None, 1, "more than 300000 term-rows"),
    (["schubert", "--r", "30", "--d", "180", "--k", "155", "--b", ",".join("0" * 31),
      "--method", "pieri"], None, 1, "more than 300000 term-rows"),
    (["schubert", "--r", "1", "--d", "3", "--k", "4", "--b", "0,x"], None, 1, "bad index"),
    (["slope", "--sweep", "0"], None, 1, "--sweep must be at least 1"),
    (["slope", "--m", "0"], None, 1, "need m >= 1"),
    (["invariants", "--g", "4", "--r", "1", "--d", "3"], "format=xml\n", 1,
     "config format 'xml' invalid"),
    (["invariants", "--g", "4", "--r", "1", "--d", "3"], "format=tsv\nformt=tsv\n", 1,
     "grdcalc.conf:2: unknown config key 'formt'"),
    (["verify"], "formt=tsv\n", 1, "grdcalc.conf:1: unknown config key 'formt'"),
    (["picard", "--format", "tsv", "pullback", "i", "--g", "5", "--class", "delta_2:1"], None, 1,
     "--format is an option of `picard pullback`: give it after `pullback`"),
    (["picard", "--config", "CONFIG", "pullback", "i", "--g", "5", "--class", "lambda:1"], None, 1,
     "--config is an option of `picard pullback`: give it after `pullback`"),
    (["picard", "--config", "CONFIG", "pullback", "i", "--g", "5", "--class", "lambda:1"],
     "format=tsv\n", 1, "--config is an option of `picard pullback`: give it after `pullback`"),
    (["picard", "--format", "pullback", "i", "--g", "5", "--class", "delta_2:1"], None, 1,
     "--format is an option of `picard pullback`: give it after `pullback`"),
    (["picard", "--format=tsv", "pullback", "i", "--g", "5", "--class", "delta_2:1"], None, 1,
     "--format is an option of `picard pullback`: give it after `pullback`"),
    (["picard", "--h", "3", "pullback", "k", "--g", "8", "--class", "psi:1"], None, 1,
     "--h is an option of `picard pullback`: give it after `pullback`"),
    (["picard", "--foo", "3", "pullback", "k", "--g", "8", "--class", "psi:1"], None, 1,
     "unrecognized arguments: --foo"),
    (["picard", "--form", "tsv", "pullback", "i", "--g", "5", "--class", "delta_2:1"], None, 1,
     "unrecognized arguments: --form"),
    (["schubert", "--r", "1", "--d", "3", "--k", "4", "--b", "0,0", "--h", "2"], None, 1,
     "unrecognized arguments: --h 2"),
    (["invariants", "--g", "21", "--r", "6", "--d", "24", "--form", "tsv"], None, 1,
     "unrecognized arguments: --form tsv"),
    (["--format", "json", "invariants", "--g", "4", "--r", "1", "--d", "3"], None, 1,
     "--format is an option of `invariants`, `schubert`, `picard pullback`, `families`, "
     "`pushforward`, `slope`, `verify`: give it after the subcommand"),
    (["--g", "4", "invariants", "--r", "1", "--d", "3"], None, 1,
     "--g is an option of `invariants`, `picard pullback`, `families`, `pushforward`, "
     "`slope`: give it after the subcommand"),
    (["--k", "4", "schubert", "--r", "1", "--d", "3", "--b", "0,0"], None, 1,
     "--k is an option of `schubert`: give it after `schubert`"),
    (["--foo", "invariants", "--g", "4", "--r", "1", "--d", "3"], None, 1,
     "unrecognized arguments: --foo"),
    (["picard", "pullback", "i", "--g", "5", "--class", "psi:1e100000000"], None, 1,
     "class term 'psi:1e100000000' has more than 4300 digits"),
    (["picard", "pullback", "i", "--g", "5", "--class", "lambda:1,psi:-2e-100000000"], None, 1,
     "class term 'psi:-2e-100000000' has more than 4300 digits"),
    (["picard", "pullback", "i", "--g", "5", "--class", "delta_2:1/" + "7" * 4301], None, 1,
     "class term 'delta_2:1/" + "7" * 30 + "'... (4311 characters) has more than 4300 digits"),
], ids=["class-coeff", "config-g-max", "config-m-max", "genus-zero", "unit-class-k",
        "pieri-unbounded", "genus-one-m21", "verify-g-max", "slope-stray-g", "mogb-rho",
        "m21-stray-h", "mogb-stray-h", "pullback-i-stray-h", "negative-index", "sweep-bound",
        "m-max-bound", "g-max-bound", "config-g-max-bound", "config-m-max-bound",
        "count-too-long", "marked-too-long", "count-factorial-overflow",
        "schubert-factorial-overflow", "count-huge-genus", "marked-huge-genus", "mogb-huge-genus",
        "pullback-huge-genus", "assembly-huge-genus", "pieri-huge-box", "pieri-work-r10", "pieri-work-r30",
        "bad-index", "sweep-zero", "m-zero", "config-format", "config-unknown-key",
        "verify-config-unknown-key", "picard-level-format", "picard-level-config-missing",
        "picard-level-config", "picard-level-format-no-value", "picard-level-format-equals",
        "picard-level-h", "picard-level-unknown", "picard-level-abbreviated", "abbreviated-h",
        "abbreviated-format", "top-level-format", "top-level-g", "top-level-one-owner",
        "top-level-unknown", "class-coeff-huge-exponent", "class-coeff-huge-negative-exponent",
        "class-coeff-long-digit-string"])
def test_malformed_or_huge_input_ends_cleanly(tmp_path, capsys, argv, config, code, expected):
    # The config file is written only if the case gives its text; it goes
    # where the argv says CONFIG, or else at the end.
    path = tmp_path / "grdcalc.conf"
    if config is not None:
        path.write_text(config)
    if "CONFIG" in argv:
        argv = [str(path) if arg == "CONFIG" else arg for arg in argv]
    elif config is not None:
        argv = argv + ["--config", str(path)]
    got, out, err = run_cli(capsys, *argv)
    assert got == code, err
    assert "Traceback" not in err
    if code == 0:
        assert json.loads(out)["value"] == expected
    else:
        assert expected in err and not out


def test_picard_takes_format_and_config_after_pullback(tmp_path, capsys):
    argv = ["picard", "pullback", "i", "--g", "5", "--class", "delta_2:1"]
    assert run_cli(capsys, *argv, "--format", "tsv") == (0, "epsilon_2\t1\n", "")
    config = tmp_path / "grdcalc.conf"
    config.write_text("format=pretty\n")
    assert run_cli(capsys, *argv, "--config", str(config)) == (0, "epsilon_2  1\n", "")
    code, out, err = run_cli(capsys, *argv, "--config", str(tmp_path / "missing.conf"))
    assert (code, out) == (1, "") and err.startswith("grdcalc: error: cannot read config file")


HELP_PAGES = [[], ["invariants"], ["schubert"], ["picard"], ["picard", "pullback"], ["families"],
              ["pushforward"], ["slope"], ["verify"]]


@pytest.mark.parametrize("argv", HELP_PAGES, ids=lambda argv: "-".join(["grdcalc"] + argv))
def test_help_pages_are_pinned(monkeypatch, capsys, argv):
    # argparse wraps help to the terminal width.
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exit_info:
        main(argv + ["--help"])
    assert exit_info.value.code == 0
    name = "help_" + "_".join(["grdcalc"] + argv) + ".txt"
    assert capsys.readouterr().out == (Path(__file__).parent / "data" / name).read_text(
        encoding="utf-8")


def test_division_fault_is_an_internal_error(monkeypatch, capsys):
    def broken(g, r, d):
        raise ZeroDivisionError("injected")

    monkeypatch.setattr(invariants, "xi", broken)
    code, out, err = run_cli(capsys, "invariants", "--g", "4", "--r", "1", "--d", "3")
    assert code == 2
    assert err == "grdcalc: internal error: ZeroDivisionError: injected\n"
    assert "Traceback" not in err and not out


def test_a_slipped_family_datum_is_a_consistency_failure(monkeypatch, capsys):
    # Only the h = 1 marked-point degree is off, so the system has no solution.
    true_marked = pushforward.marked_per_n
    monkeypatch.setattr(pushforward, "marked_per_n",
                        lambda g, r, d, h, label: true_marked(g, r, d, h, label) + (h == 1))
    code, out, err = run_cli(capsys, "pushforward", "--g", "6", "--r", "2", "--d", "6",
                             "--class", "beta", "--method", "assembled")
    assert (code, out) == (2, "")
    assert err.startswith("grdcalc: consistency failure: family data contradicts for (6,2,6) beta")


def test_routes_that_disagree_exit_two(monkeypatch, capsys):
    true_pieri = schubert.zeta_power_integral_pieri
    monkeypatch.setattr(schubert, "zeta_power_integral_pieri", lambda *args: true_pieri(*args) + 1)
    code, out, _ = run_cli(capsys, "schubert", "--r", "1", "--d", "3", "--k", "4", "--b", "0,0",
                           "--method", "both")
    assert code == 2
    assert json.loads(out)["methods_agree"] is False
    true_beta = pushforward.closed_form(6, 2, 6, ClassLabel.BETA)
    monkeypatch.setitem(pushforward._CLOSED_FORMS, ClassLabel.BETA,
                        lambda g, r, d: true_beta.scale(2))
    code, out, _ = run_cli(capsys, "pushforward", "--g", "6", "--r", "2", "--d", "6",
                           "--class", "beta", "--method", "both")
    assert code == 2
    assert json.loads(out)["methods_agree"] is False


def test_every_valid_query_of_the_benchmark_prints_its_reference(capsys):
    # perfbench/cli_reference.json holds sha256[:16] of the stdout of each
    # valid query the benchmark draws; every one must still exit 0 with it.
    path = Path(__file__).resolve().parent.parent / "perfbench" / "cli_reference.json"
    reference = json.loads(path.read_text())
    assert len(reference) >= 700
    wrong = []
    for query, digest in reference.items():
        code, out, _ = run_cli(capsys, *query.split(" "))
        if code != 0 or hashlib.sha256(out.encode()).hexdigest()[:16] != digest:
            wrong.append(query)
    assert not wrong


SMALL = [str(v) for v in range(-2, 13)]
MALFORMED = ["", "abc", "1.5", "1e3", "0x10", "--", " 3", "-0", "+4", "1_0"]
CLASSES = ["psi:1", "lambda:2,delta_1:-1", "delta_0:1/2", "psi:abc", "foo:1", "", "psi",
           "psi:1,psi:2", "delta_9:1", "delta_-1:1", "lambda:1/0", ":", "psi:1,"]
INDICES = ["0,0", "0,1", "1,1", "1,0", "0", "0,0,0", "a,b", "", ",", "-1,0", "0,,1"]
CONFIGS = [b"format=tsv\n", b"g_max=abc\n", b"garbage\n", b"format=xml\n", b"format=\xff\xfe\n"]


def random_argv(rng, config_paths):
    """One argv: a subcommand (or none, or an unknown one), each of its flags
    with probability 3/4, mostly small values and some malformed ones, and
    now and then --format, --config (for `picard`, often before `pullback`)
    or a stray token."""
    def value(pool):
        return rng.choice(pool) if rng.random() < 0.8 else rng.choice(MALFORMED)

    command = rng.choice(["invariants", "schubert", "picard", "families", "pushforward",
                          "slope", "verify", "bogus", ""])
    argv = [command] if command else []
    flags = {"--g": SMALL, "--r": SMALL, "--d": SMALL}
    if command == "schubert":
        flags = {"--r": SMALL[:8], "--d": SMALL[:10], "--k": SMALL, "--b": INDICES,
                 "--method": ["closed", "pieri", "both", "fast"]}
    elif command == "picard":
        argv += rng.choice([["pullback", rng.choice("ijkx")], ["pullback"], ["push"], []])
        flags = {"--g": SMALL, "--h": SMALL, "--class": CLASSES}
    elif command == "families":
        argv.append(rng.choice(["m21", "marked", "mogb", "other"]))
        flags["--h"] = SMALL
    elif command == "pushforward":
        flags["--class"] = ["alpha", "beta", "gamma", "delta"]
        flags["--method"] = ["closed", "assembled", "both", "fast"]
    elif command == "slope":
        flags.update({"--m": SMALL, "--sweep": SMALL})
    elif command == "verify":
        # A full battery takes most of a second, so every --g-max is below
        # the sweep's minimum of 5 or malformed.
        argv += ["--g-max", rng.choice(["-1", "0", "4", "abc", ""])]
        flags = {"--m-max": SMALL, "--golden": ["golden"], "--skip-genus21": None}
    for flag, pool in flags.items():
        if rng.random() < 0.75:
            argv += [flag] if pool is None else [flag, value(pool)]
    options = []
    if rng.random() < 0.2:
        options += ["--format", rng.choice(["json", "tsv", "pretty", "xml"])]
    if rng.random() < 0.15:
        options += ["--config", rng.choice(config_paths)]
    # Half of the time right after `picard`, which itself takes neither.
    at = 1 if command == "picard" and rng.random() < 0.5 else len(argv)
    argv[at:at] = options
    if rng.random() < 0.1:
        argv.insert(rng.randrange(len(argv) + 1), rng.choice(["--h", "--zzz", "-x", "--g", "7"]))
    return argv


def test_random_argv_ends_in_a_known_exit_code(rng, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    config_paths = [str(tmp_path / "missing.conf"), str(tmp_path)]
    for i, content in enumerate(CONFIGS):
        path = tmp_path / f"c{i}.conf"
        path.write_bytes(content)
        config_paths.append(str(path))
    codes = set()
    for _ in range(400):
        argv = random_argv(rng, config_paths)
        try:
            code = main(argv)
        except SystemExit as exc:  # --help and -h
            code = exc.code
        err = capsys.readouterr().err
        assert code in (0, 1, 2), argv
        assert "Traceback" not in err, argv
        if code == 1:
            assert err.startswith("grdcalc: "), argv
        codes.add(code)
    assert codes == {0, 1}


# The child prints to stderr as it exits, after whatever main() wrote, the
# grdcalc modules it loaded and whichever of `dataclasses` and `inspect` it
# loaded: the value classes are plain classes, so no query needs either.
CHILD_CODE = ("import atexit, json, sys; atexit.register(lambda: print(json.dumps(sorted("
              "m for m in sys.modules if m.startswith('grdcalc') or m in ('dataclasses', "
              "'inspect'))), file=sys.stderr)); {}")
RUN_MAIN = "from grdcalc.cli import main; sys.exit(main())"
CLI_ONLY = {"grdcalc", "grdcalc.cli", "grdcalc.errors", "grdcalc.exact"}
INVARIANTS = {"grdcalc.invariants", "grdcalc.value"}
PICARD = {"grdcalc.picard", "grdcalc.value"}
FAMILIES = PICARD | INVARIANTS | {"grdcalc.families", "grdcalc.schubert"}
PUSHFORWARD = FAMILIES | {"grdcalc.pushforward", "grdcalc.linalg"}
SLOPE = INVARIANTS | {"grdcalc.slope"}


def run_python(*args):
    """A fresh interpreter that imports grdcalc from the same tree as this test."""
    src = str(Path(grdcalc.__file__).resolve().parent.parent)
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=60)


@pytest.mark.parametrize("argv, loaded, exit_code", [
    (None, set(), 0),
    (["frobnicate"], set(), 1),
    (["invariants", "--g", "21", "--r", "6", "--d", "24"], INVARIANTS, 0),
    (["invariants", "--g", "3", "--r", "1", "--d", "2"], INVARIANTS, 1),
    (["schubert", "--r", "1", "--d", "3", "--k", "4", "--b", "0,0"],
     {"grdcalc.schubert", "grdcalc.value"}, 0),
    (["picard", "pullback", "j", "--g", "8", "--class", "delta_6:1"], PICARD, 0),
    (["families", "marked", "--g", "4", "--r", "1", "--d", "3", "--h", "1"], FAMILIES, 0),
    (["pushforward", "--g", "6", "--r", "2", "--d", "6", "--class", "beta"], PUSHFORWARD, 0),
    (["slope", "--g", "21", "--r", "6", "--d", "24"], SLOPE, 0),
    (["slope", "--sweep", "2"], SLOPE, 0),
    (["verify", "--g-max", "5", "--m-max", "2", "--format", "tsv"],
     PUSHFORWARD | SLOPE | {"grdcalc.verify"}, 0),
], ids=["import-only", "usage-error", "invariants", "precondition-error", "schubert", "picard",
        "families", "pushforward", "slope", "slope-sweep", "verify"])
def test_a_process_imports_only_what_its_subcommand_runs(capsys, argv, loaded, exit_code):
    child = CHILD_CODE.format("import grdcalc.cli" if argv is None else RUN_MAIN)
    proc = run_python("-c", child, *(argv or []))
    *err_lines, modules = proc.stderr.splitlines()
    assert proc.returncode == exit_code
    assert set(json.loads(modules)) == CLI_ONLY | loaded
    if argv is not None:
        code, out, err = run_cli(capsys, *argv)
        assert (proc.returncode, proc.stdout) == (code, out)
        assert err_lines == err.splitlines()


def test_python_m_grdcalc_runs_the_cli(capsys):
    argv = ["slope", "--m", "2", "--format", "tsv"]
    proc = run_python("-m", "grdcalc", *argv)
    code, out, _ = run_cli(capsys, *argv)
    assert proc.returncode == code == 0
    assert proc.stdout == out


def test_a_reader_that_stops_early_gets_one_error_line():
    # The sweep prints about 360 kB, more than a pipe holds, so the writer is
    # still printing when the reader closes the pipe after one line.
    src = str(Path(grdcalc.__file__).resolve().parent.parent)
    with subprocess.Popen([sys.executable, "-m", "grdcalc", "slope", "--sweep", "1000"],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          env=dict(os.environ, PYTHONPATH=src)) as proc:
        assert proc.stdout.readline() == "{\n"
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 1
    assert "Traceback" not in err
    assert err.splitlines() == [
        "grdcalc: error: standard output was closed before all of the output was written"]
