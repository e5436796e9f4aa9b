import json

import pytest

from grdcalc import invariants
from grdcalc.cli import main


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
                           "--skip-genus21", "--golden", str(golden))
    assert code == 0
    assert "golden" in out
    assert (golden / "verify_golden.json").exists()
    # Second run compares clean.
    code, out, _ = run_cli(capsys, "verify", "--g-max", "5", "--m-max", "3",
                           "--skip-genus21", "--golden", str(golden))
    assert code == 0
    assert "match" in out
    # Tampering must be detected with the verification exit code.
    path = golden / "verify_golden.json"
    assert "2459/377" in path.read_text()
    path.write_text(path.read_text().replace("2459/377", "2459/378"))
    code, out, _ = run_cli(capsys, "verify", "--g-max", "5", "--m-max", "3",
                           "--skip-genus21", "--golden", str(golden))
    assert code == 2
    assert "mismatch" in out


def test_verify_honours_format(tmp_path, capsys):
    golden = tmp_path / "golden"
    argv = ["verify", "--g-max", "5", "--m-max", "3", "--skip-genus21"]
    code, table, _ = run_cli(capsys, *argv)
    assert code == 0 and table.endswith("14/14 checks passed\n")
    payload = run_json(capsys, *argv, "--format", "json", "--golden", str(golden))
    assert (payload["passed"], payload["total"]) == (14, 14)
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
    assert {"passed\t14", "total\t14", "golden_status\tmatch"} <= set(lines)


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
], ids=["class-coeff", "config-g-max", "config-m-max", "genus-zero", "unit-class-k",
        "pieri-unbounded", "genus-one-m21", "verify-g-max", "slope-stray-g", "mogb-rho",
        "m21-stray-h", "mogb-stray-h", "pullback-i-stray-h"])
def test_malformed_or_huge_input_ends_cleanly(tmp_path, capsys, argv, config, code, expected):
    if config is not None:
        path = tmp_path / "grdcalc.conf"
        path.write_text(config)
        argv = argv + ["--config", str(path)]
    got, out, err = run_cli(capsys, *argv)
    assert got == code, err
    assert "Traceback" not in err
    if code == 0:
        assert json.loads(out)["value"] == expected
    else:
        assert expected in err and not out


def test_division_fault_is_an_internal_error(monkeypatch, capsys):
    def broken(g, r, d):
        raise ZeroDivisionError("injected")

    monkeypatch.setattr(invariants, "xi", broken)
    code, out, err = run_cli(capsys, "invariants", "--g", "4", "--r", "1", "--d", "3")
    assert code == 2
    assert err == "grdcalc: internal error: ZeroDivisionError: injected\n"
    assert "Traceback" not in err and not out


SMALL = [str(v) for v in range(-2, 13)]
MALFORMED = ["", "abc", "1.5", "1e3", "0x10", "--", " 3", "-0", "+4", "1_0"]
CLASSES = ["psi:1", "lambda:2,delta_1:-1", "delta_0:1/2", "psi:abc", "foo:1", "", "psi",
           "psi:1,psi:2", "delta_9:1", "delta_-1:1", "lambda:1/0", ":", "psi:1,"]
INDICES = ["0,0", "0,1", "1,1", "1,0", "0", "0,0,0", "a,b", "", ",", "-1,0", "0,,1"]
CONFIGS = [b"format=tsv\n", b"g_max=abc\n", b"garbage\n", b"format=xml\n", b"format=\xff\xfe\n"]


def random_argv(rng, config_paths):
    """One argv: a subcommand (or none, or an unknown one), each of its flags
    with probability 3/4, mostly small values and some malformed ones, and
    now and then --format, --config or a stray token."""
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
    if rng.random() < 0.2:
        argv += ["--format", rng.choice(["json", "tsv", "pretty", "xml"])]
    if rng.random() < 0.15:
        argv += ["--config", rng.choice(config_paths)]
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
