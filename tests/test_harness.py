"""Config parsing, table runs, verification reports, and the CLI."""

import json
import math
import sys

import pytest

from hillgap import blockdecomp, cli
from hillgap.harness import (
    CSV_COLUMNS,
    ConfigError,
    build_potential,
    build_weight,
    parse_config,
    rows_to_csv,
    run_table,
    run_verify,
)

MATHIEU_HALF = {"type": "mathieu", "mu": 0.5}


def test_parse_config_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        parse_config({"kind": "gaps", "potential": MATHIEU_HALF,
                      "n_range": [1, 2], "bogus": 1})
    with pytest.raises(ConfigError):
        parse_config({"kind": "weights_check", "weights": [{"kind": "trivial"}],
                      "potential": MATHIEU_HALF})
    with pytest.raises(ConfigError):
        parse_config({"kind": "gaps", "n_range": [1, 2]})
    with pytest.raises(ConfigError):
        parse_config({"kind": "banded"})
    with pytest.raises(ConfigError):
        parse_config({"potential": MATHIEU_HALF})  # no kind, no default


def test_parse_config_validation():
    base = {"kind": "gaps", "potential": MATHIEU_HALF}
    with pytest.raises(ConfigError):
        parse_config({**base, "n_range": [0, 3]})
    with pytest.raises(ConfigError):
        parse_config({**base, "n_range": [4, 2]})
    with pytest.raises(ConfigError):
        parse_config({**base, "n_range": [1, 2], "tol": 0.0})
    with pytest.raises(ConfigError):
        parse_config({**base, "n_range": [1, 2], "oracle": {"method": "euler"}})
    with pytest.raises(ConfigError):
        parse_config({"kind": "mathieu", "n_range": [1, 2],
                      "potential": {"type": "gasymov", "coeffs": [[1.0, 0.0]]}})


def test_parse_config_echo_fills_defaults():
    config = parse_config({"kind": "gaps", "potential": MATHIEU_HALF,
                           "n_range": [1, 3]})
    assert config.echo["weight"] == {"kind": "trivial"}
    assert config.echo["n_range"] == [1, 3]
    assert config.tol == 1e-12
    assert config.oracle_method == "auto" and config.oracle_dps is None
    adapted = parse_config({"kind": "adapted", "potential": MATHIEU_HALF,
                            "n_range": [1, 15]})
    # ||q|| = 1/(2 sqrt 2): ball size 2, threshold 8, window 15
    assert (adapted.m, adapted.M_thresh, adapted.K_out) == (2, 8, 15)


def test_build_weight_specs():
    assert build_weight({"kind": "trivial"})(7) == 1.0
    w = build_weight({"kind": "gevrey", "a": 1.0, "sigma": 0.5})
    assert w(4) == pytest.approx(math.e ** 2, rel=1e-14)
    w = build_weight({"kind": "tempered", "eps": 0.2,
                      "inner": {"kind": "superexp", "sigma": 2.0}})
    assert math.log(w(100)) == pytest.approx(20.0, rel=1e-12)
    w = build_weight({"kind": "table", "values": [[0, 1.0], [1, 3.0]]})
    assert w(-1) == pytest.approx(3.0, rel=1e-14)
    for bad in ({"kind": "nope"}, {"kind": "polynomial"},
                {"kind": "polynomial", "r": 2, "zzz": 1},
                {"kind": "tempered", "eps": 0.2}, "gevrey"):
        with pytest.raises(ConfigError):
            build_weight(bad)


def test_build_potential_specs():
    q = build_potential({"type": "fourier", "coeffs": [[1, 0.5, 0.0], [-1, 0.5, 0.0]],
                         "mean": [2.0, 0.0]})
    assert q.coeff(1) == 0.5 and q.mean == 2.0
    g = build_potential({"type": "gasymov", "coeffs": [[1.0, 0.0], [0.0, 0.5]]})
    assert g.coeff(2) == 0.5j and g.coeff(-1) == 0.0
    r = build_potential({"type": "random", "seed": 9, "K": 6,
                         "decay": {"kind": "polynomial", "r": 2.0}})
    assert r.K == 6 and r.is_real
    for bad in ({"type": "delta"}, {"type": "mathieu"},
                {"type": "mathieu", "mu": 0.5, "junk": 1},
                {"type": "random", "seed": 1, "K": 0,
                 "decay": {"kind": "trivial"}}):
        with pytest.raises(ConfigError):
            build_potential(bad)


def test_zero_potential_table():
    config = parse_config({"kind": "gaps",
                           "potential": {"type": "mathieu", "mu": 0.0},
                           "n_range": [1, 2],
                           "oracle": {"method": "taylor"}})
    rows, failed = run_table(config)
    assert not failed
    # an oracle row and a block row per index, gaps exactly closed
    assert [r["method"] for r in rows] == ["oracle", "block", "oracle", "block"]
    for row in rows:
        assert row["re_gamma"] == 0.0 and row["im_gamma"] == 0.0
    text = rows_to_csv(rows)
    lines = text.strip().split("\n")
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 5
    assert lines[1].split(",")[6] == "0"  # re_gamma renders bare


def test_csv_deterministic_across_threads(monkeypatch):
    raw = {"kind": "gaps", "potential": MATHIEU_HALF, "n_range": [1, 3],
           "oracle": {"method": "taylor"}}
    first = rows_to_csv(run_table(parse_config(raw))[0])
    second = rows_to_csv(run_table(parse_config(raw))[0])
    assert first == second
    monkeypatch.setenv("HILLGAP_THREADS", "3")
    third = rows_to_csv(run_table(parse_config(raw))[0])
    assert first == third


def test_escalating_csv_ignores_thread_setting(monkeypatch):
    # n = 3..5 escalate to the fixed-point ladder, whose mpmath precision is
    # process-wide state; a thread pool over these solves once changed the
    # digits of the n = 3, 4 rows from run to run
    raw = {"kind": "oracle", "potential": {"type": "mathieu", "mu": 1.0},
           "n_range": [3, 5]}
    rows, failed = run_table(parse_config(raw))
    assert not failed and all(row["method"] == "oracle" for row in rows)
    first = rows_to_csv(rows)
    monkeypatch.setenv("HILLGAP_THREADS", "3")
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for _ in range(2):
            assert rows_to_csv(run_table(parse_config(raw))[0]) == first
    finally:
        sys.setswitchinterval(interval)


def test_adapted_table_band_layout():
    config = parse_config({"kind": "adapted", "potential": MATHIEU_HALF,
                           "n_range": [1, 15]})
    rows, failed = run_table(config)
    assert not failed
    assert len(rows) == 15
    assert all(row["method"] == "adapted" for row in rows)
    assert rows[0]["re_pp"] == 0.25 and rows[0]["re_alpha"] == ""
    assert isinstance(rows[8]["resid"], float) and rows[8]["iters"] >= 1


def test_adapted_rows_carry_the_map_fixed_points():
    # the alpha cells come from adapted_map itself and must equal a separate
    # fixed-point solve bit for bit, mean included
    potential = {"type": "fourier", "coeffs": [[1, 0.25, 0.1], [-1, 0.2, -0.05]],
                 "mean": [0.75, 0.0]}
    config = parse_config({"kind": "adapted", "potential": potential, "n_range": [1, 12]})
    rows, failed = run_table(config)
    assert not failed
    band = [row for row in rows if row["re_alpha"] != ""]
    assert len(band) >= 4
    for row in band:
        alpha = blockdecomp.alpha_fixed_point(config.potential, row["n"], config.tol)
        assert (row["re_alpha"], row["im_alpha"]) == (alpha.real, alpha.imag)


def test_verify_weights_report():
    report = run_verify(parse_config({
        "kind": "weights_check", "N": 60, "eps_list": [0.2],
        "weights": [{"kind": "gevrey", "a": 1.0, "sigma": 0.5}]}))
    assert report["pass"]
    item = report["items"][0]
    assert item["growth_class"] == "strictly_subexponential"
    assert item["base_ok"]
    assert item["tempered"][0]["crossover"] == 25


def test_verify_gasymov_report():
    report = run_verify(parse_config({
        "kind": "gasymov", "n_range": [3, 4],
        "potential": {"type": "gasymov", "coeffs": [[1.0, 0.0]]}}))
    assert report["pass"]
    for item in report["items"]:
        assert item["gamma_ceiling"] <= 1e-7
        assert item["exact_zero"]


def test_verify_mathieu_zero_mu():
    report = run_verify(parse_config({
        "kind": "mathieu", "n_range": [1, 2],
        "potential": {"type": "mathieu", "mu": 0.0}}))
    assert report["pass"]
    assert any("free" in n for n in report["notes"])


def test_verify_theorem1_random_potential():
    report = run_verify(parse_config({
        "kind": "theorem1", "n_range": [1, 8],
        "potential": {"type": "random", "seed": 5, "K": 8,
                      "decay": {"kind": "gevrey", "a": 1.0, "sigma": 0.5}}}))
    assert report["pass"]
    assert report["items"]
    for item in report["items"]:
        assert item["margin"] > 0.0


def _write(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def test_cli_gaps_to_file_and_stdout(tmp_path, capsys):
    cfg = _write(tmp_path / "c.json",
                 {"potential": {"type": "mathieu", "mu": 0.0},
                  "n_range": [1, 1], "oracle": {"method": "taylor"}})
    out = tmp_path / "t.csv"
    assert cli.main(["gaps", "-c", cfg, "--out", str(out)]) == 0
    assert out.read_text().startswith(",".join(CSV_COLUMNS))
    assert cli.main(["oracle", "-c", cfg]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith(",".join(CSV_COLUMNS))


def test_cli_json_mode(tmp_path, capsys):
    cfg = _write(tmp_path / "c.json",
                 {"potential": {"type": "mathieu", "mu": 0.0},
                  "n_range": [1, 1], "oracle": {"method": "taylor"}})
    assert cli.main(["oracle", "-c", cfg, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["kind"] == "oracle" and not payload["failed"]
    assert payload["rows"][0]["n"] == 1


def test_cli_verify_summary_and_report_file(tmp_path, capsys):
    cfg = _write(tmp_path / "w.json",
                 {"weights": [{"kind": "gevrey", "a": 1.0, "sigma": 0.5}],
                  "N": 40, "eps_list": [0.2]})
    out = tmp_path / "report.json"
    assert cli.main(["verify", "weights", "-c", cfg, "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["pass"] and report["kind"] == "weights_check"
    assert "PASS" in capsys.readouterr().out


def test_cli_verify_mathieu_resolves_gaps_below_double_ulp(tmp_path):
    # gamma_6..8 fall under the ulp of n^2 pi^2; the 60-digit solve still
    # resolves them, and the verify ratio must use that gamma
    cfg = _write(tmp_path / "m.json",
                 {"potential": {"type": "mathieu", "mu": 1.0}, "n_range": [3, 8],
                  "oracle": {"method": "mp", "dps": 60}, "tol": 1e-26})
    assert cli.main(["verify", "mathieu", "-c", cfg]) == 0


def test_cli_config_errors_exit_2(tmp_path):
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    assert cli.main(["gaps", "-c", str(broken)]) == 2
    assert cli.main(["gaps", "-c", str(tmp_path / "missing.json")]) == 2
    cfg = _write(tmp_path / "bad.json",
                 {"potential": MATHIEU_HALF, "n_range": [1, 2], "bogus": 1})
    assert cli.main(["gaps", "-c", str(cfg)]) == 2
    mismatched = _write(tmp_path / "mismatch.json",
                        {"kind": "gasymov", "n_range": [3, 3],
                         "potential": {"type": "gasymov", "coeffs": [[1.0, 0.0]]}})
    assert cli.main(["verify", "mathieu", "-c", mismatched]) == 2


def test_cli_numerical_failure_exit_1(tmp_path):
    # ball size 1 cannot hold mathieu(2); the adapted table reports the error
    cfg = _write(tmp_path / "c.json",
                 {"kind": "adapted", "potential": {"type": "mathieu", "mu": 2.0},
                  "m": 1, "n_range": [1, 8]})
    assert cli.main(["gaps", "-c", cfg]) == 1
