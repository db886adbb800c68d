import csv
import io
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from spectralab import average, catalog, cli, oracle, spectrum


def run_cli(capsys, *argv):
    rc = cli.main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    header, body = rows[0], rows[1:]
    return header, body


# --- grammar ---


def test_roster_round_trips():
    # every family variant the verification sweep knows must be reachable
    # from its own printed label
    for spec in catalog.verification_roster():
        assert cli.parse_surface(spec.label()) == spec


def test_parse_aliases():
    assert cli.parse_surface("rect:a=1,b=1,bc=N") == catalog.rectangle(1, 1, "N")
    assert cli.parse_surface("tri306090:bc=ND") == catalog.triangle_306090("ND")
    with pytest.raises(ValueError):
        cli.parse_surface("torus:a=1,b=1")


def test_labels_print_canonical_families():
    # aliases are input sugar only
    spec = cli.parse_surface("rect:a=1,b=1,bc=N")
    assert spec.label() == "rectangle:a=1,b=1,bc=N"


# --- fixtures from the interface contract ---


def test_count_example(capsys):
    rc, out, _ = run_cli(capsys, "count", "sphere", "--at", "6")
    assert rc == 0
    assert out == "t,count,closed_form\n6,9,9\n"


def test_count_example_subprocess():
    # once through the real interpreter entry point, importing the same
    # package as this process whether it is installed or on pytest's path
    package_root = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (package_root, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run(
        [sys.executable, "-m", "spectralab.cli", "count", "sphere", "--at", "6"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[1] == "6,9,9"


def test_asymptotics_c_fixture(capsys):
    rc, out, _ = run_cli(capsys, "asymptotics", "tri306090:bc=ND")
    assert rc == 0
    header, body = parse_csv(out)
    assert header == ["constant", "symbolic", "decimal"]
    table = {r[0]: r for r in body}
    assert table["C"][1] == "-1/12"
    assert float(table["C"][2]) == -1.0 / 12.0
    assert float(table["A"][2]) == pytest.approx(math.sqrt(3) / (32 * math.pi))


def test_verify_example(capsys):
    rc, out, err = run_cli(capsys, "verify", "lune:m=2,bc=N",
                           "--max-t", "100000", "--seed", "7")
    assert rc == 0
    assert out == "pass\n"
    assert "lune:m=2,bc=N" in err  # timing goes to stderr only


def test_verify_failure_exit_code(capsys, monkeypatch):
    def fake(spec, T, n_times=2000, seed=0):
        return oracle.EquivalenceReport(spec.label(), float(T), 5, 1, False,
                                        "level 3: enumerated (1, 2), spectrum (1, 1)")
    monkeypatch.setattr(oracle, "check_equivalence", fake)
    rc, out, _ = run_cli(capsys, "verify", "sphere", "--max-t", "10")
    assert rc == 1
    assert out.startswith("fail: level 3")


# --- tabular commands ---


def test_spectrum_dump_matches_levels(capsys):
    rc, out, _ = run_cli(capsys, "spectrum", "flat_torus_rect:a=1,b=1",
                         "--max-t", "50")
    assert rc == 0
    header, body = parse_csv(out)
    assert header == ["value", "key", "multiplicity"]
    want = spectrum.levels(catalog.flat_torus_rect(1, 1), 50)
    assert len(body) == len(want)
    for row, lv in zip(body, want):
        assert float(row[0]) == lv.value
        assert row[1] == str(lv.key)
        assert int(row[2]) == lv.multiplicity


def test_spectrum_json_mirrors_csv(capsys):
    rc, out, _ = run_cli(capsys, "spectrum", "sphere", "--max-t", "20",
                         "--format", "json")
    assert rc == 0
    rows = json.loads(out)
    assert rows[0] == {"value": 0.0, "key": 0, "multiplicity": 1}
    assert rows[-1] == {"value": 20.0, "key": 4, "multiplicity": 9}


def test_avg_columns_and_normalization(capsys):
    rc, out, _ = run_cli(capsys, "avg", "sphere", "--grid", "10:1000:40", "--log")
    assert rc == 0
    header, body = parse_csv(out)
    assert header == ["t", "avg", "gx", "g_est"]
    ts = np.array([float(r[0]) for r in body])
    avg = average.avg_error_grid(catalog.sphere(), ts)
    for row, t, a in zip(body, ts, avg):
        assert float(row[1]) == pytest.approx(a, rel=1e-12, abs=1e-15)
        assert float(row[2]) == pytest.approx(math.sqrt(t + 0.25))
        assert row[3] == row[1]  # spherical g_est is the average itself


def test_avg_flat_normalization(capsys):
    rc, out, _ = run_cli(capsys, "avg", "rect:a=1,b=1,bc=N", "--grid", "100:200:7")
    assert rc == 0
    _, body = parse_csv(out)
    for row in body:
        t, a, gx, g = (float(v) for v in row)
        assert gx == pytest.approx(math.sqrt(t))
        assert g == pytest.approx(a * t ** 0.25, rel=1e-12)


def test_gprofile_matches_g_samples(capsys):
    rc, out, _ = run_cli(capsys, "gprofile", "sphere", "--grid", "50:60:21")
    assert rc == 0
    _, body = parse_csv(out)
    xs = np.linspace(50, 60, 21)
    want = average.g_samples(catalog.sphere(), xs)
    assert len(body) == 21
    for row, x, g in zip(body, xs, want):
        assert float(row[0]) == pytest.approx(x)
        assert float(row[1]) == pytest.approx(g, rel=1e-12, abs=1e-15)


def test_freq_scan_peaks_near_great_circle(capsys):
    rc, out, _ = run_cli(capsys, "freq", "sphere",
                         "--window", "100:200", "--omega", "5:8:301")
    assert rc == 0
    header, body = parse_csv(out)
    assert header == ["omega", "amplitude"]
    best = max(body, key=lambda r: float(r[1]))
    assert abs(float(best[0]) - 2 * math.pi) < 0.02
    assert float(best[1]) == pytest.approx(2 / math.pi ** 2, rel=0.05)


def test_proportions_table(capsys):
    rc, out, _ = run_cli(capsys, "proportions", "square_torus", "--max-t", "5000")
    assert rc == 0
    header, body = parse_csv(out)
    assert header == ["irrep", "measured", "predicted", "b_sign", "b_hat"]
    assert [r[0] for r in body] == ["++", "+-", "-+", "--", "2"]
    assert sum(float(r[2]) for r in body) == pytest.approx(1.0)


def test_heat_table_decreases(capsys):
    rc, out, _ = run_cli(capsys, "heat", "sphere", "--at", "0.1,0.05,0.02,0.01")
    assert rc == 0
    _, body = parse_csv(out)
    diffs = [float(r[3]) for r in body]
    assert diffs == sorted(diffs, reverse=True)
    assert diffs[-1] > 0


def test_list_covers_roster(capsys):
    rc, out, _ = run_cli(capsys, "list")
    assert rc == 0
    header, body = parse_csv(out)
    assert header == ["label", "family", "curvature"]
    labels = [r[0] for r in body]
    assert labels == [s.label() for s in catalog.verification_roster()]
    by_label = {r[0]: r[2] for r in body}
    assert by_label["sphere"] == "spherical"
    assert by_label["flat_torus_hex"] == "flat"


# --- determinism ---


def test_identical_config_identical_bytes(capsys):
    args = ("avg", "lune:m=3,bc=D", "--grid", "10:5000:200", "--log")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2
    args = ("conjecture", "sphere", "--seed", "3")
    rc1, c1, _ = run_cli(capsys, *args)
    rc2, c2, _ = run_cli(capsys, *args)
    assert rc1 == rc2 == 0
    assert c1 == c2


def test_conjecture_passes_for_asserted_families(capsys):
    rc, out, _ = run_cli(capsys, "conjecture", "sphere")
    assert rc == 0
    assert out.rstrip().endswith("RESULT: PASS")
    assert "check freq" in out
    rc, out, _ = run_cli(capsys, "conjecture", "flat_torus_rect:a=1,b=1")
    assert rc == 0
    assert out.rstrip().endswith("RESULT: PASS")


def test_conjecture_report_only_for_others(capsys):
    rc, out, _ = run_cli(capsys, "conjecture", "hemisphere:bc=N")
    assert rc == 0
    assert "report only" in out


# --- error handling ---


def test_unknown_family_is_usage_error(capsys):
    rc, out, err = run_cli(capsys, "count", "pentagon", "--at", "6")
    assert rc == 2
    assert out == ""
    assert "unknown surface family" in err
    assert "usage:" in err


def test_bad_grid_is_usage_error(capsys):
    rc, _, err = run_cli(capsys, "avg", "sphere", "--grid", "100:1:5")
    assert rc == 2
    assert "ascending" in err
    rc, _, err = run_cli(capsys, "avg", "sphere", "--grid", "1:100")
    assert rc == 2
    assert "lo:hi:n" in err


def test_level_budget_guard(capsys):
    rc, _, err = run_cli(capsys, "spectrum", "rect:a=40,b=40,bc=N",
                         "--max-t", "1e8")
    assert rc == 2
    assert "--max-t" in err and "cap" in err


def test_unknown_base_usage_error(capsys):
    rc, _, err = run_cli(capsys, "proportions", "pentagon", "--max-t", "1e4")
    assert rc == 2
    assert "unknown sector base" in err


def test_csv_quotes_labels_with_commas(capsys):
    _, out, _ = run_cli(capsys, "list")
    assert '"flat_torus_rect:a=1,b=1"' in out
