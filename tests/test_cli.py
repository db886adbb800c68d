import csv
import gc
import hashlib
import io
import itertools
import json
import math
import os
import random
import shlex
import subprocess
import sys
import time

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


def package_env():
    """os.environ with PYTHONPATH led by the root of the package this
    process imported, so that a child interpreter imports the same one
    whether it is installed or on pytest's path."""
    package_root = os.path.dirname(os.path.dirname(cli.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (package_root, os.environ.get("PYTHONPATH")))))


@pytest.mark.parametrize("argv, code", [
    (["count", "sphere", "--at", "6"], 0),
    (["conjecture", "flat_torus_rect:a=1,b=1/20", "--seed", "3"], 1),
    (["gprofile", "sphere", "--grid", "1/4:2:11"], 2),
    (["avg", "sphere", "--grid", "1:1e5:100000"], 0),  # 100001 lines
], ids=["count", "conjecture-fail", "usage", "dump"])
def test_count_example_subprocess(capsys, argv, code):
    # the process entry point freezes the heap before exit: every byte of
    # stdout still reaches the pipe, with the status main() returns, and
    # main() called in-process leaves the collector as it found it
    proc = subprocess.run([sys.executable, "-m", "spectralab.cli", *argv],
                          capture_output=True, text=True, env=package_env())
    frozen = gc.get_freeze_count()
    rc, out, _ = run_cli(capsys, *argv)
    assert gc.get_freeze_count() == frozen
    assert (proc.returncode, proc.stdout) == (rc, out)
    assert rc == code
    if argv[0] == "count":
        assert out == "t,count,closed_form\n6,9,9\n"


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
        return oracle.EquivalenceReport(spec.label(), 5, 1, False,
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
    vals, _ = spectrum.level_arrays(catalog.flat_torus_rect(1, 1), 50)
    assert len(body) == len(want)
    for row, (key, mult), value in zip(body, want, vals.tolist()):
        assert float(row[0]) == value
        assert row[1] == str(key)
        assert int(row[2]) == mult


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


def test_avg_grid_matches_numpy():
    # the linear grid is np.linspace's bit for bit; the log grid keeps its
    # ends, and its inner points differ from np.geomspace's only where libm
    # and numpy round log10 and pow differently
    rng = np.random.default_rng(3)
    for _ in range(200):
        lo = 10 ** rng.uniform(-2, 5)
        hi = lo * 10 ** rng.uniform(0.01, 3)
        n = int(rng.integers(1, 500))
        assert cli._grid(lo, hi, n, False) == np.linspace(lo, hi, n).tolist()
        ts = cli._grid(lo, hi, n, True)
        assert ts[0] == lo and ts[-1] == (hi if n > 1 else lo)
        assert np.allclose(ts, np.geomspace(lo, hi, n), rtol=1e-13, atol=0)


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


def test_heat_retries_only_a_short_cutoff(capsys, monkeypatch):
    # heat doubles its cutoff only while the tail bound is too large; a
    # refused table (keys beyond int64 at cutoff 64) or a violated count
    # envelope ends the command at once with exit 1
    rc, out, err = run_cli(capsys, "heat", "flat_torus_rect:a=10000000019/10000000000,b=1",
                           "--at", "1")
    assert (rc, out) == (1, "")
    assert "do not fit int64" in err and "usage:" not in err
    cutoffs = []
    level_arrays = spectrum.level_arrays

    def inflated(spec, cut):
        cutoffs.append(cut)
        vals, mults = level_arrays(spec, cut)
        return vals, mults * 1000

    monkeypatch.setattr(spectrum, "level_arrays", inflated)
    rc, out, err = run_cli(capsys, "heat", "sphere", "--at", "0.1")
    assert (rc, out) == (1, "")
    assert "envelope violated" in err
    assert cutoffs == [64.0]


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


def _readme_usage_lines():
    path = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(path, encoding="utf-8") as fh:
        blocks = fh.read().split("```")[1::2]
    usage = [b for b in blocks if "\nspectralab list\n" in b]
    assert len(usage) == 1
    return [line for line in usage[0].splitlines() if line.startswith("spectralab ")]


def test_readme_usage_lines_run(capsys):
    lines = _readme_usage_lines()
    assert len(lines) >= 11
    for line in lines:
        rc, _, err = run_cli(capsys, *shlex.split(line)[1:])
        assert rc == 0, (line, err)


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
    # length and sha256 of the whole report, captured before the three
    # level-window samplers became one (now average.window_blocks)
    rc, out, _ = run_cli(capsys, "conjecture", "sphere")
    assert rc == 0
    assert out.rstrip().endswith("RESULT: PASS")
    assert "check freq" in out
    assert len(out.encode()) == 531
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "d69f1a6279954e8ac004b703b4dd311447cbdb7dc98d26cbfb0a89ebeb633385")
    rc, out, _ = run_cli(capsys, "conjecture", "flat_torus_rect:a=1,b=1")
    assert rc == 0
    assert out.rstrip().endswith("RESULT: PASS")
    assert len(out.encode()) == 625
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "5897177204b641bdbd410e60f1811d973fc30ceb54532459a15744cd7ab725c6")


def test_roster_passes_conjecture(capsys, monkeypatch):
    # the science checks on every family; each surface's tables are
    # dropped when it is done
    roster = catalog.verification_roster()
    assert len(roster) == 95
    monkeypatch.setattr(spectrum, "_TABLES", {})
    for spec in roster:
        spectrum._TABLES.clear()
        rc, out, _ = run_cli(capsys, "conjecture", spec.label(), "--seed", "3")
        assert rc == 0, spec.label()
        assert out.rstrip().endswith("RESULT: PASS"), spec.label()


def test_flat_conjecture_builds_its_table_once(capsys, monkeypatch):
    from spectralab import lattice

    builds = []
    grow = lattice._LevelTable.grow

    def counting_grow(self, qneed):
        before = self.qcap
        grow(self, qneed)
        if self.qcap != before:
            builds.append(self.spec)

    monkeypatch.setattr(lattice._LevelTable, "grow", counting_grow)
    monkeypatch.setattr(spectrum, "_TABLES", {})
    rc, _, _ = run_cli(capsys, "conjecture", "flat_torus_rect:a=1,b=1")
    assert rc == 0
    # the surface's own table, and the dual torus the geodesic lengths
    # read, each built once
    assert builds == [catalog.flat_torus_rect(1, 1), catalog.flat_torus_rect(0.5, 0.5)]


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
    # a zero denominator in a surface parameter is malformed input too
    rc, out, err = run_cli(capsys, "count", "rectangle:a=1/0,b=1,bc=N", "--at", "6")
    assert rc == 2
    assert out == ""
    assert "must be rational" in err
    assert "usage:" in err


def test_bad_grid_is_usage_error(capsys):
    rc, _, err = run_cli(capsys, "avg", "sphere", "--grid", "100:1:5")
    assert rc == 2
    assert "ascending" in err
    rc, _, err = run_cli(capsys, "avg", "sphere", "--grid", "1:100")
    assert rc == 2
    assert "lo:hi:n" in err
    # a zero denominator is a bad number, not a failed check
    for argv in (["avg", "sphere", "--grid", "1/0:10:5"],
                 ["freq", "sphere", "--window", "0/0:200", "--omega", "5:8:301"]):
        rc, out, err = run_cli(capsys, *argv)
        assert rc == 2
        assert out == ""
        assert "expected a number" in err
        assert "usage:" in err
    # grids past 1e6 points are refused before any array is made
    for argv in (["avg", "sphere", "--grid", "1:10:200000000"],
                 ["gprofile", "sphere", "--grid", "1:1000:200000000"],
                 ["freq", "sphere", "--window", "100:200", "--omega", "1:2:200000000"]):
        rc, out, err = run_cli(capsys, *argv)
        assert rc == 2
        assert out == ""
        assert "1000000" in err
        assert "usage:" in err


@pytest.mark.parametrize("argv", [
    ["spectrum", "sphere", "--max-t", "1e400"],
    ["count", "sphere", "--at", "10,1e400"],
    ["verify", "sphere", "--max-t", "1e400"],
    ["avg", "sphere", "--grid", "1:1e400:3"],
    ["gprofile", "sphere", "--grid", "1:1e400:3"],
    ["freq", "sphere", "--window", "1:1e400", "--omega", "5:8:301"],
    ["heat", "sphere", "--at", "1e400"],
    ["proportions", "square_n", "--max-t", "1e400"],
], ids=lambda argv: argv[0])
def test_number_beyond_float_range_is_usage_error(capsys, argv):
    # 1e400 is no float: a usage error, not a failed check
    rc, out, err = run_cli(capsys, *argv)
    assert rc == 2
    assert out == ""
    assert "expected a finite number, got '1e400'" in err
    assert "usage:" in err


@pytest.mark.parametrize("argv, named", [
    (["count", "pentagon", "--at", "6"], "argument spec: unknown surface family"),
    (["spectrum", "sphere", "--max-t", "1e400"],
     "argument --max-t: expected a finite number, got '1e400'"),
    (["count", "sphere", "--at", "6,x"], "argument --at: expected a number, got 'x'"),
    (["avg", "sphere", "--grid", "100:1:5"],
     "argument --grid: must be positive and ascending, got '100:1:5'"),
    (["freq", "sphere", "--window", "1:2:3", "--omega", "5:8:301"],
     "argument --window: must be lo:hi, got '1:2:3'"),
    (["freq", "sphere", "--window", "100:200", "--omega", "5:8:x"],
     "argument --omega: n must be an integer, got 'x'"),
    (["avg", "sphere"], "the following arguments are required: --grid"),
    (["bogus"], "argument command: invalid choice: 'bogus'"),
], ids=["surface", "max-t", "at", "grid", "window", "omega", "missing", "command"])
def test_argument_error_is_returned_with_its_usage(capsys, argv, named):
    # the parser refuses every bad argument before a command runs, and
    # main returns its status rather than raising SystemExit
    rc, out, err = run_cli(capsys, *argv)
    assert rc == 2
    assert out == ""
    assert named in err
    assert "usage: spectralab " + ("" if argv[0] == "bogus" else argv[0]) in err


@pytest.mark.parametrize("argv", [["-h"], ["count", "-h"]], ids=["top", "count"])
def test_help_is_returned_as_success(capsys, argv):
    rc, out, err = run_cli(capsys, *argv)
    assert rc == 0
    assert out.startswith("usage: spectralab ")
    assert err == ""


@pytest.mark.parametrize("argv", [
    ["count", "rectangle:a=1e400,b=1,bc=N", "--at", "1"],
    ["verify", "cylinder:a=1e400,b=1,bc=N", "--max-t", "10"],
    ["avg", "flat_torus_rect:a=1e400,b=1", "--grid", "1:10:3"],
    ["spectrum", "mobius_band:a=1,b=1e400,bc=N", "--max-t", "10"],
], ids=lambda argv: argv[0])
def test_side_beyond_float_range_is_usage_error(capsys, argv):
    rc, out, err = run_cli(capsys, *argv)
    assert rc == 2
    assert out == ""
    assert "must be within the float range, got '1e400'" in err
    assert "usage:" in err


@pytest.mark.parametrize("argv, err", [
    (["asymptotics"], "constant beyond the float range"),
    (["heat", "--at", "1"], "constant beyond the float range"),
    (["freq", "--window", "100:200", "--omega", "5:8:301"],
     "constant beyond the float range"),
    (["gprofile", "--grid", "100:200:11"], "over the cap"),
], ids=["asymptotics", "heat", "freq", "gprofile"])
def test_constant_beyond_float_range_is_usage_error(capsys, argv, err):
    # an area of 1e400 has no float constants: a usage error, not a
    # failed run
    rc, out, captured = run_cli(capsys, argv[0], "rectangle:a=1e200,b=1e200,bc=N",
                                *argv[1:])
    assert rc == 2
    assert out == ""
    assert err in captured and "usage:" in captured


@pytest.mark.parametrize("label", [
    "rectangle:a=1e-300,b=1e-300,bc=N",
    "flat_torus_rect:a=1e-300,b=1e-300",
    "mobius_band:a=1e-300,b=1e-300,bc=N",
    "cylinder:a=1e-300,b=1e-300,bc=N",
    "right_iso_triangle:a=1e-300,bc=N",
    "rectangle:a=1e-200,b=1e-200,bc=N",
])
def test_key_unit_beyond_float_range_answers(capsys, label):
    # tiny sides give a key unit past the float range, so key 0 is the
    # only level below a float cutoff: the commands answer from it, and
    # conjecture is refused at the cap by the dual torus its geodesic
    # lengths read; none ends in an internal error
    for argv in (["avg", "--grid", "1:2:3"], ["gprofile", "--grid", "100:200:11"],
                 ["heat", "--at", "1"],
                 ["freq", "--window", "100:200", "--omega", "5:8:301"]):
        rc, out, err = run_cli(capsys, argv[0], label, *argv[1:])
        assert (rc, err) == (0, "")
        assert "nan" not in out and "inf" not in out
        if argv[0] == "avg" and label.startswith("rectangle:a=1e-200"):
            assert out.splitlines()[1] == "1,0.75,1,0.75"
    rc, out, err = run_cli(capsys, "conjecture", label)
    assert rc == 2
    assert out == ""
    assert "over the cap" in err and "usage:" in err
    # both averaged-error engines read the same level values
    spec = cli.parse_surface(label)
    ts = [1.0, 1.5, 2.0, 1e6]
    assert average.avg_error_list(spec, ts) == average.avg_error_grid(spec, ts).tolist()


def test_level_budget_guard(capsys, monkeypatch):
    # every table is held to the cap by its bound where it grows, and the
    # refusal names the surface, the cutoff, the bound and the cap; this
    # rectangle has over 2^16 rows at 1e8, which are refused unsummed
    rc, _, err = run_cli(capsys, "spectrum", "rect:a=40,b=40,bc=N",
                         "--max-t", "1e8")
    assert rc == 2
    assert ("rectangle:a=40,b=40,bc=N has over 65536 rows of levels "
            "below 1e+08, over the cap of 2.5e+07") in err

    # verify is refused before it enumerates anything
    def enumerate_anyway(*args, **kwargs):
        raise AssertionError("verify enumerated an over-budget cutoff")

    monkeypatch.setattr(oracle, "brute_levels", enumerate_anyway)
    rc, out, err = run_cli(capsys, "verify", "rectangle:a=1,b=1,bc=N", "--max-t", "1e9")
    assert rc == 2
    assert out == ""
    assert "rectangle:a=1,b=1,bc=N may have up to" in err and "over the cap" in err
    # count is refused at its largest time, before it prints anything
    rc, out, err = run_cli(capsys, "count", "rect:a=40,b=40,bc=N", "--at", "10,1e8")
    assert rc == 2
    assert out == ""
    assert "below 1e+08, over the cap" in err
    # proportions is refused at its first sector table past the cap
    rc, out, err = run_cli(capsys, "proportions", "square_n", "--max-t", "1e10")
    assert rc == 2
    assert out == ""
    assert "symmetry_sector:base=square_n" in err and "over the cap" in err
    assert "usage:" in err
    # an area beyond the float range is over any cap
    rc, out, err = run_cli(capsys, "count", "rectangle:a=1e200,b=1e200,bc=N", "--at", "1")
    assert rc == 2
    assert out == ""
    assert "over the cap" in err and "usage:" in err


@pytest.mark.parametrize("label", [
    "rectangle:a=100000,b=1/100000,bc=N", "rectangle:a=1/100000,b=100000,bc=N",
])
def test_thin_rectangle_answers_in_either_orientation(label, capsys, monkeypatch):
    # 2013169 eigenvalues below 4000, all of them modes along the long
    # side: its table lays its rows along the short side, whichever it is
    monkeypatch.setattr(spectrum, "_TABLES", {})
    rc, out, err = run_cli(capsys, "count", label, "--at", "4000")
    assert (rc, err) == (0, "")
    assert out == "t,count,closed_form\n4000,2013169,2013169\n"


@pytest.mark.parametrize("argv", [
    ["rectangle:a=1e200,b=1e200,bc=N", "--at", "1"],
    ["right_iso_triangle:a=1e200,bc=N", "--at", "1"],
    ["symmetry_sector:base=square_n,irrep=2", "--at", "1e40"],
    ["flat_torus_hex", "--at", "1e30"],
], ids=lambda argv: argv[0].split(":")[0])
def test_astronomically_long_rows_are_refused(argv, capsys, monkeypatch):
    # rows of more entries than sys.maxsize, more rows than the bound
    # sums: refused at the cap at once, with no row expanded
    monkeypatch.setattr(spectrum, "_TABLES", {})
    start = time.perf_counter()
    rc, out, err = run_cli(capsys, "count", *argv)
    assert time.perf_counter() - start < 1.0
    assert (rc, out) == (2, "")
    assert "has over 65536 rows of levels below" in err and "over the cap" in err


ROWS_CAP = 3000  # eigenvalues: each surface below fits, a torus it reads does not


@pytest.mark.parametrize("label", [
    "rectangle:a=1,b=1,bc=MM", "right_iso_triangle:a=1,bc=MD",
    "mobius_band:a=1,b=1,bc=N", "symmetry_sector:base=square_n,irrep=2",
])
def test_over_cap_closed_form_term_is_counted_by_rows(label, capsys, monkeypatch):
    # with the cap lowered, the surface's own table (at most 1613
    # eigenvalues below 2e4) fits it, but its closed form reads tori of up
    # to 25477 there: a torus term over the cap is counted by rows rather
    # than refused, its table stays under the cap, and both columns are
    # the enumerated prefix
    monkeypatch.setattr(spectrum, "_TABLES", {})
    monkeypatch.setattr(spectrum, "_LEVEL_CAP", ROWS_CAP)
    spec = catalog.parse_spec(label)
    brute = oracle.brute_levels(spec, 20000)
    prefix = list(itertools.accumulate(m for _, m in brute))
    rng = random.Random(26)
    over = 0
    for _ in range(40):
        i = rng.randrange(len(brute) // 2, len(brute) - 1)
        jump = rng.random() < 0.5
        rho = brute[i][0] if jump else (brute[i][0] + brute[i + 1][0]) / 2
        rep = spectrum.closed_form_identity(spec, spectrum.ExactTime(rho))
        assert rep.count == rep.closed_form == prefix[i], (rho, rep)
        form = spectrum._table(spec).form
        _, ks = form.ints(rho.numerator, rho.denominator)
        over += any(sub is not None and sub.qcap < k for (_, sub), k in zip(form.weights, ks))
    assert over
    assert all(int(tb.prefix[-1]) <= ROWS_CAP for tb in spectrum._TABLES.values())
    # the CLI answers too, where it refused a torus over the cap before
    rc, out, err = run_cli(capsys, "count", label, "--at", "2e4")
    assert rc == 0 and err == ""
    assert out == f"t,count,closed_form\n20000,{prefix[-1]},{prefix[-1]}\n"


THIN = "rectangle:a=1/1000000,b=1000000,bc=N"


@pytest.mark.parametrize("argv", [
    ["count", THIN, "--at", "30000"],
    ["spectrum", THIN, "--max-t", "30000"],
    ["avg", THIN, "--grid", "1:30000:11"],
    ["verify", THIN, "--max-t", "30000"],
], ids=lambda argv: argv[0])
def test_thin_surface_is_refused_at_once(capsys, argv):
    # the boundary term b sqrt(t) / pi outweighs the area term a hundredfold
    # here: the bound counts it, and 55132890 levels are never built
    start = time.perf_counter()
    rc, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert rc == 2
    assert out == ""
    assert f"{THIN} may have up to 55132890 eigenvalues" in err


@pytest.mark.parametrize("argv", [
    ["count", "rectangle:a=1e-200,b=1e200,bc=N", "--at", "1"],
    ["spectrum", "rectangle:a=1e-200,b=1e200,bc=N", "--max-t", "1"],
    ["asymptotics", "rectangle:a=1e-200,b=1e200,bc=N"],
], ids=lambda argv: argv[0])
def test_side_ratio_beyond_float_range_is_usage_error(capsys, argv):
    # the closed form counts on a torus of side ratio 1e400: the sides are
    # refused as given, not that torus
    rc, out, err = run_cli(capsys, *argv)
    assert rc == 2
    assert out == ""
    assert "a=1e-200 and b=1e200 are too far apart" in err
    assert "usage:" in err


def test_unknown_base_usage_error(capsys):
    rc, _, err = run_cli(capsys, "proportions", "pentagon", "--max-t", "1e4")
    assert rc == 2
    assert "unknown sector base" in err


def test_csv_quotes_labels_with_commas(capsys):
    _, out, _ = run_cli(capsys, "list")
    assert '"flat_torus_rect:a=1,b=1"' in out


def test_csv_columns_of_mixed_kinds_format_cell_by_cell(capsys):
    # a column holding floats and ints (or bools) cannot share one
    # %-format; each cell then prints as a lone value would
    cli.emit([{"x": [0.1, 2], "n": [1, 2], "b": [True, False],
               "s": [3, 'say "a,b"']}], "csv")
    assert capsys.readouterr().out == (
        'x,n,b,s\n0.10000000000000001,1,True,3\n2,2,False,"say ""a,b"""\n')
    cli.emit([{"x": [], "n": []}], "csv")
    assert capsys.readouterr().out == "x,n\n"


def test_chunks_write_one_table(capsys):
    # the header once, then each chunk as it comes; empty chunks add nothing
    chunks = [{"k": [1, 2], "v": ["a", "b"]}, {"k": [], "v": []},
              {"k": [3], "v": ["c"]}]
    cli.emit(chunks, "csv")
    assert capsys.readouterr().out == "k,v\n1,a\n2,b\n3,c\n"
    cli.emit(chunks, "json")
    assert capsys.readouterr().out == json.dumps(
        [{"k": 1, "v": "a"}, {"k": 2, "v": "b"}, {"k": 3, "v": "c"}]) + "\n"
    cli.emit([{"k": [], "v": []}], "json")
    assert capsys.readouterr().out == "[]\n"


# --- golden bytes: stdout captured from the commit before the CSV writer
# formatted whole rows at once (proportions hex_torus: from the commit
# before the level-window samplers became one, now average.window_blocks;
# count lune and spectrum sphere: from the commit before round tables
# became window-count lists; the half lunes and proportions square_n at
# 1e5: from the commit before the decay fit and the sector fit read
# window_blocks) ---

GOLDEN = {
    ("count", "rectangle:a=3/2,b=1,bc=NM", "--at", "100,7/3,1e3"):
        "t,count,closed_form\n"
        "100,13,13\n"
        "2.3333333333333335,0,0\n"
        "1000,125,125\n",
    ("spectrum", "rectangle:a=3/2,b=1,bc=NM", "--max-t", "40"):
        "value,key,multiplicity\n"
        "2.4674011002723395,1/4,1\n"
        "6.8538919452009432,25/36,1\n"
        "20.013364479986752,73/36,1\n"
        "22.206609902451056,9/4,1\n"
        "26.593100747379662,97/36,1\n"
        "39.752573282165471,145/36,1\n",
    ("spectrum", "rectangle:a=3/2,b=1,bc=NM", "--max-t", "40", "--format", "json"):
        '[{"value": 2.4674011002723395, "key": "1/4", "multiplicity": 1}, '
        '{"value": 6.853891945200943, "key": "25/36", "multiplicity": 1}, '
        '{"value": 20.013364479986752, "key": "73/36", "multiplicity": 1}, '
        '{"value": 22.206609902451056, "key": "9/4", "multiplicity": 1}, '
        '{"value": 26.593100747379662, "key": "97/36", "multiplicity": 1}, '
        '{"value": 39.75257328216547, "key": "145/36", "multiplicity": 1}]\n',
    ("spectrum", "hemisphere:bc=D", "--max-t", "30", "--format", "json"):
        '[{"value": 2.0, "key": 1, "multiplicity": 1}, '
        '{"value": 6.0, "key": 2, "multiplicity": 2}, '
        '{"value": 12.0, "key": 3, "multiplicity": 3}, '
        '{"value": 20.0, "key": 4, "multiplicity": 4}, '
        '{"value": 30.0, "key": 5, "multiplicity": 5}]\n',
    # an empty table still prints its header
    ("spectrum", "rectangle:a=1,b=1,bc=D", "--max-t", "1"):
        "value,key,multiplicity\n",
    ("spectrum", "rectangle:a=1,b=1,bc=D", "--max-t", "1", "--format", "json"):
        "[]\n",
    ("avg", "sphere", "--grid", "1:10:4"):
        "t,avg,gx,g_est\n"
        "1,0.16666666666666674,1.1180339887498949,0.16666666666666674\n"
        "4,0.16666666666666652,2.0615528128088303,0.16666666666666652\n"
        "7,0.023809523809523978,2.6925824035672519,0.023809523809523978\n"
        "10,0.06666666666666643,3.2015621187164243,0.06666666666666643\n",
    ("avg", "flat_torus_rect:a=1,b=1", "--grid", "10:1000:3", "--log"):
        "t,avg,gx,g_est\n"
        "10,-0.53939119135469671,3.1622776601683795,-0.95918824954242177\n"
        "100,-0.23383981554255115,10,-0.73946642474810409\n"
        "1000,-0.16168911821834628,31.622776601683793,-0.90924473007763862\n",
    # the list route (average.avg_error_list) on a rational shape and on a
    # round surface with a log grid
    ("avg", "rectangle:a=13/11,b=11/5,bc=ND", "--grid", "10:400:5"):
        "t,avg,gx,g_est\n"
        "10,-0.060076615361281505,3.1622776601683795,-0.10683300812179496\n"
        "107.5,-0.026225918356251283,10.36822067666386,-0.084446726837019259\n"
        "205,0.022511926391913531,14.317821063276353,0.085182645811070962\n"
        "302.5,0.027928354982836297,17.392527130926087,0.11647338590410136\n"
        "400,0.03249719029944572,20,0.14533185317461475\n",
    ("avg", "lune:m=3,bc=D", "--grid", "2:2000:5", "--log"):
        "t,avg,gx,g_est\n"
        "2,0.09722222222222221,1.5,0.09722222222222221\n"
        "11.246826503806982,-0.06336235612446213,3.3906970527912077,-0.06336235612446213\n"
        "63.245553203367592,0.03839833531992505,7.9684097035335473,0.03839833531992505\n"
        "355.65588200778461,0.01349568929093199,18.86546797743922,0.01349568929093199\n"
        "2000,0.0054497445372981021,44.724154547626725,0.0054497445372981021\n",
    ("count", "lune:m=2,bc=N", "--at", "100,7/3,1e5"):
        "t,count,closed_form\n"
        "100,30,30\n"
        "2.3333333333333335,2,2\n"
        "100000,25122,25122\n",
    ("spectrum", "sphere", "--max-t", "30"):
        "value,key,multiplicity\n"
        "0,0,1\n"
        "2,1,3\n"
        "6,2,5\n"
        "12,3,7\n"
        "20,4,9\n"
        "30,5,11\n",
    ("proportions", "square_torus", "--max-t", "1e3"):
        "irrep,measured,predicted,b_sign,b_hat\n"
        "++,0.18518518518518517,0.125,1,0.15218324652383114\n"
        "+-,0.1111111111111111,0.125,-1,-0.029600875599398703\n"
        "-+,0.13580246913580246,0.125,1,0.014222293446043199\n"
        "--,0.07407407407407407,0.125,-1,-0.11950932570264421\n"
        "2,0.49382716049382713,0.5,0,-0.03083941445832717\n",
    ("proportions", "hex_torus", "--max-t", "1e3"):
        "irrep,measured,predicted,b_sign,b_hat\n"
        "+,0.20603015075376885,0.16666666666666666,1,0.2549670520499559\n"
        "-,0.1306532663316583,0.16666666666666666,-1,-0.22275706950954835\n"
        "2,0.66331658291457285,0.66666666666666663,0,-0.031828624649677985\n",
    # the Moebius cover translates by (ma, nb) with m = n mod 2: every top
    # peak sits at a length of that lattice
    ("conjecture", "mobius_band:a=1,b=1,bc=D"):
        "label: mobius_band:a=1,b=1,bc=D\n"
        "check mean [100,200]: -0.00509402 within 0.05 -> ok\n"
        "check mean [200,400]: -0.000129233 within 0.025 -> ok\n"
        "check mean [400,800]: +0.000109858 within 0.0125 -> ok\n"
        "check decay: scaled sups per decade 0.828396 0.913107 0.925037 0.933658, "
        "first/last ratio 1.12707 within 2 -> ok\n"
        "check probes (seed 0): worst scaled residual 0.837799 within 1.40049 -> ok\n"
        "freq top peaks: 1.41 2 2.83 3.16 4 4.47 5.1 5.83\n"
        "geodesic lengths: 1 1.41421 2 2.82843 3 3.16228 4 4.24264 4.47214 5 5.09902 "
        "5.65685 5.83095 6 6.32456 7 7.07107 7.2111 7.61577 8 8.24621 8.48528 8.60233 "
        "8.94427 9 9.05539 9.48683 9.89949 10\n"
        "freq matched 8 of 8 top peaks\n"
        "freq comparison: report only for this surface\n"
        "RESULT: PASS\n",
    # the lengths are the lines of the closed form: the unfolding lattice
    # 2aZ^2 and the bouncing orbits, with no line at sqrt10
    ("conjecture", "right_iso_triangle:a=1,bc=N", "--seed", "3"):
        "label: right_iso_triangle:a=1,bc=N\n"
        "check mean [100,200]: -0.000486859 within 0.05 -> ok\n"
        "check mean [200,400]: -0.000247649 within 0.025 -> ok\n"
        "check mean [400,800]: +8.9798e-05 within 0.0125 -> ok\n"
        "check decay: scaled sups per decade 0.250735 0.211167 0.206621 0.207863, "
        "first/last ratio 1.20625 within 2 -> ok\n"
        "check probes (seed 3): worst scaled residual 0.161656 within 0.376103 -> ok\n"
        "freq top peaks: 1.41 2 2.83 4 4.47 6 6.32 7.21\n"
        "geodesic lengths: 1.41421 2 2.82843 4 4.24264 4.47214 5.65685 6 6.32456 "
        "7.07107 7.2111 8 8.24621 8.48528 8.94427 9.89949 10\n"
        "freq matched 8 of 8 top peaks\n"
        "freq comparison: report only for this surface\n"
        "RESULT: PASS\n",
    # the decay line is remainder_exponent's fit, without a sawtooth on
    # m = 3 and with one of weight -1/4 on m = 2 (`_alternating_weight`)
    ("conjecture", "half_lune:m=3,bc_side=N,bc_equator=D", "--seed", "3"):
        "label: half_lune:m=3,bc_side=N,bc_equator=D\n"
        "check mean [100,200]: -1.0577e-05 within 0.05 -> ok\n"
        "check mean [200,400]: -1.37646e-05 within 0.025 -> ok\n"
        "check mean [400,800]: -6.99527e-05 within 0.0125 -> ok\n"
        "check decay: exponent -0.474157 in [-0.65,-0.35] -> ok\n"
        "check probes (seed 3): worst scaled residual 0.044187 within 0.0914598 -> ok\n"
        "freq top peaks: 6.12 6.2 6.28 6.38 6.44 6.5 12.56 18.86\n"
        "geodesic lengths: 2.0944 4.18879 6.28319 8.37758 10.472 12.5664 14.6608 "
        "16.7552 18.8496 20.944 23.0383 25.1327 27.2271 29.3215\n"
        "freq matched 3 of 8 top peaks\n"
        "freq comparison: report only for this surface\n"
        "RESULT: PASS\n",
    ("conjecture", "half_lune:m=2,bc_side=N,bc_equator=D", "--seed", "3"):
        "label: half_lune:m=2,bc_side=N,bc_equator=D\n"
        "check mean [100,200]: -6.46203e-06 within 0.05 -> ok\n"
        "check mean [200,400]: -2.60698e-05 within 0.025 -> ok\n"
        "check mean [400,800]: -0.000104253 within 0.0125 -> ok\n"
        "check decay: exponent -0.505395 in [-0.65,-0.35] -> ok\n"
        "check probes (seed 3): worst scaled residual 0.0184569 within 0.0289542 -> ok\n"
        "freq top peaks: 2.92 2.98 3.06 3.14 3.24 3.3 6.28 9.42\n"
        "geodesic lengths: 3.14159 6.28319 9.42478 12.5664 15.708 18.8496 21.9911 "
        "25.1327 28.2743\n"
        "freq matched 3 of 8 top peaks\n"
        "freq comparison: report only for this surface\n"
        "RESULT: PASS\n",
    # the sector fit over the windows of a 1e5 table
    ("proportions", "square_n", "--max-t", "1e5"):
        "irrep,measured,predicted,b_sign,b_hat\n"
        "++,0.12912428677747456,0.125,1,0.13827921765327264\n"
        "+-,0.12552716447531631,0.125,1,0.056976832509072907\n"
        "-+,0.12465889357479534,0.125,1,0.023321624589394914\n"
        "--,0.12106177127263706,0.125,-1,-0.055567768419358197\n"
        "2,0.49962788389977675,0.5,1,0.16121653976572739\n",
}


@pytest.mark.parametrize("argv", list(GOLDEN), ids=" ".join)
def test_stdout_matches_golden_bytes(capsys, argv):
    rc, out, _ = run_cli(capsys, *argv)
    assert rc == 0
    assert out == GOLDEN[argv]


def test_list_matches_golden_bytes(capsys):
    rc, out, _ = run_cli(capsys, "list")
    assert rc == 0
    assert out.startswith(
        "label,family,curvature\n"
        '"flat_torus_rect:a=1,b=1",flat_torus_rect,flat\n'
        '"flat_torus_rect:a=2,b=3/2",flat_torus_rect,flat\n'
        "flat_torus_hex,flat_torus_hex,flat\n"
        '"rectangle:a=1,b=1,bc=N",rectangle,flat\n')
    assert "\nequilateral_triangle:bc=N,equilateral_triangle,flat\n" in out
    assert len(out.encode()) == 4857
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "fa93f029d4ac0b30fde63ddb0402e46268b4b5599d56e21179387800395927b9")


# `spectrum` of a torus whose 80685 levels take two chunks: (bytes, sha256)
# of the stdout the row-dict writer printed
SPECTRUM_1E6 = {
    "csv": (2960626,
            "5abd6214d1a223f02ea815dde6c7093ee6d72ba37915e8d5c57576ab7d9afb96"),
    "json": (6048737,
             "d88c0803dd8cfec3008dba79aa7ffff81ff0f0d57e662336faa7ff462fb415f1"),
}


@pytest.mark.parametrize("fmt", sorted(SPECTRUM_1E6))
def test_chunked_spectrum_matches_golden_bytes(capsys, fmt):
    rc, out, _ = run_cli(capsys, "spectrum", "flat_torus_rect:a=101/100,b=1",
                         "--max-t", "1e6", "--format", fmt)
    assert rc == 0
    assert out.count("\n" if fmt == "csv" else "{") == 80685 + (fmt == "csv")
    data = out.encode()
    assert (len(data), hashlib.sha256(data).hexdigest()) == SPECTRUM_1E6[fmt]


# `spectrum` of a round surface with 998 levels: (bytes, sha256) of the
# stdout printed when round tables were int64 arrays; JSON would show a
# multiplicity that is not a Python int
ROUND_1E6 = {
    "csv": (13788,
            "50b4374a8ddbb363021648c6108de116ee9be6e60543c6706302b34c6f524e6d"),
    "json": (52688,
             "6ef6e6335afc5234d461f590aafc444511d898c769b58b2e455cecd77d5ea0d6"),
}


@pytest.mark.parametrize("fmt", sorted(ROUND_1E6))
def test_round_spectrum_matches_golden_bytes(capsys, fmt):
    rc, out, _ = run_cli(capsys, "spectrum", "half_lune:m=3,bc_side=N,bc_equator=D",
                         "--max-t", "1e6", "--format", fmt)
    assert rc == 0
    assert out.count("\n" if fmt == "csv" else "{") == 998 + (fmt == "csv")
    data = out.encode()
    assert (len(data), hashlib.sha256(data).hexdigest()) == ROUND_1E6[fmt]


def peak_rss_mb(*argv):
    """Peak RSS in MB of a fresh CLI run under a 1 GiB address-space limit,
    stdout discarded; the run must exit 0."""
    import resource

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    with subprocess.Popen([sys.executable, "-m", "spectralab.cli", *argv],
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          env=package_env(), preexec_fn=limit) as proc:
        err = proc.stderr.read()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    assert proc.returncode == 0, err
    return usage.ru_maxrss / 1024


def test_spectrum_memory_stays_near_the_table():
    # 805k levels: the chunked dump holds little beyond the table that
    # `count` holds (the row-dict writer held 511 MB more)
    spec = "flat_torus_rect:a=101/100,b=1"
    dump = peak_rss_mb("spectrum", spec, "--max-t", "1e7")
    table = peak_rss_mb("count", spec, "--at", "1e7")
    assert dump <= table + 16, (dump, table)


# --- what each command loads ---

_LOADED = """
import sys
before = set(sys.modules)
import contextlib, io, json
import spectralab.cli
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), \\
            contextlib.redirect_stderr(io.StringIO()):
        code = spectralab.cli.main(argv)
    assert code == 0, (argv, code)
print(json.dumps(sorted(m for m in sys.modules if m.startswith("spectralab.")
                        or m in ("numpy", "numpy.ma")
                        or m in ("dataclasses", "inspect", "typing")
                        and m not in before)))
"""

# modules whose import costs a command milliseconds of start-up: the
# package's value classes are namedtuples and frozen __slots__ classes
_HEAVY = {"dataclasses", "inspect", "typing"}


def loaded_modules(*argvs):
    """spectralab modules (named without the package), numpy and numpy.ma
    that a fresh interpreter holds after importing the CLI and running each
    argv in turn (nothing more when there is none), and those of _HEAVY
    that it did not hold at start-up."""
    proc = subprocess.run([sys.executable, "-c", _LOADED, json.dumps(argvs)],
                          capture_output=True, text=True, env=package_env())
    assert proc.returncode == 0, proc.stderr
    return {m.removeprefix("spectralab.") for m in json.loads(proc.stdout)}


def test_each_command_loads_only_what_it_calls():
    assert loaded_modules() == {"catalog", "exact", "spectrum", "cli"}
    assert loaded_modules(["list"]) == {"catalog", "exact", "spectrum", "cli"}
    count = loaded_modules(["count", "rectangle:a=1,b=1,bc=N", "--at", "100,1e3"])
    assert count.isdisjoint({"oracle", "analysis", "average"} | _HEAVY)
    assert "asymptotics" not in count  # the level bound reads no constants
    # a flat table this small is summed on Python integers
    assert "lattice" in count and "numpy" not in count
    verify = loaded_modules(["verify", "lune:m=2,bc=N", "--max-t", "1e4"])
    assert verify.isdisjoint({"analysis", "average"} | _HEAVY)
    assert "oracle" in verify and "asymptotics" not in verify
    # round surfaces are counted on Python integers
    assert verify.isdisjoint({"lattice", "numpy"})
    sector = ["spectrum", "symmetry_sector:base=hex_torus,irrep=2", "--max-t", "100"]
    assert "asymptotics" not in loaded_modules(sector)
    for argv in (["asymptotics", "sphere"], ["asymptotics", "rectangle:a=1,b=1,bc=MM"],
                 ["count", "sphere", "--at", "100,1e5"],
                 ["spectrum", "hemisphere:bc=D", "--max-t", "1e4"],
                 ["gprofile", "sphere", "--grid", "100:200:8001"]):
        assert loaded_modules(argv).isdisjoint({"lattice", "numpy"} | _HEAVY), argv
    # np.unique and np.median would load numpy.ma; a round surface's
    # geodesic lengths need no lattice; numpy itself loads inspect
    assert loaded_modules(["conjecture", "sphere"]).isdisjoint(
        {"numpy.ma", "lattice", "dataclasses", "typing"})
    # `avg` sums a round table on a log grid in Python floats, but a short
    # grid over a table already on numpy on numpy
    avg = loaded_modules(["avg", "sphere", "--grid", "10:1e5:4001", "--log"])
    assert avg.isdisjoint({"numpy", "numpy.ma", "lattice", "analysis"} | _HEAVY)
    avg = loaded_modules(["avg", "rectangle:a=1,b=1,bc=N", "--grid", "1e6:1e7:5"])
    assert "numpy" in avg and avg.isdisjoint({"dataclasses", "typing"})


def test_round_roster_never_loads_numpy():
    argvs = []
    for spec in catalog.verification_roster():
        if catalog.is_spherical(spec):
            label = spec.label()
            argvs += [["verify", label, "--max-t", "1e4"],
                      ["count", label, "--at", "7/3,1e5"],
                      ["spectrum", label, "--max-t", "1e5", "--format", "json"]]
    assert len(argvs) == 3 * 36
    assert loaded_modules(*argvs).isdisjoint({"lattice", "numpy"})


def test_flat_roster_never_loads_numpy():
    # verify at 1e4 on every flat roster surface, and count and spectrum on
    # a rational shape as the shapes benchmark draws them (a key span of
    # about 1.6e7 at 7722), sum their tables in a dict
    argvs = [["verify", spec.label(), "--max-t", "1e4"]
             for spec in catalog.verification_roster() if not catalog.is_spherical(spec)]
    assert len(argvs) == 59
    shape = "rectangle:a=13/11,b=11/5,bc=ND"
    argvs += [["count", shape, "--at", "7722,2000,400"],
              ["spectrum", shape, "--max-t", "7722"],
              ["avg", shape, "--grid", "77.22:7722:4001"]]
    assert loaded_modules(*argvs).isdisjoint({"numpy", "numpy.ma"})
    # a grid longer than _PY_POINTS is summed on numpy
    assert "numpy" in loaded_modules(
        ["avg", shape, "--grid", f"77.22:7722:{average._PY_POINTS + 1}"])
    # a unit-shaped table at 1e7 is still numpy's
    assert "numpy" in loaded_modules(["count", "rectangle:a=1,b=1,bc=N", "--at", "1e7"])


_TRACER = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "perfbench", "tracer.py")


@pytest.mark.parametrize("argv, counter, amount", [
    (["conjecture", "sphere", "--seed", "1"], "analysis.fourier_coefficients.terms", None),
    (["verify", "sphere", "--max-t", "1e4", "--seed", "1"], "oracle.times_checked", 2000),
    (["freq", "sphere", "--window", "100:200", "--omega", "5:8:301"],
     "analysis.fourier_coefficients.terms", None),
], ids=["conjecture", "verify", "freq"])
def test_benchmark_tracer_reads_its_hooks(tmp_path, argv, counter, amount):
    # the benchmark's traced runs call cli.main in-process and read the
    # arguments and results of the functions they wrap: a signature those
    # hooks no longer fit fails every traced job
    out = tmp_path / "trace.json"
    proc = subprocess.run([sys.executable, _TRACER, str(out), *argv],
                          capture_output=True, text=True, env=package_env())
    assert proc.returncode == 0, proc.stderr
    counters = json.loads(out.read_text())["counters"]
    if amount is None:
        assert counters[counter] > 0
    else:
        assert counters[counter] == amount
