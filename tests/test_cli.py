import csv
import gc
import hashlib
import io
import itertools
import json
import math
import os
import random
import re
import shlex
import subprocess
import sys
import time

import numpy as np
import pytest

from spectralab import analysis, average, catalog, cli, oracle, spectrum


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


def test_closed_stdout_exits_quietly():
    # a reader that stops after one line (`| head -1`) closes the pipe
    # mid-dump: the process exits 1 with no traceback, at exit included
    with subprocess.Popen([sys.executable, "-m", "spectralab.cli", "avg", "sphere",
                           "--grid", "1:1e4:60000"], stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, env=package_env()) as proc:
        assert proc.stdout.readline() == b"t,avg,gx,g_est\n"
        proc.stdout.close()
        err = proc.stderr.read()
    assert (proc.returncode, err) == (1, b"")


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
        assert average.grid(lo, hi, n, False) == np.linspace(lo, hi, n).tolist()
        ts = average.grid(lo, hi, n, True)
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


def test_gprofile_matches_g_samples(capsys, monkeypatch):
    # the command prints average.profile, on either engine, to the bit
    monkeypatch.setattr(spectrum, "_TABLES", {})  # tables in array('q')
    for label, n in (("sphere", 21), ("rectangle:a=1,b=1,bc=N", 70001)):
        rc, out, _ = run_cli(capsys, "gprofile", label, "--grid", f"50:60:{n}")
        assert rc == 0
        _, body = parse_csv(out)
        xs, want = average.profile(catalog.parse_spec(label), 50.0, 60.0, n)
        assert isinstance(want, list) == (n <= average._PY_POINTS)
        assert [[float(v) for v in row] for row in body] == [*map(list, zip(xs, want))]


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
    assert header == ["irrep", "measured", "predicted", "two_term", "b_sign"]
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
    # refused table (keys beyond int64 at cutoff 64, exit 2) or a violated
    # count envelope (exit 1) ends the command at once
    rc, out, err = run_cli(capsys, "heat", "flat_torus_rect:a=10000000019/10000000000,b=1",
                           "--at", "1")
    assert (rc, out) == (2, "")
    assert "do not fit int64" in err and "below 64," in err
    cutoffs = []
    level_blocks = spectrum.level_blocks

    def inflated(spec, cut):
        cutoffs.append(cut)
        for (vals, n_pref, l_pref), edge in level_blocks(spec, cut):
            yield (vals, n_pref * 1000, l_pref), edge

    monkeypatch.setattr(spectrum, "level_blocks", inflated)
    rc, out, err = run_cli(capsys, "heat", "sphere", "--at", "0.1")
    assert (rc, out) == (1, "")
    assert "envelope violated" in err
    assert cutoffs == [64.0]


def test_heat_refusal_names_the_time_given(capsys, monkeypatch):
    # heat doubles its cutoff until the table refuses it: the refusal
    # names the time t the user gave before the cutoff the loop chose
    monkeypatch.setattr(spectrum, "_TABLES", {})
    monkeypatch.setattr(spectrum, "_LEVEL_CAP", 100000)
    rc, out, err = run_cli(capsys, "heat", UNIT, "--at", "1,1e-7")
    assert (rc, out) == (2, "")
    assert err.startswith("error: heat trace at t=1e-07: rectangle:a=1,b=1,bc=N "
                          "has too many levels to count below ")
    assert ", over the cap of 100000\nusage:" in err


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
    # length and sha256 of the whole report, the sphere's captured when its
    # lengths line became the orbit step and the line check's bound
    rc, out, _ = run_cli(capsys, "conjecture", "sphere")
    assert rc == 0
    assert out.rstrip().endswith("RESULT: PASS")
    assert "check freq" in out
    assert len(out.encode()) == 738
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "bbb70c66620d49903cf488cdd4ee5a65e08f015af06556a0c34ae2d72cff5c8b")
    rc, out, _ = run_cli(capsys, "conjecture", "flat_torus_rect:a=1,b=1")
    assert rc == 0
    assert out.rstrip().endswith("RESULT: PASS")
    assert len(out.encode()) == 625
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "274a0f3efa76b47fbe4dea3f5fe4d649f88bc5d52b4cf563807210f9d0efe49a")


@pytest.fixture(scope="module")
def roster_checks():
    """{label: (lines, checks)} of `average.conjecture_checks` with seed 3
    on every roster surface; each surface's tables are dropped when it is
    done."""
    roster = catalog.verification_roster()
    assert len(roster) == 95
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectrum, "_TABLES", {})
        found = {}
        for spec in roster:
            spectrum._TABLES.clear()
            found[spec.label()] = average.conjecture_checks(spec, 3)
    return found


def test_roster_passes_conjecture(roster_checks):
    # the science checks on every family
    failed = {label: [name for name, _, _, ok in checks if not ok]
              for label, (_, checks) in roster_checks.items()}
    assert not {label: names for label, names in failed.items() if names}


def test_records_agree_with_their_verdicts(roster_checks):
    # each record's ok is its value held against its bound, and the
    # report's check lines, in order, are its records' with that verdict
    for label, (lines, checks) in roster_checks.items():
        assert len({name for name, _, _, _ in checks}) == len(checks), label
        for name, value, bound, ok in checks:
            if isinstance(bound, tuple):
                assert ok == (bound[0] <= value <= bound[1]), (label, name)
            else:
                assert ok == (abs(value) <= bound), (label, name)
        shown = [line for line in lines if line.startswith("check ")]
        assert len(shown) == len(checks), label
        for line, (name, _, _, ok) in zip(shown, checks):
            assert line.startswith(f"check {name}"), (label, line)
            assert line.endswith(" -> ok" if ok else " -> FAIL"), (label, line)


def test_flat_conjecture_builds_its_table_once(capsys, monkeypatch):
    builds = []
    grow = spectrum._Table.grow

    def counting_grow(self, q, *args):
        before = self.qcap
        grow(self, q, *args)
        if self.qcap != before:
            builds.append(self.spec)

    held = []
    scan = analysis.frequency_spectrum

    def scan_without_table(prof, omega):
        held.append([s for s, tb in spectrum._TABLES.items() if tb.qcap >= 0])
        return scan(prof, omega)

    monkeypatch.setattr(spectrum._Table, "grow", counting_grow)
    monkeypatch.setattr(analysis, "frequency_spectrum", scan_without_table)
    # the surface's own table, and the dual torus the geodesic lengths
    # read, each built once; the hexagonal torus is its own dual, read
    # before its table is released.  The Fourier scan runs with the
    # surface's table released, the dual's alone held
    torus, dual = catalog.flat_torus_rect(1, 1), catalog.flat_torus_rect(0.5, 0.5)
    for label, want in (("flat_torus_rect:a=1,b=1", [torus, dual]),
                        ("flat_torus_hex", [catalog.flat_torus_hex()])):
        builds.clear()
        held.clear()
        monkeypatch.setattr(spectrum, "_TABLES", {})
        rc, _, _ = run_cli(capsys, "conjecture", label)
        assert rc == 0
        assert builds == want, label
        assert held == [want[1:]], label
    # every other command that reads a table builds each table it reads
    # once, at its largest key: count reads its largest time first (read
    # in order, 10 then 1e6 built this rectangle and its two tori twice
    # each).  heat alone grows its table again, once per doubling of its
    # cutoff
    for label in ("rectangle:a=1,b=1,bc=MM", "lune:m=3,bc=N"):
        for argv in (["count", label, "--at", "10,1e6"], ["verify", label, "--max-t", "1e3"],
                     ["spectrum", label, "--max-t", "1e4"],
                     ["avg", label, "--grid", "10:1e4:101"],
                     ["gprofile", label, "--grid", "100:200:101"],
                     ["proportions", "square_n", "--max-t", "1e4"]):
            builds.clear()
            monkeypatch.setattr(spectrum, "_TABLES", {})
            rc, _, err = run_cli(capsys, *argv)
            assert rc == 0, (argv, err)
            assert builds and len(builds) == len(set(builds)), (argv, builds)


def test_conjecture_report_only_for_others():
    # a flat surface without asserted peaks has no frequency record; every
    # round one, the hemisphere too, gets the line check
    means = ["mean [100,200]", "mean [200,400]", "mean [400,800]"]
    for label, freq in [("rectangle:a=1,b=1,bc=N", []), ("flat_torus_rect:a=1,b=1", ["freq"]),
                        ("hemisphere:bc=N", ["freq"])]:
        lines, checks = average.conjecture_checks(cli.parse_surface(label), 0)
        assert [name for name, _, _, _ in checks] == means + ["decay", "probes"] + freq
        assert all(ok for _, _, _, ok in checks), label
        assert ("freq comparison: report only for this surface" in lines) == (not freq)


@pytest.mark.parametrize("label, mutate", [
    ("sphere", lambda lines: [(m, -c if q == 1 else c, q) for m, c, q in lines]),
    ("sphere", lambda lines: [(m, c / 2 if q == 1 else c, q) for m, c, q in lines]),
    ("projective_sphere", lambda lines: [line for line in lines if line[2] == 1]),
    ("half_lune:m=2,bc_side=D,bc_equator=D",
     lambda lines: [(m + (q != 1), c, q) for m, c, q in lines]),
    ("sphere", lambda lines: lines + [(3, 1e-12, -1j)]),
    pytest.param(
        "half_lune:m=5,bc_side=N,bc_equator=N",
        lambda lines: [(m, c / 2 if q == 1 else c, q) for m, c, q in lines],
        marks=pytest.mark.xfail(reason=(
            "the line check is weak where A is small: with A halved the worst "
            "deviation is 0.00529 within a tolerance of 0.01139, against 0.00072 "
            "unmutated; the tolerance is dominated by 2 max|g - lead|"))),
], ids=["flipped-2pi-n", "A-halved", "triangle-dropped", "triangle-even", "off-geodesic",
        "A-halved-small-A"])
def test_round_line_check_fails_a_wrong_series(monkeypatch, label, mutate):
    # a sign flipped in the 2 pi n series, A halved in it, the triangle
    # wave dropped where its weight is nonzero, its lines moved to even
    # multiples of pi, and a line off the geodesic lengths each fail the
    # frequency record alone
    lines = average.profile_lines
    monkeypatch.setattr(average, "profile_lines", lambda spec, w: mutate(lines(spec, w)))
    _, checks = average.conjecture_checks(cli.parse_surface(label), 0)
    assert [name for name, _, _, ok in checks if not ok] == ["freq"]


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


@pytest.mark.parametrize("argv", [
    ["gprofile", "sphere", "--grid", "100:200:1"],
    ["heat", "sphere", "--at", "0"],
    ["proportions", "square_torus", "--max-t", "10"],
    ["avg", "lune:m=3,bc=D", "--grid", "1e15:1e16:3"],
    # a bound of 300 digits over the cap and a key of 78 past int64, each
    # written as ~ and its %.6g
    ["count", "flat_torus_rect:a=1e300,b=1", "--at", "1"],
    ["count", "flat_torus_rect:a=100000000000000000000000000000000000001/"
              "100000000000000000000000000000000000000,b=1", "--at", "100"],
], ids=["gprofile", "heat", "proportions", "avg", "count-bound", "count-key"])
def test_refusal_inside_a_command_prints_its_usage(capsys, argv):
    # a ValueError raised once the command runs is refused with the usage
    # of that command, not the root parser's list of every command, on one
    # short line
    rc, out, err = run_cli(capsys, *argv)
    assert (rc, out) == (2, "")
    assert err.startswith("error: ") and len(err.splitlines()[0]) < 200
    assert "\nusage: spectralab " + argv[0] + " " in err


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


BIG = "rectangle:a=1e200,b=1e200,bc=N"
UNIT = "rectangle:a=1,b=1,bc=N"


@pytest.mark.parametrize("argv, err", [
    (["asymptotics", BIG], "constant beyond the float range"),
    (["heat", BIG, "--at", "1"], "constant beyond the float range"),
    (["freq", BIG, "--window", "100:200", "--omega", "5:8:301"],
     "constant beyond the float range"),
    (["gprofile", BIG, "--grid", "100:200:11"], "constant beyond the float range"),
    (["avg", BIG, "--grid", "100:200:11"], "constant beyond the float range"),
    (["gprofile", UNIT, "--grid", "1e-300:1:3"],
     "grid value 1e-300 is too small: its square underflows to 0"),
    (["freq", UNIT, "--window", "1e-300:1", "--omega", "100:101:3"],
     "grid value 1e-300 is too small: its square underflows to 0"),
    (["gprofile", "sphere", "--grid", "1:1e200:5"],
     "grid value 1e+200 is too large: its square overflows the float range"),
    (["gprofile", "flat_torus_rect:a=1,b=1", "--grid", "1e150:1e160:3"],
     "grid value 1e+160 is too large: its square overflows the float range"),
    (["freq", "sphere", "--window", "1e200:2e200", "--omega", "1e-300:2e-300:3"],
     "grid value 2e+200 is too large: its square overflows the float range"),
], ids=["asymptotics", "heat", "freq", "gprofile", "avg", "gprofile-underflow",
        "freq-underflow", "gprofile-overflow", "gprofile-flat-overflow", "freq-overflow"])
def test_constant_beyond_float_range_is_usage_error(capsys, argv, err):
    # an area of 1e400 has no float constants, and an x of 1e-300 or
    # 1e200 no float time x^2: a usage error naming it, not a failed run;
    # every sampler of the averaged error refuses the constants before it
    # reads a table, whatever its grid's size
    rc, out, captured = run_cli(capsys, *argv)
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


# sides whose level keys do not fit int64 beside their weights
INT64_SURFACES = ["rectangle:a=1.000000000000000000001,b=1,bc=N",
                  "flat_torus_rect:a=10000000019/10000000000,b=1"]


@pytest.mark.parametrize("label", INT64_SURFACES)
def test_keys_past_int64_are_refused_as_usage(capsys, label):
    # keys past int64 are refused where the table grows, as the cap
    # refuses a table: exit 2, naming the surface, a side of more than 20
    # digits as ~ and its %.6g, which names no other surface
    rc, out, err = run_cli(capsys, "spectrum", label, "--max-t", "1")
    assert (rc, out) == (2, "")
    name = {INT64_SURFACES[0]: "rectangle:a=~1,b=1,bc=N"}.get(label, label)
    assert f"error: {name} has level keys up to " in err
    assert "below 1, which do not fit int64" in err and "usage:" in err


def test_doubled_table_past_int64_falls_back_to_the_cutoff(capsys, monkeypatch):
    # after t = 0.3 twice the table's size has keys past int64, while
    # those up to t = 0.45 fit: a table is built to the key asked for, so
    # both times answer
    monkeypatch.setattr(spectrum, "_TABLES", {})
    rc, out, err = run_cli(capsys, "count", INT64_SURFACES[1], "--at", "0.3,0.45")
    assert (rc, err) == (0, "")
    assert out == "t,count,closed_form\n0.29999999999999999,1,1\n0.45000000000000001,1,1\n"


@pytest.mark.parametrize("argv", [
    ["avg", "--grid", "1e250:1e300:3"],
    ["avg", "--grid", "1e250:1e300:70000", "--log"],  # past the Python engine
    ["gprofile", "--grid", "1e125:1e150:3"],
])
def test_smooth_integral_past_the_float_range_is_refused(capsys, argv):
    # on sides of 1e-300 the smooth integral overflows past t of about
    # 3e205: refused at the grid's largest t, not printed as -inf
    rc, out, err = run_cli(capsys, argv[0], "rectangle:a=1e-300,b=1e-300,bc=N", *argv[1:])
    assert (rc, out) == (2, "")
    assert "error: the smooth integral overflows the float range at t = 1e+300" in err


# every command but list and proportions on each surface, with the options
# it needs there: sides past int64 keys, and sides of 1e-300, whose smooth
# integral overflows on the grids past 1e206
_GATE_ARGS = {
    "spectrum": ["--max-t", "1"],
    "count": ["--at", "0.3,0.45,100"],
    "asymptotics": [],
    "avg": ["--grid", "1:2:3"],
    "gprofile": ["--grid", "100:200:11"],
    "freq": ["--window", "100:200", "--omega", "5:8:301"],
    "verify": ["--max-t", "1"],
    "heat": ["--at", "1"],
    "conjecture": [],
}
_GATE_TINY = {"avg": ["--grid", "1e200:1e210:5"], "gprofile": ["--grid", "1e100:1e104:11"]}


@pytest.mark.parametrize("label", INT64_SURFACES + ["rectangle:a=1e-300,b=1e-300,bc=N"])
def test_no_command_ends_in_an_internal_error(capsys, label):
    # exit 1 is a failed check or a bug; none of these inputs has a check
    # to fail, so each command answers (0) or refuses the input (2)
    tiny = label.startswith("rectangle:a=1e-300")
    for command, extra in _GATE_ARGS.items():
        extra = _GATE_TINY.get(command, extra) if tiny else extra
        rc, _, err = run_cli(capsys, command, label, *extra)
        assert rc in (0, 2), (command, err)
        if tiny and command == "conjecture":
            # the refusal names the surface and the lengths asked for, not
            # the dual torus and the cutoff that the lengths are read below
            want = ("rectangle:a=~1e-300,b=~1e-300,bc=N: its geodesic lengths up to 10 "
                    "need a level table over the cap or past int64 keys")
            assert want in err and len(err.splitlines()[0]) < 200
            assert "flat_torus_rect" not in err and "ExactTime" not in err


def test_level_budget_guard(capsys, monkeypatch):
    # every table is held to the cap by its bound where it grows, and the
    # refusal names the surface, the cutoff, the bound and the cap; this
    # rectangle has over 2^16 rows at 1e8, which are refused unsummed
    rc, _, err = run_cli(capsys, "spectrum", "rect:a=40,b=40,bc=N",
                         "--max-t", "1e8")
    assert rc == 2
    assert ("rectangle:a=40,b=40,bc=N has too many levels to count "
            "below 1e+08, over the cap of 2.5e+07") in err

    # verify is refused before it enumerates anything
    def enumerate_anyway(*args, **kwargs):
        raise AssertionError("verify enumerated an over-budget cutoff")

    monkeypatch.setattr(oracle, "brute_levels", enumerate_anyway)
    rc, out, err = run_cli(capsys, "verify", "rectangle:a=1,b=1,bc=N", "--max-t", "1e9")
    assert rc == 2
    assert out == ""
    assert ("rectangle:a=1,b=1,bc=N has too many levels to count below 1e+09, "
            "over the cap") in err
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
    # a count past the cap reads its rows, up to 2^16 of them: the unit
    # torus has more at 4e10, and so has the one this rectangle's closed
    # form reads at 1.6e11, though the rectangle's own rows are fewer; the
    # refusal names the surface and the cutoff given, not that torus
    for label in ("flat_torus_rect:a=1,b=1", "rectangle:a=1,b=1,bc=MM"):
        rc, out, err = run_cli(capsys, "count", label, "--at", "4e10")
        assert (rc, out) == (2, "")
        assert err.startswith(f"error: {label} has too many levels to count below 4e+10, "
                              "over the cap of 2.5e+07\nusage:"), err


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
    # sums: refused at the cap at once, with no row expanded, naming the
    # cutoff asked for
    monkeypatch.setattr(spectrum, "_TABLES", {})
    start = time.perf_counter()
    rc, out, err = run_cli(capsys, "count", *argv)
    assert time.perf_counter() - start < 1.0
    assert (rc, out) == (2, "")
    assert f"has too many levels to count below {float(argv[-1]):g}, over the cap" in err


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


def _circle_count(R):
    """#{(j, k) in Z^2 : j^2 + k^2 <= R} by the divisor formula
    1 + 4 sum_d chi(d) [R/d], chi the odd character mod 4, summed by the
    hyperbola method: sum_{d <= s} chi(d) [R/d] + sum_{m <= s} X([R/m])
    - s X(s), with s = isqrt(R) and X(x) = sum_{d <= x} chi(d)."""
    s = math.isqrt(R)
    X = [0, 1, 1, 0]
    return 1 + 4 * (sum((R // d) * (1 if d % 4 == 1 else -1) for d in range(1, s + 1, 2))
                    + sum(X[R // m % 4] for m in range(1, s + 1)) - s * X[s % 4])


# surface -> T, below which it has at least 650 eigenvalues
PAST_CAP = {"rectangle:a=1,b=1,bc=MM": 2e4, "flat_torus_hex": 1e4,
            "symmetry_sector:base=square_n,irrep=2": 2e4, "flat_projective_plane": 1e4,
            "sphere": 1e4, "lune:m=3,bc=D": 1e4,
            "half_lune:m=4,bc_side=N,bc_equator=D": 1e4}


def test_past_cap_counts_are_exact(capsys, monkeypatch):
    # with the cap lowered below each surface's own count, a count past it
    # is its rows' sum (flat) or its window count (round), and both columns
    # are the enumerated prefix, at jumps and midpoints alike, with no table
    # built past the cap
    monkeypatch.setattr(spectrum, "_LEVEL_CAP", 200)
    rng = random.Random(51)
    past = set()
    for label, T in PAST_CAP.items():
        monkeypatch.setattr(spectrum, "_TABLES", {})
        spec = catalog.parse_spec(label)
        brute = oracle.brute_levels(spec, T)
        prefix = list(itertools.accumulate(m for _, m in brute))
        assert prefix[-1] > 3 * 200, label
        for _ in range(12):
            i = rng.randrange(len(brute) // 2, len(brute) - 1)
            jump = rng.random() < 0.5
            key = brute[i][0] if jump else (brute[i][0] + brute[i + 1][0]) / 2
            t = key * (key + 1) if catalog.is_spherical(spec) else spectrum.ExactTime(key)
            rep = spectrum.closed_form_identity(spec, t)
            assert rep.count == rep.closed_form == prefix[i], (label, key, rep)
            if rep.count > 200:
                past.add(label)
        assert all(int(tb.prefix[-1]) <= 200 for tb in spectrum._TABLES.values()), label
    assert past == set(PAST_CAP)
    monkeypatch.undo()
    # at the real cap: the unit torus's count is Gauss's circle count at
    # R = [t / pi^2], and the sphere's (K + 1)^2 for K the largest degree
    # with K(K + 1) <= t
    assert [_circle_count(R) for R in range(30)] == [
        sum(1 for j in range(-6, 7) for k in range(-6, 7) if j * j + k * k <= R)
        for R in range(30)]
    R = math.floor(1e8 / math.pi ** 2)
    assert R == 10132118 and _circle_count(R) == 31830981
    K = (math.isqrt(4 * 4 * 10 ** 13 + 1) - 1) // 2
    assert (K + 1) ** 2 == 39999995948025
    for label, t, want in [("flat_torus_rect:a=1,b=1", "1e8", 31830981),
                           ("sphere", "4e13", 39999995948025)]:
        rc, out, err = run_cli(capsys, "count", label, "--at", t)
        assert (rc, err) == (0, "")
        assert out.splitlines()[1].split(",")[1:] == [str(want)] * 2
    # one row weight off by one moves the count past the cap, and only the
    # table column, which the rows sum
    spec = catalog.rectangle(1, 1, "N")
    tb = spectrum._table(spec)
    rows = tb.rows

    def off_by_one(q):
        for i, (c0, c1, c2, ks, w) in enumerate(rows(q)):
            yield c0, c1, c2, ks, w + (i == 7)

    monkeypatch.setattr(tb, "rows", off_by_one)
    rep = spectrum.closed_form_identity(spec, 1e9)
    assert rep.closed_form == 79587524 != rep.count


THIN = "rectangle:a=1/1000000,b=1000000,bc=N"


@pytest.mark.parametrize("argv", [
    ["count", THIN, "--at", "30000"],
    ["spectrum", THIN, "--max-t", "30000"],
    ["avg", THIN, "--grid", "1:30000:11"],
    ["verify", THIN, "--max-t", "30000"],
    ["conjecture", THIN],
], ids=lambda argv: argv[0])
def test_thin_surface_is_refused_at_once(capsys, argv):
    # the boundary term b sqrt(t) / pi outweighs the area term a hundredfold
    # here: the bound counts it, and 55132890 levels are never built; a
    # count is that bound, and a reader of every level is refused by it,
    # conjecture at its top cutoff, 1e7
    start = time.perf_counter()
    rc, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    if argv[0] == "count":
        assert (rc, err) == (0, "")
        assert out == "t,count,closed_form\n30000,55132890,55132890\n"
        return
    assert rc == 2
    assert out == ""
    if argv[0] == "conjecture":
        assert f"{THIN} may have up to 1006584243 eigenvalues below 1e+07," in err
        return
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
# formatted whole rows at once (count lune and spectrum sphere: from the
# commit before round tables became window-count lists; the half lunes:
# from the commit before the decay fit read its window samples a block at
# a time, their frequency blocks and the sphere and projective sphere from
# the commit that checked the round lines in closed form; the three
# proportions tables: from the commit that replaced the fitted sqrt
# coefficient with the two-term share) ---

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
        "irrep,measured,predicted,two_term,b_sign\n"
        "++,0.18518518518518517,0.125,0.1836958453570664,1\n"
        "+-,0.1111111111111111,0.125,0.11416710684651922,-1\n"
        "-+,0.13580246913580246,0.125,0.132691300499891,1\n"
        "--,0.07407407407407407,0.125,0.075728932603703003,-1\n"
        "2,0.49382716049382713,0.5,0.49371681469282042,0\n",
    ("proportions", "hex_torus", "--max-t", "1e3"):
        "irrep,measured,predicted,two_term,b_sign\n"
        "+,0.20603015075376885,0.16666666666666666,0.20479376993521933,1\n"
        "-,0.1306532663316583,0.16666666666666666,0.13176409560119715,-1\n"
        "2,0.66331658291457285,0.66666666666666663,0.6634421344635838,0\n",
    # the Moebius cover translates by (ma, nb) with m = n mod 2: every top
    # peak sits at a length of that lattice
    ("conjecture", "mobius_band:a=1,b=1,bc=D"):
        "label: mobius_band:a=1,b=1,bc=D\n"
        "check mean [100,200]: -0.0050961 within 0.05 -> ok\n"
        "check mean [200,400]: -0.000127991 within 0.025 -> ok\n"
        "check mean [400,800]: +9.69808e-05 within 0.0125 -> ok\n"
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
        "check mean [100,200]: -0.000487413 within 0.05 -> ok\n"
        "check mean [200,400]: -0.000249016 within 0.025 -> ok\n"
        "check mean [400,800]: +8.84454e-05 within 0.0125 -> ok\n"
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
        "check mean [100,200]: -6.20665e-06 within 0.05 -> ok\n"
        "check mean [200,400]: +3.65671e-06 within 0.025 -> ok\n"
        "check mean [400,800]: -3.87912e-07 within 0.0125 -> ok\n"
        "check decay: exponent -0.474157 in [-0.65,-0.35] -> ok\n"
        "check probes (seed 3): worst scaled residual 0.044187 within 0.0914598 -> ok\n"
        "geodesic lengths: multiples of 2.0944 up to 30\n"
        "freq line 6.28319: closed form +0.0168869, measured +0.017016\n"
        "freq line 12.5664: closed form -0.00422172, measured -0.00425974\n"
        "freq line 18.8496: closed form +0.00187632, measured +0.00189848\n"
        "freq line 25.1327: closed form -0.00105543, measured -0.00107154\n"
        "check freq: 4 lines at geodesic lengths; the worst multiple of pi up to 30 "
        "deviates 0.000681547 within 0.00723488 -> ok\n"
        "RESULT: PASS\n",
    ("conjecture", "half_lune:m=2,bc_side=N,bc_equator=D", "--seed", "3"):
        "label: half_lune:m=2,bc_side=N,bc_equator=D\n"
        "check mean [100,200]: +7.09875e-08 within 0.05 -> ok\n"
        "check mean [200,400]: +1.701e-08 within 0.025 -> ok\n"
        "check mean [400,800]: +4.16066e-09 within 0.0125 -> ok\n"
        "check decay: exponent -0.505395 in [-0.65,-0.35] -> ok\n"
        "check probes (seed 3): worst scaled residual 0.0184569 within 0.0289542 -> ok\n"
        "geodesic lengths: multiples of 3.14159 up to 30\n"
        "freq line 3.14159: closed form +0.101321, measured +0.101686\n"
        "freq line 6.28319: closed form +0.0253303, measured +0.0254307\n"
        "freq line 9.42478: closed form -0.0112579, measured -0.0113087\n"
        "freq line 12.5664: closed form -0.00633257, measured -0.00636761\n"
        "freq line 15.708: closed form +0.00405285, measured +0.00408066\n"
        "freq line 18.8496: closed form +0.00281448, measured +0.00283731\n"
        "freq line 21.9911: closed form -0.00206778, measured -0.00208758\n"
        "freq line 25.1327: closed form -0.00158314, measured -0.00160177\n"
        "freq line 28.2743: closed form +0.00125088, measured +0.00126873\n"
        "check freq: 9 lines at geodesic lengths; the worst multiple of pi up to 30 "
        "deviates 0.000764157 within 0.00220521 -> ok\n"
        "RESULT: PASS\n",
    # the lines of the leading profile up to omega = 30 against the
    # profile's coefficients there: the 2 pi n series on the sphere, and the
    # triangle wave's odd multiples of pi beside it on the projective sphere
    ("conjecture", "sphere", "--seed", "3"):
        "label: sphere\n"
        "check mean [100,200]: +2.6042e-06 within 0.05 -> ok\n"
        "check mean [200,400]: +6.51044e-07 within 0.025 -> ok\n"
        "check mean [400,800]: +1.62761e-07 within 0.0125 -> ok\n"
        "check decay: exponent -0.506553 in [-0.65,-0.35] -> ok\n"
        "check probes (seed 3): worst scaled residual 0.0146734 within 0.0262072 -> ok\n"
        "geodesic lengths: multiples of 6.28319 up to 30\n"
        "freq line 6.28319: closed form +0.202642, measured +0.202748\n"
        "freq line 12.5664: closed form -0.0506606, measured -0.050765\n"
        "freq line 18.8496: closed form +0.0225158, measured +0.0226207\n"
        "freq line 25.1327: closed form -0.0126651, measured -0.0127699\n"
        "check freq: 4 lines at geodesic lengths; the worst multiple of pi up to 30 "
        "deviates 0.000678918 within 0.00202882 -> ok\n"
        "RESULT: PASS\n",
    ("conjecture", "projective_sphere", "--seed", "3"):
        "label: projective_sphere\n"
        "check mean [100,200]: +1.27866e-06 within 0.05 -> ok\n"
        "check mean [200,400]: +3.22592e-07 within 0.025 -> ok\n"
        "check mean [400,800]: +8.10143e-08 within 0.0125 -> ok\n"
        "check decay: exponent -0.504209 in [-0.65,-0.35] -> ok\n"
        "check probes (seed 3): worst scaled residual 0.0587727 within 0.10145 -> ok\n"
        "geodesic lengths: multiples of 3.14159 up to 30\n"
        "freq line 3.14159: closed form -0.405285, measured -0.405339\n"
        "freq line 6.28319: closed form +0.101321, measured +0.101374\n"
        "freq line 9.42478: closed form +0.0450316, measured +0.0450797\n"
        "freq line 12.5664: closed form -0.0253303, measured -0.0253825\n"
        "freq line 15.708: closed form -0.0162114, measured -0.0162662\n"
        "freq line 18.8496: closed form +0.0112579, measured +0.0113103\n"
        "freq line 21.9911: closed form +0.00827112, measured +0.00832177\n"
        "freq line 25.1327: closed form -0.00633257, measured -0.00638495\n"
        "freq line 28.2743: closed form -0.00500352, measured -0.00505731\n"
        "check freq: 9 lines at geodesic lengths; the worst multiple of pi up to 30 "
        "deviates 0.00268417 within 0.00773327 -> ok\n"
        "RESULT: PASS\n",
    # the two-term shares of a 1e5 table
    ("proportions", "square_n", "--max-t", "1e5"):
        "irrep,measured,predicted,two_term,b_sign\n"
        "++,0.12912428677747456,0.125,0.12881206471863033,1\n"
        "+-,0.12552716447531631,0.125,0.12564285047408325,1\n"
        "-+,0.12465889357479534,0.125,0.12433388261766307,1\n"
        "--,0.12106177127263706,0.125,0.12122671346179248,-1\n"
        "2,0.49962788389977675,0.5,0.49998448872783086,1\n",
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


# --- streamed grids ---

_ROUND, _FLAT = "lune:m=3,bc=D", "rectangle:a=13/11,b=11/5,bc=ND"
STREAMED_ARGS = {
    "avg": {_ROUND: ["--grid", "2:2e4:{n}", "--log"], _FLAT: ["--grid", "77.22:7722:{n}"]},
    "gprofile": {"sphere": ["--grid", "50:60:{n}"], _FLAT: ["--grid", "20:80:{n}"]},
    "freq": {"sphere": ["--window", "100:200", "--omega", "5:8:{n}"],
             _FLAT: ["--window", "20:80", "--omega", "2:16:{n}"]},
}
# (bytes, sha256) of stdout on grids of one point, a chunk of 1024 less
# one, a chunk, a chunk and one, three chunks and five points, and 65537
# points, past the Python engine's 65536, as the commands wrote them when
# they held the whole grid and joined its rows into one string
STREAMED = {
    ("avg", _ROUND, 1): {
        "csv": (61, "a52cd66c21807232e10f3e8630702ba7ba728274fe2537400ab69d6f05cbea81"),
        "json": (82, "4a3d8df8d247fb382e83fac5cff1e1ec66934c083d12aec9ff2d7c2905e7dd75")},
    ("avg", _ROUND, 1023): {
        "csv": (82388, "04533118761aba265599d42a9a6301d3cd9f9d8acbbefca3383012a5b5df2ae9"),
        "json": (114189, "fe6b1fa8c92a4cdbc58dee04c23e35be985ab853d0ff10f531aaa5e9fcd0ba16")},
    ("avg", _ROUND, 1024): {
        "csv": (82440, "11cba7e283a6f6d586275e780322fd4ce758c20289dc35b6496443682be5c7fa"),
        "json": (114231, "fa95d091a510711bbc59180871d6997ec8aa456fc14e48c553f16082e31ac22b")},
    ("avg", _ROUND, 1025): {
        "csv": (82485, "ac0e47dee5e7543ce94cc115c7f110ee46ee8d6931bd4f2eccd7f4889d64fb66"),
        "json": (114399, "4be676f2b27ee6c22a58b99ff4ec0ffbd261f5887af608c300d9cfd8ccbfeb58")},
    ("avg", _ROUND, 3077): {
        "csv": (247817, "0962ffdc07a814d416e11b20011e5225ff2026a2eff15d4d873b453b5d95f3f4"),
        "json": (343419, "8a03752d83fe19c39848613629f12b629a99d220adab9858652c6343d5ec4e70")},
    ("avg", _FLAT, 1): {
        "csv": (97, "53206d2c7e6ec2e6d7b263e8650faf32f9d81b8d0401e1ff6d73dde591f61986"),
        "json": (100, "e5a9fa31829ccdfacda53f22ffb9f4c543f4f6bda6c698f41da1f4c8e1211521")},
    ("avg", _FLAT, 1023): {
        "csv": (82202, "e1582e3cf22d1a972e832dd11688434eb5cb14e7a2456d922dd33a8ef5e98c27"),
        "json": (113610, "672f049e2733ca9cce94ca7d55caca9196ec8b1a1ed13aa9369ac3e769250f94")},
    ("avg", _FLAT, 1024): {
        "csv": (82266, "7e74e4ccd9a5e4541d5c5f00a2ee3c766fba77c0c8d7af45a4073ed60da15f5d"),
        "json": (113475, "b4c7a0e965b316b88b77fdc1e60cb2983be1681a13ab8a6bb45ee5d3822811c1")},
    ("avg", _FLAT, 1025): {
        "csv": (82020, "4130bfd7a00ab2d0b551b9d5d95bd6766f8c05f91b66cdb21fdfa536119e8c26"),
        "json": (112177, "06f1c7697310f10587b0a068eee0468b1f6249409929c74d608abe05a2b70994")},
    ("avg", _FLAT, 3077): {
        "csv": (247305, "452e5a9b1c084f6ea9e1fde4eb5483f54c600869e319355ab3fb0091f7efce7f"),
        "json": (341778, "5d7ff8db89fbeae48111882837c053775c1632879c8f19383350ca585d856035")},
    ("gprofile", "sphere", 1023): {
        "csv": (40489, "50a6d9dc5facbb669a9722aab9af74da405a10426af23610fcfc01da3ee5fcea"),
        "json": (57782, "0f48cd3a803943a16c5f6af3e14d1735e7e24784100481f720abe409c2a2548a")},
    ("gprofile", "sphere", 1024): {
        "csv": (40522, "95b9efd2107a5f200ea1d63ca4120b7970bd3a540af57e302a44fa8633b9a6cb"),
        "json": (57881, "1bc6fbb9364f98a06736fe9f8b70f3aebb5d3fff4c6a0fcb1452abf807a29027")},
    ("gprofile", "sphere", 1025): {
        "csv": (33540, "00c23e4af95552341b503c1df201c0ca78b746d328c492c1a3c03da05aca677e"),
        "json": (51551, "d0b1058f21b4d35674784208275d912d7b6a2b0350038f617fc0119a50e72360")},
    ("gprofile", "sphere", 3077): {
        "csv": (121843, "94cef40c5a8179b6c9e3592271d300242450cf4d501a30f4b15081e546e23a45"),
        "json": (173936, "ff3902789b16741a847f2d2208f732d85c43918326e5be9733517a4dcc80f944")},
    ("gprofile", _FLAT, 1023): {
        "csv": (40590, "435061c67e8b0df2b1f054fcbf752eed0824ec012237b5fae8c3542cf6dd6b46"),
        "json": (57858, "8efdfe87aeda7ac73b1a17e7e0f0f9a54735eb37799f8226bf4606ed8fdc0020")},
    ("gprofile", _FLAT, 1024): {
        "csv": (40638, "ce3776b4d8dc00b0ad79e6e1f7c2da80da1233f5b0312a04c6649051cd63c03d"),
        "json": (57912, "f66f854d7b668ecd5eadc84bd67eaed2ecd557c652a506d978dc409da09f2cd3")},
    ("gprofile", _FLAT, 1025): {
        "csv": (32615, "52aee14a0f446b7c7758b69239fcc51c2f3c6885b194355f5af0ee195c30c945"),
        "json": (50636, "eacb664e1097a4a7cbdd299acc338cec0f0640f9cc2e7f71df677b56c5508ef6")},
    ("gprofile", _FLAT, 3077): {
        "csv": (122180, "87501e1aadef674adb5f1252ca60b90ab3b414d0629a6972f8d4b70efaed1d81"),
        "json": (174125, "1fc08e0c70cf23c03dd906936b1cb0fe0ff9c95c501e2608a41f469ad698eaf8")},
    ("freq", "sphere", 1023): {
        "csv": (41625, "3d08286304802dabbc665052eb2b54429abd116bdf6169d17f0df8d93547066a"),
        "json": (66795, "ffc6273d16ec430a38b74d2f4cc0b463e53ee36081dc16b7515b69f6bc077f4a")},
    ("freq", "sphere", 1024): {
        "csv": (41620, "1e3f9cfab0e8d6e55b6f63213b3af1d5e1ba63f22d8bd728ebb83ae221d706e0"),
        "json": (66835, "8458c6ec7c9bbfee5c408d6545c28f323cdcbb84deac7404c43af13be36da3d1")},
    ("freq", "sphere", 1025): {
        "csv": (34664, "c6f57dcba97a008fe17760036739f729b8358343a546072e4a205f3a71e817ae"),
        "json": (60789, "486ea7fd3fee314ef79221e75b24a698d0041b6c8fa9f1693a0f459921518703")},
    ("freq", "sphere", 3077): {
        "csv": (125188, "b41414cfaf7d4a0c4d9e9e65466d0859bf1c57ace6182e28bfe6f23ceed35711"),
        "json": (200924, "4ca25f1f36da86e9a9a55eece492e7556f2ed318d9f471eb1e051590fcc7ff8d")},
    ("freq", _FLAT, 1023): {
        "csv": (41679, "9fc44022f24e95fa3191ef3df1803b0866c2e5b1a56b830f2c4194ad067d943a"),
        "json": (67257, "ad3ef5e914e83eee89f3c3e6c3c9f62cfa4829887983baa664a5e43404ba6526")},
    ("freq", _FLAT, 1024): {
        "csv": (41905, "08b84bc00f28f3bf0900083fd4f4ce80453dad285d765500326f2fff5bd55b85"),
        "json": (67494, "a3746443e14d0e0a5db95d934689c9d4d0e963a76912c0b58208e03688665e8d")},
    ("freq", _FLAT, 1025): {
        "csv": (34325, "648fa799c09d49b44fbbf1884b6ea47e59509dc206afb14d0e60a9b446c890b0"),
        "json": (60415, "a4463d7ac78c3642bf39c0074cea365ad3f54e804b7ad0a09f6777deed0bc925")},
    ("freq", _FLAT, 3077): {
        "csv": (125894, "9c2e9d51007e2d94ad7ac97638b424bb7cab96f23feab267dbd2b018ee5187f6"),
        "json": (202706, "7c6be1c9d4a3148c3031e6dc6f666f0fa5f2a8af720fcddd0bd6eda81e6e70a1")},
    ("avg", _FLAT, 65537): {
        "csv": (5266305, "7057c2879d5f807742766b11da71e7b1d0c880ca7885d4bf72a3f35bf884c27c"),
        "json": (7279656, "d0f69b72c089da46faea1f79aa9d3b7b8521530dacf063e49c4850555f3c0aab")},
    ("gprofile", "sphere", 65537): {
        "csv": (2537340, "92398c3484c90570b5224a594af35709acf862d62c9ff7c8fb81297128099ef1"),
        "json": (3690742, "80c6f23da6b9e759d0f9511a3d45b0279168fda3833f17dedc7b45d7f301e34c")},
}


@pytest.mark.parametrize("command, label, n", list(STREAMED))
def test_streamed_grids_write_the_whole_grid_bytes(capsys, monkeypatch, command, label, n):
    # every chunk size around the chunk's, on both engines, in CSV and
    # JSON: the engines give the same floats, so one digest holds for both
    assert spectrum._CHUNK == 1024
    argv = [command, label, *(a.format(n=n) for a in STREAMED_ARGS[command][label])]
    engines, engine = [], average._engine

    def recording(sp, T, sums):
        engines.append("numpy" if sums is None else "python")
        return engine(sp, T, sums)

    monkeypatch.setattr(average, "_engine", recording)
    for py_points in (average._PY_POINTS, 0) if n <= average._PY_POINTS else (average._PY_POINTS,):
        monkeypatch.setattr(average, "_PY_POINTS", py_points)
        for fmt, want in STREAMED[command, label, n].items():
            monkeypatch.setattr(spectrum, "_TABLES", {})  # tables in array('q')
            engines.clear()
            rc, out, err = run_cli(capsys, *argv, "--format", fmt)
            data = out.encode()
            assert (rc, err) == (0, "")
            assert (len(data), hashlib.sha256(data).hexdigest()) == want, (fmt, py_points)
            assert engines == ["numpy" if n > py_points else "python"], (fmt, py_points)


@pytest.mark.parametrize("argv, match", [
    (["gprofile", "sphere", "--grid", "50:60:1"], "at least two samples"),
    (["freq", "sphere", "--window", "100:200", "--omega", "5:8:1"], ">= 3 points"),
    (["gprofile", "sphere", "--grid", "1:1.0000000000000002:5"], "strictly ascending"),
    (["avg", "sphere", "--grid", "1:1e300:3000"], "smooth integral overflows"),
    (["gprofile", "sphere", "--grid", "1:1e150:3000"], "smooth integral overflows"),
    (["avg", "lune:m=1000000000000,bc=N", "--grid", "1:1e15:3000"], "over the cap"),
    (["gprofile", "lune:m=1000000000000,bc=N", "--grid", "1:3e7:3000"], "over the cap"),
])
def test_refused_grids_write_nothing(capsys, argv, match):
    # a refusal comes before the first chunk: no header, no row
    for fmt in ("csv", "json"):
        rc, out, err = run_cli(capsys, *argv, "--format", fmt)
        assert (rc, out) == (2, "")
        assert re.search(match, err), err


# Starts the command in argv under a 1 GiB address-space limit, stdout
# discarded, and prints its exit status and peak RSS in KB.
_LAUNCHER = """
import os, resource, subprocess, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
with subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL) as proc:
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
print(proc.returncode, usage.ru_maxrss)
"""


def peak_rss_mb(*argv):
    """Peak RSS in MB of a fresh CLI run under a 1 GiB address-space limit,
    stdout discarded; the run must exit 0.  A small launcher interpreter
    starts the run: a child forked from this process would count this
    process's own resident pages, 98 MB late in the suite, in its peak."""
    run = subprocess.run([sys.executable, "-c", _LAUNCHER,
                          sys.executable, "-m", "spectralab.cli", *argv],
                         capture_output=True, text=True, env=package_env())
    code, peak_kb = map(int, run.stdout.split())
    assert code == 0, run.stderr
    return peak_kb / 1024


def test_closed_form_tori_fit_in_narrow_types():
    # the MM rectangle's closed form grows the 1 x 2 torus to 1.2e6 levels
    # (12.7e6 eigenvalues) beside the rectangle's and the unit torus's:
    # packed in int32 and held in 32-bit keys and prefix sums, at 50.5 MB,
    # where tables that also held their multiplicities peaked at 58 MB, and
    # int64 tables, counted into a span-sized array, at 120 MB
    assert peak_rss_mb("count", "rectangle:a=1,b=1,bc=MM", "--at", "2e7") <= 55


def test_tetrahedron_table_holds_a_sixth_of_the_plane():
    # the tetrahedron's table at t = 1e7 (139k levels) is reduced from the
    # hexagonal sector n1 > n2 >= 0, 459k entries, and held as keys and
    # prefix sums: 3.2 MB above the same command at 1e6, which loads numpy
    # too, where the whole plane's 2.76e6 entries, counted into a
    # span-sized array beside a table that also held its multiplicities,
    # took 9.3 MB more
    small = peak_rss_mb("count", "tetrahedron_surface", "--at", "1e6")
    large = peak_rss_mb("count", "tetrahedron_surface", "--at", "1e7")
    assert large <= small + 5, (large, small)


def test_spectrum_memory_stays_near_the_table():
    # 805k levels: the chunked dump holds little beyond the table that
    # `count` holds (the row-dict writer held 511 MB more)
    spec = "flat_torus_rect:a=101/100,b=1"
    dump = peak_rss_mb("spectrum", spec, "--max-t", "1e7")
    table = peak_rss_mb("count", spec, "--at", "1e7")
    assert dump <= table + 16, (dump, table)


@pytest.mark.parametrize("argv", [
    ["avg", "rectangle:a=1,b=1,bc=N", "--grid", "1e5:1e6:{n}"],
    ["gprofile", "rectangle:a=1,b=1,bc=N", "--grid", "316.3:1000:{n}"]], ids=["avg", "gprofile"])
def test_grid_memory_stays_near_a_chunk(argv):
    # 2e5 points are written a chunk at a time, holding what 4001 points
    # hold (on numpy for both: the table is); the whole-grid writer held
    # 74 MB more for avg and 30 MB more for gprofile
    small, large = (peak_rss_mb(*(a.format(n=n) for a in argv)) for n in (4001, 200000))
    assert large <= small + 8, (large, small)


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
    # the catalog holds no geometry: every command parses a surface with it
    proc = subprocess.run([sys.executable, "-c", "import sys, spectralab.catalog; "
                           "print(sorted(m for m in sys.modules if m.startswith('spectralab.')))"],
                          capture_output=True, text=True, env=package_env())
    assert proc.stdout == "['spectralab.catalog']\n", proc.stderr
    count = loaded_modules(["count", "rectangle:a=1,b=1,bc=N", "--at", "100,1e3"])
    assert count.isdisjoint({"oracle", "analysis", "average"} | _HEAVY)
    assert "asymptotics" not in count  # the level bound reads no constants
    # a flat table this small is summed on Python integers
    assert "lattice" in count and "numpy" not in count
    # each command compiles only its own kind of table: a flat one no
    # round code, a round one no flat code
    flat = loaded_modules(["count", "cylinder:a=7/5,b=11/7,bc=M", "--at", "100,1e3"],
                          ["spectrum", "mobius_band:a=1,b=1,bc=D", "--max-t", "1e3"],
                          ["verify", "flat_torus_rect:a=1,b=1", "--max-t", "1e3"])
    assert "lattice" in flat and "spherical" not in flat
    round_ = loaded_modules(["count", "sphere", "--at", "100,1e5"],
                            ["verify", "half_lune:m=3,bc_side=N,bc_equator=D", "--max-t", "1e4"],
                            ["conjecture", "lune:m=3,bc=D"])
    assert "spherical" in round_ and "lattice" not in round_
    verify = loaded_modules(["verify", "lune:m=2,bc=N", "--max-t", "1e4"])
    assert verify.isdisjoint({"analysis", "average"} | _HEAVY)
    assert "oracle" in verify and "asymptotics" not in verify
    # round surfaces are counted on Python integers
    assert verify.isdisjoint({"lattice", "numpy"})
    sector = ["spectrum", "symmetry_sector:base=hex_torus,irrep=2", "--max-t", "100"]
    assert "asymptotics" not in loaded_modules(sector)
    # a flat surface's constants read its closed form's terms, which live
    # with the flat tables in `lattice`, and build no table
    constants = loaded_modules(["asymptotics", "rectangle:a=1,b=1,bc=MM"])
    assert "lattice" in constants
    assert constants.isdisjoint({"spherical", "numpy"} | _HEAVY)
    for argv in (["asymptotics", "sphere"],
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
    # the sector shares read no profile
    proportions = loaded_modules(["proportions", "square_torus", "--max-t", "1e4"])
    assert "analysis" in proportions and proportions.isdisjoint({"numpy", "average"})


def test_round_roster_never_loads_numpy():
    # nor `analysis`: a round conjecture checks its lines in closed form
    argvs = []
    for spec in catalog.verification_roster():
        if catalog.is_spherical(spec):
            label = spec.label()
            argvs += [["verify", label, "--max-t", "1e4"],
                      ["count", label, "--at", "7/3,1e5"],
                      ["spectrum", label, "--max-t", "1e5", "--format", "json"],
                      ["conjecture", label, "--seed", "3"]]
    assert len(argvs) == 4 * 36
    assert loaded_modules(*argvs).isdisjoint({"lattice", "numpy", "analysis"})


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
    (["conjecture", "flat_torus_rect:a=1,b=1", "--seed", "1"],
     "analysis.fourier_coefficients.terms", None),
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
