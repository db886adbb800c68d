import csv
import hashlib
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
    # level-window samplers became average.window_samples
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


def test_flat_conjecture_builds_its_table_once(capsys, monkeypatch):
    from spectralab import lattice

    builds = []
    grow = lattice._LevelTable.grow

    def counting_grow(self, qneed):
        before = self.qcap
        grow(self, qneed)
        if self.qcap != before:
            builds.append(self.qcap)

    monkeypatch.setattr(lattice._LevelTable, "grow", counting_grow)
    monkeypatch.setattr(spectrum, "_TABLES", {})
    rc, _, _ = run_cli(capsys, "conjecture", "flat_torus_rect:a=1,b=1")
    assert rc == 0
    assert len(builds) == 1, builds


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


def test_level_budget_guard(capsys):
    rc, _, err = run_cli(capsys, "spectrum", "rect:a=40,b=40,bc=N",
                         "--max-t", "1e8")
    assert rc == 2
    assert "--max-t" in err and "cap" in err
    # count checks the budget once, at its largest time, before counting
    rc, out, err = run_cli(capsys, "count", "rect:a=40,b=40,bc=N", "--at", "10,1e8")
    assert rc == 2
    assert out == ""
    assert "--at" in err and "cap" in err
    # proportions holds the base surface, which has every sector's levels,
    # to the cap
    rc, out, err = run_cli(capsys, "proportions", "square_n", "--max-t", "1e10")
    assert rc == 2
    assert out == ""
    assert "--max-t" in err and "cap" in err and "usage:" in err


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
# before the level-window samplers became average.window_samples; count
# lune and spectrum sphere: from the commit before round tables became
# window-count lists) ---

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
        "1000,-0.16168911821834628,31.622776601683793,-0.90924473007763851\n",
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
        "2,0.49382716049382713,0.5,-1,-0.03083941445832717\n",
    ("proportions", "hex_torus", "--max-t", "1e3"):
        "irrep,measured,predicted,b_sign,b_hat\n"
        "+,0.20603015075376885,0.16666666666666666,1,0.2549670520499559\n"
        "-,0.1306532663316583,0.16666666666666666,-1,-0.22275706950954835\n"
        "2,0.66331658291457285,0.66666666666666663,-1,-0.031828624649677985\n",
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

    package_root = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (package_root, os.environ.get("PYTHONPATH")))))
    with subprocess.Popen([sys.executable, "-m", "spectralab.cli", *argv],
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          env=env, preexec_fn=limit) as proc:
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
import contextlib, io, json, sys
import spectralab.cli
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), \\
            contextlib.redirect_stderr(io.StringIO()):
        code = spectralab.cli.main(argv)
    assert code == 0, (argv, code)
print(json.dumps(sorted(m for m in sys.modules if m.startswith("spectralab.")
                        or m in ("numpy", "numpy.ma"))))
"""


def loaded_modules(*argvs):
    """spectralab modules (named without the package), numpy and numpy.ma
    that a fresh interpreter holds after importing the CLI and running each
    argv in turn (nothing more when there is none)."""
    package_root = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (package_root, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-c", _LOADED, json.dumps(argvs)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return {m.removeprefix("spectralab.") for m in json.loads(proc.stdout)}


def test_each_command_loads_only_what_it_calls():
    assert loaded_modules() == {"catalog", "exact", "spectrum", "cli"}
    assert loaded_modules(["list"]) == {"catalog", "exact", "spectrum", "cli"}
    count = loaded_modules(["count", "rectangle:a=1,b=1,bc=N", "--at", "100,1e3"])
    assert count.isdisjoint({"oracle", "analysis", "average"})
    assert "asymptotics" in count  # the level budget
    # a flat table this small is summed on Python integers
    assert "lattice" in count and "numpy" not in count
    verify = loaded_modules(["verify", "lune:m=2,bc=N", "--max-t", "1e4"])
    assert verify.isdisjoint({"analysis", "average", "asymptotics"})
    assert "oracle" in verify
    # round surfaces are counted on Python integers
    assert verify.isdisjoint({"lattice", "numpy"})
    for argv in (["asymptotics", "sphere"], ["count", "sphere", "--at", "100,1e5"],
                 ["spectrum", "hemisphere:bc=D", "--max-t", "1e4"]):
        assert loaded_modules(argv).isdisjoint({"lattice", "numpy"}), argv
    # np.unique and np.median would load numpy.ma
    assert "numpy.ma" not in loaded_modules(["conjecture", "sphere"])


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
              ["spectrum", shape, "--max-t", "7722"]]
    assert loaded_modules(*argvs).isdisjoint({"numpy", "numpy.ma"})
    # a unit-shaped table at 1e7 is still numpy's
    assert "numpy" in loaded_modules(["count", "rectangle:a=1,b=1,bc=N", "--at", "1e7"])
