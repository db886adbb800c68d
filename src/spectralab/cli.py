"""Command line front end binding the other modules.

Data goes to stdout as CSV (default) or JSON carrying the same fields;
reals print with 17 significant digits, so rerunning the same command
line gives byte-identical output.  Anything inherently unstable across
runs (wall-clock timing) goes to stderr.  Exit status: 0 for a clean run
or PASS, 1 when a check fails or a numeric guard trips mid-run, 2 for
usage errors; `main` returns it for every outcome.  Every argument is an
argparse type, checked before a command runs: a bad one is refused with
its command's usage and a message naming it.

Surface grammar is `family:key=val,...` exactly as printed by the
catalog labels; `rect` and `tri306090` are accepted as input shorthands
for `rectangle` and `triangle_306090`.
"""

from __future__ import annotations

import argparse
import gc
import math
import sys
import time
from fractions import Fraction

# every command parses a surface and most read its level table; the other
# modules, and numpy, are imported by the commands that call them, so that
# a command compiles and runs only the code it uses
from . import catalog, spectrum

_FAMILY_ALIASES = {
    "rect": "rectangle",
    "tri306090": "triangle_306090",
}

# most points a --grid or --omega may ask for; at this size the largest
# command, `freq sphere --window 100:200 --omega 1:15707:1000000`, peaks
# at 386 MB
_GRID_MAX = 10**6

_FREQ_TOL = 0.05
# peak sets asserted by the conjecture command; every other surface gets
# a report-only geodesic comparison
_ASSERTED_PEAKS = {
    "sphere": (2.0 * math.pi, 4.0 * math.pi),
    "flat_torus_rect:a=1,b=1": (2.0, 2.0 * math.sqrt(2.0), 4.0),
}


def parse_surface(text: str) -> catalog.SurfaceSpec:
    head, sep, tail = text.strip().partition(":")
    return catalog.parse_spec(_FAMILY_ALIASES.get(head, head) + sep + tail)


# --- argument types ---


def _arg(parse):
    """parse as an argparse type: its ValueError becomes the parser's error."""
    def typed(text: str):
        try:
            return parse(text)
        except ValueError as err:
            raise argparse.ArgumentTypeError(str(err)) from None
    return typed


def _fraction(text: str) -> Fraction:
    # a zero denominator is a malformed number, not an arithmetic failure,
    # and a number beyond the float range is no cutoff or grid end
    try:
        x = Fraction(text.strip())
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"expected a number, got {text!r}") from None
    try:
        float(x)
    except OverflowError:
        raise ValueError(f"expected a finite number, got {text!r}") from None
    return x


def _times(text: str) -> list:
    items = [s.strip() for s in text.split(",") if s.strip()]
    if not items:
        raise ValueError("expected a comma-separated list of times")
    return [_fraction(s) for s in items]


def _parse_pair(text: str):
    parts = text.split(":")
    if len(parts) != 2:
        raise ValueError(f"must be lo:hi, got {text!r}")
    lo, hi = (float(_fraction(p)) for p in parts)
    if not 0 < lo < hi:
        raise ValueError(f"must be positive and ascending, got {text!r}")
    return lo, hi


def _parse_grid(text: str):
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"must be lo:hi:n, got {text!r}")
    lo, hi = (float(_fraction(p)) for p in parts[:2])
    try:
        n = int(parts[2])
    except ValueError:
        raise ValueError(f"n must be an integer, got {parts[2]!r}") from None
    if not 1 <= n <= _GRID_MAX:
        raise ValueError(f"need 1 <= n <= {_GRID_MAX}, got {n}")
    if not 0 < lo < hi:
        raise ValueError(f"must be positive and ascending, got {text!r}")
    return lo, hi, n


def _grid(lo: float, hi: float, n: int, log: bool) -> list:
    """n floats from lo to hi, as np.linspace(lo, hi, n) gives them, or
    with log as np.geomspace does: 10 ** x over the linear grid of the
    log10 of the ends, and the ends themselves.  The linear grid is
    np.linspace's bit for bit; libm's log10 and pow may round differently
    from numpy's, so a log grid's inner points may differ from
    np.geomspace's in the last bits."""
    a, b = (math.log10(lo), math.log10(hi)) if log else (lo, hi)
    step = (b - a) / max(n - 1, 1)
    xs = [i * step + a for i in range(n)]
    if log:
        xs = [10.0 ** x for x in xs]
    xs[0] = lo
    if n > 1:
        xs[-1] = hi
    return xs


# --- output ---


def _csv_cell(v) -> str:
    s = "%.17g" % v if isinstance(v, float) else str(v)
    if "," in s or '"' in s or "\n" in s:
        s = '"' + s.replace('"', '""') + '"'
    return s


def _csv_column(values: list):
    """(%-format, values) of one CSV column: a column of floats prints
    with 17 significant digits and one of ints as it is, so a whole row is
    one %-format; any other column is turned into quoted text cell by cell."""
    kinds = set(map(type, values))
    if all(issubclass(k, float) for k in kinds):
        return "%.17g", values
    if kinds <= {int}:
        return "%d", values
    return "%s", [_csv_cell(v) for v in values]


def emit(chunks, fmt: str) -> None:
    """Write a table given as chunks, dicts of equal-length column lists
    with the same names in the same order; each chunk is written as it
    arrives.  CSV has one header line, JSON is one list of row objects."""
    write = sys.stdout.write
    if fmt == "json":
        import json

        sep = "["
        for chunk in chunks:
            rows = [dict(zip(chunk, values)) for values in zip(*chunk.values())]
            if rows:
                write(sep + json.dumps(rows)[1:-1])
                sep = ", "
        write("[]\n" if sep == "[" else "]\n")
        return
    for n, chunk in enumerate(chunks):
        if not n:
            write(",".join(chunk) + "\n")
        formats, cells = zip(*map(_csv_column, chunk.values()))
        row = ",".join(formats) + "\n"
        write("".join([row % values for values in zip(*cells)]))


# --- commands ---


def cmd_list(args) -> int:
    roster = catalog.verification_roster()
    emit([{"label": [spec.label() for spec in roster],
           "family": [spec.family.value for spec in roster],
           "curvature": ["spherical" if catalog.is_spherical(spec) else "flat"
                         for spec in roster]}], args.format)
    return 0


def cmd_spectrum(args) -> int:
    emit(spectrum.level_columns(args.spec, args.max_t), args.format)
    return 0


def cmd_count(args) -> int:
    reps = [spectrum.closed_form_identity(args.spec, t) for t in args.at]
    emit([{"t": [rep.t for rep in reps], "count": [rep.count for rep in reps],
           "closed_form": [rep.closed_form for rep in reps]}], args.format)
    return 0


def cmd_asymptotics(args) -> int:
    from . import asymptotics

    rc = asymptotics.surface_constants(args.spec)
    names = ["A", "B", "C1", "C2", "C3", "C"]
    vals = [getattr(rc, name) for name in names]
    emit([{"constant": names, "symbolic": list(map(str, vals)),
           "decimal": list(map(float, vals))}], args.format)
    return 0


def cmd_avg(args) -> int:
    from . import average

    ts = _grid(*args.grid, args.log)
    avg = average.avg_error_list(args.spec, ts)
    if catalog.is_spherical(args.spec):
        gx = [math.sqrt(t + 0.25) for t in ts]
        g_est = avg
    else:
        gx = list(map(math.sqrt, ts))
        g_est = [a * math.sqrt(x) for a, x in zip(avg, gx)]  # A(t) t^{1/4}
    emit([{"t": ts, "avg": avg, "gx": gx, "g_est": g_est}], args.format)
    return 0


def cmd_gprofile(args) -> int:
    # analysis.make_profile's values and refusals, summed without numpy
    # where average.avg_error_list needs none
    from . import average

    xs = _grid(*args.grid, False)
    if len(xs) < 2:
        raise ValueError("need at least two samples")
    if any(b <= a for a, b in zip(xs, xs[1:])):
        raise ValueError("grid must be strictly ascending")
    if catalog.is_spherical(args.spec):
        if xs[0] <= 0.5:
            raise ValueError("spherical grid values must exceed 1/2")
        g_est = average.avg_error_list(args.spec, [x * x - 0.25 for x in xs])
    else:
        avg = average.avg_error_list(args.spec, [x * x for x in xs])
        g_est = [a * math.sqrt(x) for a, x in zip(avg, xs)]
    emit([{"x": xs, "g_est": g_est}], args.format)
    return 0


def cmd_freq(args) -> int:
    import numpy as np

    from . import analysis

    (x_lo, x_hi), (w_lo, w_hi, n_w) = args.window, args.omega
    span = x_hi - x_lo
    n_samp = max(4001, int(span * w_hi * 8.0 / (2.0 * math.pi)) + 1)
    if n_samp > 2_000_000:
        raise ValueError("--omega: largest frequency needs more than 2e6 "
                         "samples over this window; shrink one of them")
    profile = analysis.make_profile(args.spec, x_lo, x_hi, n=n_samp)
    omega = np.linspace(w_lo, w_hi, n_w)
    amp = np.abs(analysis.fourier_coefficients(profile, omega))
    emit([{"omega": omega.tolist(), "amplitude": amp.tolist()}], args.format)
    return 0


def cmd_proportions(args) -> int:
    from . import analysis

    reports = analysis.symmetry_proportions(args.base, float(args.max_t))
    emit([{name: [getattr(r, name) for r in reports]
           for name in ("irrep", "measured", "predicted", "b_sign", "b_hat")}],
         args.format)
    return 0


def cmd_verify(args) -> int:
    from . import oracle

    start = time.perf_counter()
    rep = oracle.check_equivalence(args.spec, args.max_t, seed=args.seed)
    elapsed = time.perf_counter() - start
    print(f"# {rep.label}: {rep.levels_checked} levels, "
          f"{rep.times_checked} random times, {elapsed:.2f}s", file=sys.stderr)
    if rep.ok:
        print("pass")
        return 0
    print(f"fail: {rep.detail}")
    return 1


def cmd_heat(args) -> int:
    from . import asymptotics

    ts = [float(t) for t in args.at]
    heats = []
    for tf in ts:
        cutoff = 64.0
        while True:
            try:
                heats.append(asymptotics.heat_trace(args.spec, tf, cutoff))
                break
            except asymptotics.TailBoundError:
                cutoff *= 2.0
    smooth = [asymptotics.smooth_heat_trace(args.spec, tf) for tf in ts]
    emit([{"t": ts, "heat": heats, "smooth": smooth,
           "abs_diff": [abs(h - s) for h, s in zip(heats, smooth)]}], args.format)
    return 0


# --- the conjecture pipeline ---


def cmd_conjecture(args) -> int:
    import random

    import numpy as np

    from . import analysis, asymptotics, average

    label = args.spec.label()
    spherical = catalog.is_spherical(args.spec)
    decades = [10.0 ** d for d in range(3, 7 if spherical else 8)]
    t_top = decades[-1]
    spectrum.count(args.spec, t_top)  # build the table once, at its largest cutoff
    out = [f"label: {label}"]
    ok_all = True

    def check(line: str, ok: bool) -> None:
        nonlocal ok_all
        ok_all = ok_all and ok
        out.append(f"check {line} -> {'ok' if ok else 'FAIL'}")

    # window means of the normalized profile
    profiles = {X: analysis.make_profile(args.spec, X, 2 * X, n=8001)
                for X in (100, 200, 400)}
    for X, prof in profiles.items():
        mean = analysis.window_mean(prof)
        bound = 5.0 / X
        check(f"mean [{X},{2 * X}]: {mean:+.6g} within {bound:g}",
              abs(mean) <= bound)

    # decay of the residual
    sups = [average.window_sup(args.spec, lo, hi, np.geomspace(lo, hi, 1200))
            for lo, hi in zip(decades, decades[1:])]
    if spherical:
        slope = average.remainder_exponent(args.spec, 1e3, 1e6)
        check(f"decay: exponent {slope:+.6g} in [-0.65,-0.35]",
              -0.65 <= slope <= -0.35)
    else:
        lo, hi = sorted((sups[0], sups[-1]))
        ratio = hi / lo if lo > 0 else math.inf
        check(f"decay: scaled sups per decade {' '.join('%.6g' % s for s in sups)}, "
              f"first/last ratio {ratio:.6g} within 2", hi <= 2.0 * lo)

    # seeded residual probes at unsampled times
    rng = random.Random(args.seed)
    probes = np.array(sorted({1e3 * (t_top / 1e3) ** rng.random()
                              for _ in range(64)}))
    avg = average.avg_error_grid(args.spec, probes)
    resid = average.residual(args.spec, probes, avg)
    worst = float(np.max(resid * probes ** 0.25))
    allowed = 1.5 * max(sups)
    check(f"probes (seed {args.seed}): worst scaled residual {worst:.6g} "
          f"within {allowed:.6g}", worst <= allowed)

    # frequency content against geodesic lengths
    if spherical:
        prof = profiles[100]
        omega = np.linspace(1.0, 30.0, 1451)
    else:
        prof = analysis.make_profile(args.spec, 200, 800, n=60001)
        omega = np.linspace(1.0, 10.0, 901)
    prof = analysis.frequency_spectrum(prof, omega)
    # the rectangular window sprays sidelobes around each strong line, so
    # only the largest few maxima carry structure worth reporting
    top = sorted(f for f, _, _ in prof.frequencies[:8])
    lengths = asymptotics.geodesic_lengths(args.spec, float(omega[-1]))
    matched = analysis.match_geodesics(top, lengths, _FREQ_TOL)
    out.append("freq top peaks: " + (" ".join("%.6g" % f for f in top) or "none"))
    out.append("geodesic lengths: " + " ".join("%.6g" % l for l in lengths))
    out.append(f"freq matched {len(matched)} of {len(top)} top peaks")
    targets = _ASSERTED_PEAKS.get(label)
    if targets is None:
        out.append("freq comparison: report only for this surface")
    else:
        hit = all(any(abs(f - t) <= _FREQ_TOL for f in top) for t in targets)
        check("freq: geodesic lengths " + " ".join("%.6g" % t for t in targets)
              + f" each seen within {_FREQ_TOL:g}", hit)

    out.append("RESULT: " + ("PASS" if ok_all else "FAIL"))
    sys.stdout.write("\n".join(out) + "\n")
    return 0 if ok_all else 1


# --- wiring ---


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spectralab",
        description="eigenvalue counting refinements and averaged-error "
                    "profiles for flat and round model surfaces")
    sub = parser.add_subparsers(dest="command", required=True)

    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=("csv", "json"), default="csv",
                     help="output encoding (default csv)")
    surface = argparse.ArgumentParser(add_help=False)
    surface.add_argument("spec", type=_arg(parse_surface))

    p = sub.add_parser("list", parents=[fmt],
                       help="every catalog surface swept by verification")
    p.set_defaults(func=cmd_list)

    p = sub.add_parser("spectrum", parents=[fmt, surface],
                       help="dump eigenvalues value,key,multiplicity")
    p.add_argument("--max-t", type=_arg(_fraction), required=True, metavar="T")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("count", parents=[fmt, surface],
                       help="counting function and closed form at given times")
    p.add_argument("--at", type=_arg(_times), required=True, metavar="T1,T2,...")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("asymptotics", parents=[fmt, surface],
                       help="refined constants, symbolic and decimal")
    p.set_defaults(func=cmd_asymptotics)

    p = sub.add_parser("avg", parents=[fmt, surface],
                       help="averaged counting error on a t grid")
    p.add_argument("--grid", type=_arg(_parse_grid), required=True, metavar="T0:T1:N")
    p.add_argument("--log", action="store_true", help="log-spaced grid")
    p.set_defaults(func=cmd_avg)

    p = sub.add_parser("gprofile", parents=[fmt, surface],
                       help="normalized profile g on an x grid")
    p.add_argument("--grid", type=_arg(_parse_grid), required=True, metavar="X0:X1:N")
    p.set_defaults(func=cmd_gprofile)

    p = sub.add_parser("freq", parents=[fmt, surface],
                       help="trigonometric amplitude scan of the profile")
    p.add_argument("--window", type=_arg(_parse_pair), required=True, metavar="X0:X1")
    p.add_argument("--omega", type=_arg(_parse_grid), required=True, metavar="W0:W1:N")
    p.set_defaults(func=cmd_freq)

    p = sub.add_parser("proportions", parents=[fmt],
                       help="symmetry sector shares of a base spectrum")
    p.add_argument("base")
    p.add_argument("--max-t", type=_arg(_fraction), required=True, metavar="T")
    p.set_defaults(func=cmd_proportions)

    p = sub.add_parser("verify", parents=[surface],
                       help="brute-force equivalence check of the level tables")
    p.add_argument("--max-t", type=_arg(_fraction), required=True, metavar="T")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("heat", parents=[fmt, surface],
                       help="heat trace against its short-time expansion")
    p.add_argument("--at", type=_arg(_times), required=True, metavar="T1,T2,...")
    p.set_defaults(func=cmd_heat)

    p = sub.add_parser("conjecture", parents=[surface],
                       help="full pipeline: means, decay, probes, frequencies")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_conjecture)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exit:  # -h, or an argument error argparse printed
        return exit.code
    try:
        return args.func(args)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        print(parser.format_usage().rstrip(), file=sys.stderr)
        return 2
    except ArithmeticError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


def run(argv=None) -> int:
    """The process entry point, of `python -m spectralab.cli` and of the
    `spectralab` script: main(argv), then gc.freeze().  Freezing moves
    every object still alive into the permanent generation, which the
    interpreter's collections at exit skip; exit still flushes the
    streams, runs atexit handlers and frees what reference counting
    frees, and the OS reclaims the rest.  main() itself leaves the
    collector alone, as it also runs inside other processes."""
    try:
        return main(argv)
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(run())
