"""Output checks for benchmark jobs.

Exact outputs are checked exactly against the brute-force enumeration in
`spectralab.oracle`, which stays structurally independent of the table
and closed-form routes in `spectralab.spectrum`:

- `spectrum` rows: every (key, multiplicity) equals the enumeration, and
  each value is key * pi^2 (or N(N+1)) to 1e-14 relative;
- `count` rows: count and closed form both equal the enumerated number of
  levels <= t, decided with a 50-digit enclosure of pi;
- `verify` prints `pass`, `conjecture` prints `RESULT: PASS`.

Float outputs are checked against references computed here with numpy
from the enumerated levels and the refined constants:

- `avg` and `gprofile`: the averaged error is a difference of terms of
  size about A t / 2 that nearly cancel.  Each value must lie within
  AVG_RTOL of the size of those terms.  The seed commit's values lie
  within 1e-15 of it; summing the prefix sums in another order may cost
  a few hundred ulp more.  One missing level moves values by 1e-8 of it
  or more (the last level below t = 1.3e5 of a rational rectangle).
- `freq`: each amplitude must lie within FREQ_RTOL of the largest
  amplitude of the scan.  The seed commit's dense scan lies within 1e-10
  of the peak from the cos/sin sums here; a chirp-z scan of the same sums
  differs from the dense one by about 5e-10 of the peak (7.6e-11 on a
  peak of 0.157).  Zeroing the weight of the last of 8149 samples moves
  amplitudes by 8e-5 of the peak.

Each checker takes the job argv, the exit status and stdout, and returns
an error string, or None when the output is right.
"""

from __future__ import annotations

import bisect
import math
from fractions import Fraction

import numpy as np

AVG_RTOL = 1e-12
FREQ_RTOL = 1e-8
VALUE_RTOL = 1e-14

_PI_50 = Fraction(31415926535897932384626433832795028841971693993751, 10 ** 49)
PI_LO = _PI_50
PI_HI = _PI_50 + Fraction(1, 10 ** 49)


class Checker:
    """Checks job outputs; caches enumerations and references per job."""

    def __init__(self, spectralab):
        self._lab = spectralab
        self._levels: dict = {}
        self._refs: dict = {}

    # --- helpers ---

    def _spec(self, label: str):
        return self._lab.catalog.parse_spec(label)

    def _spherical(self, label: str) -> bool:
        return self._lab.catalog.is_spherical(self._spec(label))

    def levels(self, label: str, T: Fraction) -> list:
        """Enumerated (key, multiplicity) pairs <= T, cached per label; a
        larger cached enumeration answers a smaller T."""
        have = self._levels.get(label)
        if have is None or have[0] < T:
            have = (T, self._lab.oracle.brute_levels(self._spec(label), T))
            self._levels[label] = have
        cap, levels = have
        if cap == T:
            return levels
        spherical = self._spherical(label)
        keep = []
        for key, mult in levels:
            if (key * (key + 1) if spherical else key * PI_LO * PI_LO) > T:
                break
            keep.append((key, mult))
        return keep

    def _count_at(self, label: str, levels: list, t: Fraction) -> int:
        keys = [k for k, _ in levels]
        if self._spherical(label):
            # N(N+1) <= t with N >= 0 integer
            n = (math.isqrt(4 * math.floor(t) + 1) - 1) // 2
            idx = bisect.bisect_right(keys, n)
        else:
            idx = bisect.bisect_right(keys, t / (PI_HI * PI_HI))
            if idx != bisect.bisect_right(keys, t / (PI_LO * PI_LO)):
                raise ArithmeticError(f"cutoff {t} too close to a level")
        return sum(m for _, m in levels[:idx])

    def _constants(self, label: str):
        rc = self._lab.asymptotics.surface_constants(self._spec(label))
        return float(rc.A), float(rc.B), float(rc.C), bool(rc.sqrt_shift)

    def avg_reference(self, label: str, ts: np.ndarray):
        """(avg, scale) at ascending ts: the averaged error and the size of
        the terms that cancel in it."""
        T = Fraction(float(ts[-1]))
        levels = self.levels(label, T)
        A, B, C, shift = self._constants(label)
        mults = np.array([m for _, m in levels], dtype=np.int64)
        counts = np.concatenate(([0], np.cumsum(mults)))
        if self._spherical(label):
            vals = np.array([float(k * (k + 1)) for k, _ in levels])
            weighted = [0]
            for k, m in levels:
                weighted.append(weighted[-1] + m * k * (k + 1))
            level_sum = [float(w) for w in weighted]
        else:
            pi2 = math.pi * math.pi
            vals = np.array([float(k) * pi2 for k, _ in levels])
            den = math.lcm(*(k.denominator for k, _ in levels)) if levels else 1
            weighted = [0]
            for k, m in levels:
                weighted.append(weighted[-1] + m * (k.numerator * (den // k.denominator)))
            level_sum = [w / den * pi2 for w in weighted]
        idx = np.searchsorted(vals, ts, side="right")
        avg = np.empty(ts.size)
        scale = np.empty(ts.size)
        for i, (t, j) in enumerate(zip(ts.tolist(), idx.tolist())):
            root = (t + 0.25) ** 1.5 - 0.125 if shift else t ** 1.5
            terms = (t * float(counts[j]), -level_sum[j], -0.5 * A * t * t,
                     -(2.0 / 3.0) * B * root, -C * t)
            avg[i] = math.fsum(terms) / t
            scale[i] = math.fsum(abs(x) for x in terms) / t
        return avg, scale

    def profile_reference(self, label: str, xs: np.ndarray):
        """(g, scale) of the normalized profile on an x grid."""
        if self._spherical(label):
            return self.avg_reference(label, xs * xs - 0.25)
        avg, scale = self.avg_reference(label, xs * xs)
        root = np.sqrt(xs)
        return avg * root, scale * root

    # --- per-command checks ---

    def check(self, argv: tuple, code: int, stdout: str):
        kind = argv[0]
        if code != 0:
            return f"exit status {code}"
        try:
            return getattr(self, "_check_" + kind)(argv, stdout)
        except (ValueError, IndexError, KeyError, ArithmeticError) as err:
            return f"output could not be checked: {err!r}"

    @staticmethod
    def _opts(argv: tuple) -> dict:
        return dict(zip(argv[2::2], argv[3::2]))

    @staticmethod
    def _rows(stdout: str, header: str) -> list[list[str]]:
        lines = stdout.splitlines()
        if not lines or lines[0] != header:
            raise ValueError(f"header {lines[:1]!r}, want {header!r}")
        return [line.split(",") for line in lines[1:]]

    def _check_conjecture(self, argv, stdout):
        last = stdout.rstrip("\n").rsplit("\n", 1)[-1]
        return None if last == "RESULT: PASS" else f"last line {last!r}"

    def _check_verify(self, argv, stdout):
        return None if stdout == "pass\n" else f"printed {stdout[:200]!r}"

    def _check_spectrum(self, argv, stdout):
        label, T = argv[1], Fraction(self._opts(argv)["--max-t"])
        rows = self._rows(stdout, "value,key,multiplicity")
        want = self.levels(label, T)
        if len(rows) != len(want):
            return f"{len(rows)} levels, enumeration has {len(want)}"
        pi2 = math.pi * math.pi
        spherical = self._spherical(label)
        for i, ((value, key, mult), (wkey, wmult)) in enumerate(zip(rows, want)):
            if Fraction(key) != wkey or int(mult) != wmult:
                return f"level {i}: ({key}, {mult}), enumeration ({wkey}, {wmult})"
            ref = float(wkey * (wkey + 1)) if spherical else float(wkey) * pi2
            if abs(float(value) - ref) > VALUE_RTOL * ref:
                return f"level {i}: value {value}, want {ref!r}"
        return None

    def _check_count(self, argv, stdout):
        label = argv[1]
        times = [Fraction(s) for s in self._opts(argv)["--at"].split(",")]
        rows = self._rows(stdout, "t,count,closed_form")
        if len(rows) != len(times):
            return f"{len(rows)} rows for {len(times)} times"
        levels = self.levels(label, max(times))
        for (t_out, count, closed), t in zip(rows, times):
            want = self._count_at(label, levels, t)
            if float(t_out) != float(t):
                return f"t {t_out}, asked {t}"
            if int(count) != want or int(closed) != want:
                return f"t={t}: count {count}, closed form {closed}, enumeration {want}"
        return None

    def _check_avg(self, argv, stdout):
        label = argv[1]
        lo, hi, n = self._opts(argv)["--grid"].split(":")
        ts = np.linspace(float(Fraction(lo)), float(Fraction(hi)), int(n))
        rows = np.array(self._rows(stdout, "t,avg,gx,g_est"), dtype=np.float64)
        if rows.shape != (ts.size, 4):
            return f"output shape {rows.shape}, want ({ts.size}, 4)"
        if not np.allclose(rows[:, 0], ts, rtol=VALUE_RTOL, atol=0):
            return "t grid differs from linspace"
        key = ("avg", label, ts.size, float(ts[0]), float(ts[-1]))
        if key not in self._refs:
            self._refs[key] = self.avg_reference(label, ts)
        avg, scale = self._refs[key]
        err = np.abs(rows[:, 1] - avg) / scale
        if err.max() > AVG_RTOL:
            i = int(err.argmax())
            return f"avg at t={ts[i]!r}: {rows[i, 1]!r}, reference {avg[i]!r}"
        spherical = self._spherical(label)
        gx = np.sqrt(ts + 0.25) if spherical else np.sqrt(ts)
        g_est = avg if spherical else avg * ts ** 0.25
        g_scale = scale if spherical else scale * ts ** 0.25
        if not np.allclose(rows[:, 2], gx, rtol=VALUE_RTOL, atol=0):
            return "gx column is not the profile coordinate"
        if np.max(np.abs(rows[:, 3] - g_est) / g_scale) > AVG_RTOL:
            return "g_est column differs from the reference"
        return None

    def _check_gprofile(self, argv, stdout):
        label = argv[1]
        lo, hi, n = self._opts(argv)["--grid"].split(":")
        xs = np.linspace(float(Fraction(lo)), float(Fraction(hi)), int(n))
        rows = np.array(self._rows(stdout, "x,g_est"), dtype=np.float64)
        if rows.shape != (xs.size, 2):
            return f"output shape {rows.shape}, want ({xs.size}, 2)"
        if not np.allclose(rows[:, 0], xs, rtol=VALUE_RTOL, atol=0):
            return "x grid differs from linspace"
        key = ("g", label, xs.size, float(xs[0]), float(xs[-1]))
        if key not in self._refs:
            self._refs[key] = self.profile_reference(label, xs)
        g, scale = self._refs[key]
        err = np.abs(rows[:, 1] - g) / scale
        if err.max() > AVG_RTOL:
            i = int(err.argmax())
            return f"g at x={xs[i]!r}: {rows[i, 1]!r}, reference {g[i]!r}"
        return None

    def freq_reference(self, label: str, window: str, omega: str) -> np.ndarray:
        x_lo, x_hi = (float(Fraction(s)) for s in window.split(":"))
        w_lo, w_hi, n_w = omega.split(":")
        w_lo, w_hi = float(Fraction(w_lo)), float(Fraction(w_hi))
        omegas = np.linspace(w_lo, w_hi, int(n_w))
        # the sample count the `freq` command documents: 8 per shortest period
        n_samp = max(4001, int((x_hi - x_lo) * w_hi * 8.0 / (2.0 * math.pi)) + 1)
        xs = np.linspace(x_lo, x_hi, n_samp)
        g, _ = self.profile_reference(label, xs)
        w = np.empty_like(xs)
        w[1:-1] = 0.5 * (xs[2:] - xs[:-2])
        w[0] = 0.5 * (xs[1] - xs[0])
        w[-1] = 0.5 * (xs[-1] - xs[-2])
        gw = g * w
        amp = np.empty(omegas.size)
        step = max(1, int(2e6 // xs.size))
        for i in range(0, omegas.size, step):
            phase = np.outer(omegas[i:i + step], xs)
            amp[i:i + step] = np.hypot(np.cos(phase) @ gw, np.sin(phase) @ gw)
        return omegas, amp * (2.0 / (xs[-1] - xs[0]))

    def _check_freq(self, argv, stdout):
        opts = self._opts(argv)
        key = ("freq", argv[1], opts["--window"], opts["--omega"])
        if key not in self._refs:
            self._refs[key] = self.freq_reference(argv[1], opts["--window"], opts["--omega"])
        omegas, amp = self._refs[key]
        rows = np.array(self._rows(stdout, "omega,amplitude"), dtype=np.float64)
        if rows.shape != (omegas.size, 2):
            return f"output shape {rows.shape}, want ({omegas.size}, 2)"
        if not np.allclose(rows[:, 0], omegas, rtol=VALUE_RTOL, atol=0):
            return "omega grid differs from linspace"
        err = np.abs(rows[:, 1] - amp) / amp.max()
        if err.max() > FREQ_RTOL:
            i = int(err.argmax())
            return f"amplitude at omega={omegas[i]!r}: {rows[i, 1]!r}, reference {amp[i]!r}"
        return None
