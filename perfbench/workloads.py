"""The four workloads: seeded inputs, one timed call per op, output checks.

Each workload turns a seed into an endless, reproducible stream of ops, in
blocks.  Evaluate workloads draw x log-uniform over their band by stratified
sampling: each block of 64 ops holds one x from each of 64 equal log-strata,
in a seeded order (see LogStrata).  Every op is still log-uniform on the band, but a block
has the same x mix whatever the seed, so throughput and percentiles compare
across seeds without thousands of blocks.  The mass is log-uniform on
[1e-6 eV, 1 keV] and T = mc^2/(k x).

The library is always reached through module attributes (``core.evaluate``,
``cli.main``) looked up at call time, so the traced run's wrappers see every
call and the untraced run pays for none.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import random
import re

C = 299_792_458.0
K_B = 1.380_649e-23
EV_KG = 1.602_176_634e-19 / C**2
MASS_EV = (1e-6, 1e3)

# Column sets of the CLI contract, written out here rather than imported so
# that a change to the library's columns fails the check.
POINT_COLUMNS = ("mass_kg", "T_K", "x", "n_per_m3", "u_J_per_m3", "vbar_m_per_s",
                 "R_W_per_m2", "R_naive_W_per_m2", "method_flags")
SWEEP_COLUMNS = ("index",) + POINT_COLUMNS[1:]
FIGURE_COLUMNS = ("x", "kT_over_mc2", "vbar_over_c", "nonrel_approx")
REPORT_FIELDS = ("number_density", "energy_density", "mean_speed", "radiance",
                 "radiance_naive")
CELL = re.compile(r"^-?[0-9]\.[0-9]{16}e[+-][0-9]{2,3}$")  # 17 significant digits

FIGURE_POINTS = 50
SWEEP_POINTS = 25


class LogStrata:
    """Log-uniform draws on a band, k strata per cycle in a seeded order.

    Within a stratum, cycle c draws the point (shift + c * golden) mod 1 of a
    seeded random shift: every draw is still uniform in its stratum, but the
    draws of successive cycles spread evenly over it instead of clumping, so
    a run's x mix depends less on the seed (randomised quasi-Monte Carlo).
    ``open_end`` is "hi" for [lo, hi) and "lo" for (lo, hi]; the excluded
    edge is never returned.
    """

    GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

    def __init__(self, rng: random.Random, lo: float, hi: float, k: int, open_end=None):
        self.rng, self.lo, self.hi, self.k, self.open_end = rng, lo, hi, k, open_end
        self._shift = [rng.random() for _ in range(k)]
        self._cycle = -1
        self._queue: list[int] = []

    def __call__(self) -> float:
        if not self._queue:
            self._queue = list(range(self.k))
            self.rng.shuffle(self._queue)
            self._cycle += 1
        j = self._queue.pop()
        u = (j + (self._shift[j] + self._cycle * self.GOLDEN) % 1.0) / self.k
        if self.open_end == "lo":  # draw from the top down so u = 0 gives hi
            x = self.hi * math.exp(u * math.log(self.lo / self.hi))
            return x if x > self.lo else math.nextafter(self.lo, math.inf)
        x = self.lo * math.exp(u * math.log(self.hi / self.lo))
        if self.open_end == "hi" and x >= self.hi:
            return math.nextafter(self.hi, 0.0)
        return min(x, self.hi)


def _mass_ev(rng: random.Random) -> float:
    return math.exp(rng.uniform(math.log(MASS_EV[0]), math.log(MASS_EV[1])))


def _temperature(m_ev: float, x: float) -> float:
    return m_ev * EV_KG * C * C / (K_B * x)


class EvaluateWorkload:
    """``core.evaluate`` at one (m, T) per op, x drawn from a band of x.

    With ``skip=(a, b)`` the band loses (a, b]: x is drawn log-uniform over
    the band with that stretch cut out and the part above a moved up by b/a.
    """

    kind = "evaluate"
    block_size = 64

    def __init__(self, name, lo, hi, open_end=None, skip=None):
        self.name, self.lo, self.hi, self.open_end = name, lo, hi, open_end
        self.skip = skip

    def stream(self, seed: int):
        rng = random.Random(f"photongas-bench:{self.name}:{seed}")
        stretch = self.skip[1] / self.skip[0] if self.skip else 1.0
        draw = LogStrata(rng, self.lo, self.hi / stretch, self.block_size, self.open_end)
        while True:
            block = []
            for _ in range(self.block_size):
                x, m_ev = draw(), _mass_ev(rng)
                if self.skip and x > self.skip[0]:
                    x *= stretch
                block.append((m_ev * EV_KG, _temperature(m_ev, x)))
            yield block

    @staticmethod
    def run(op, lib, clock):
        """Run one op; returns (ns, output, error)."""
        mass, temperature = op
        t0 = clock()
        try:
            report = lib.core.evaluate(lib.units.GasParameters(mass, temperature))
        except Exception as exc:  # counted by type; nothing may stop the loop
            return clock() - t0, None, exc
        return clock() - t0, report, None

    @staticmethod
    def check(op, output) -> str | None:
        """Cheap per-op check; returns a reason on failure."""
        values = [getattr(output, f) for f in REPORT_FIELDS]
        if not all(math.isfinite(v) and v >= 0.0 for v in values):
            return "non-finite or negative value"
        return None

    @staticmethod
    def reference_pairs(op, output, rng):
        """[(x, T, {field: library value})] to compare with the reference."""
        return [(output.x, output.params.temperature,
                 {f: getattr(output, f) for f in REPORT_FIELDS})]

    @staticmethod
    def fingerprint(output) -> str:
        """Exact text of an output, for the byte-for-byte rerun check."""
        values = ",".join(repr(getattr(output, f)) for f in ("x",) + REPORT_FIELDS)
        return values + ";" + repr(sorted(output.methods.items()))


class CliWorkload:
    """One in-process ``photongas.cli.main(argv)`` per op, writing to files."""

    kind = "cli"
    name = "cli"
    # A block is a seeded shuffle of this mix.  Points and the sweeps that are
    # cheaper than a figure make up less than half of it, and the two figures
    # run at constant cost, so the median op is a figure whatever the seed.
    mix = ("point", "point", "point", "sweep", "sweep", "figure", "figure", "validate")
    block_size = len(mix)
    point_x = (1e-6, 30.0)
    sweep_x_min = (1e-4, 3.0)

    def __init__(self, out_dir=None):
        self.out_dir = out_dir

    def paths(self):
        return {name: os.path.join(self.out_dir, name)
                for name in ("point.csv", "sweep.csv", "figure.csv", "figure.svg")}

    def stream(self, seed: int):
        rng = random.Random(f"photongas-bench:cli:{seed}")
        point_x = LogStrata(rng, *self.point_x, k=24)
        sweep_lo = LogStrata(rng, *self.sweep_x_min, k=32)
        paths = self.paths()
        while True:
            kinds = list(self.mix)
            rng.shuffle(kinds)
            block = []
            for kind in kinds:
                if kind == "point":
                    x, m_ev = point_x(), _mass_ev(rng)
                    argv = ["point", "--mass", f"{m_ev!r}eV", "--temp", repr(_temperature(m_ev, x)),
                            "--format", "csv", "--out", paths["point.csv"]]
                elif kind == "sweep":
                    lo, m_ev = sweep_lo(), _mass_ev(rng)
                    argv = ["sweep", "--mass", f"{m_ev!r}eV", "--variable", "x",
                            "--x-min", repr(lo), "--x-max", repr(10.0 * lo),
                            "--points", str(SWEEP_POINTS), "--spacing", "log",
                            "--out", paths["sweep.csv"]]
                elif kind == "figure":
                    argv = ["figure", "mean-speed", "--out", paths["figure.csv"],
                            "--svg", paths["figure.svg"]]
                else:
                    argv = ["validate"]
                block.append(argv)
            yield block

    def run(self, argv, lib, clock):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = clock()
            try:
                code = lib.cli.main(argv)
            except Exception as exc:  # a traceback is a failed op, not a crash
                return clock() - t0, None, exc
            ns = clock() - t0
        if code != 0:
            return ns, None, _ExitCode(code, err.getvalue())
        files = {}
        for flag, key in (("--out", "out"), ("--svg", "svg")):
            if flag in argv:
                with open(argv[argv.index(flag) + 1], "rb") as handle:
                    files[key] = handle.read()
        return ns, (argv[0], out.getvalue(), files), None

    @staticmethod
    def check(argv, output) -> str | None:
        command, stdout, files = output
        if command == "validate":
            lines = stdout.splitlines()
            return None if lines and lines[-1].startswith("RESULT: PASS") else "validate did not PASS"
        rows = [line.split(",") for line in files["out"].decode().splitlines()]
        columns, expect_rows = {"point": (POINT_COLUMNS, 1), "sweep": (SWEEP_COLUMNS, SWEEP_POINTS),
                                "figure": (FIGURE_COLUMNS, FIGURE_POINTS)}[command]
        if not rows or tuple(rows[0]) != columns:
            return f"{command} header {rows[:1]!r}"
        if len(rows) != expect_rows + 1:
            return f"{command} has {len(rows) - 1} rows"
        for number, row in enumerate(rows[1:]):
            if len(row) != len(columns):
                return f"{command} row {number} has {len(row)} cells"
            for name, cell in zip(columns, row):
                if name == "method_flags" or (name == "nonrel_approx" and cell == ""):
                    continue
                if name == "index":
                    if cell != str(number):
                        return f"sweep index cell {cell!r}"
                elif not CELL.match(cell) or not math.isfinite(float(cell)):
                    return f"{command} cell {name}={cell!r}"
        if command == "figure":
            svg = files["svg"]
            if not (svg.startswith(b"<svg") and svg.endswith(b"</svg>\n")):
                return "figure svg is not a complete document"
        return None

    @staticmethod
    def reference_pairs(argv, output, rng):
        command, _, files = output
        if command not in ("point", "sweep"):
            return []
        rows = [line.split(",") for line in files["out"].decode().splitlines()]
        header, data = rows[0], rows[1:]
        row = dict(zip(header, data[rng.randrange(len(data))]))
        values = {field: float(row[col]) for field, col in zip(
            REPORT_FIELDS, ("n_per_m3", "u_J_per_m3", "vbar_m_per_s", "R_W_per_m2",
                            "R_naive_W_per_m2"))}
        return [(float(row["x"]), float(row["T_K"]), values)]

    @staticmethod
    def fingerprint(output) -> str:
        command, stdout, files = output
        return repr((command, stdout, sorted(files.items())))


class _ExitCode(Exception):
    """A CLI op that returned a non-zero exit code."""

    def __init__(self, code, stderr):
        super().__init__(f"exit {code}: {stderr.strip()}")
        self.code = code


# Today `core.evaluate` raises DomainError for about a fifth of the ops with
# x in [681.5, 745.2], where the SI radiance comes out above its naive c/4
# bound as the values go subnormal, and for every op above x = 5.4e17
# (ROADMAP item 5).  A timed op may not fail, so `cold` leaves out
# (660, 760] and stops at 1e17.  Each `cold` run also evaluates one block of
# ops from each left-out band, untimed, and reports how many raise, so the
# defects stay in view.
DOMAIN_PROBES = (EvaluateWorkload("cold-gap", 660.0, 760.0, "lo"),
                 EvaluateWorkload("cold-top", 1e17, 1e20, "lo"))


def error_type(exc: BaseException) -> str:
    return f"exit{exc.code}" if isinstance(exc, _ExitCode) else type(exc).__name__


WORKLOADS = {
    "hot": EvaluateWorkload("hot", 1e-6, 0.1, "hi"),
    "series": EvaluateWorkload("series", 0.1, 30.0),
    "cold": EvaluateWorkload("cold", 30.0, 1e17, "lo", skip=(660.0, 760.0)),
    "cli": CliWorkload(),
}
