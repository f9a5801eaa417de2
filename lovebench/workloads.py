"""The three benchmark workloads: seeded argv for the lovelab CLI, and the
checks that decide whether a command's output is correct.

Inputs come in cycles of stratified draws.  Each cycle splits every
parameter range into as many strata as the cycle has commands and draws
one value inside each stratum, at a seeded offset that is mirrored in the
upper half of the strata; it pairs the strata of the parameters in a fixed
pattern and runs the commands in a seeded order.  A run of whole cycles
therefore covers each range evenly and symmetrically whatever the seed, so
the cost mix, and with it the run's median, does not hinge on the seed.

This module imports neither numpy nor lovelab; the reference solves take
the package as an argument.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

PI = math.pi
# Closed forms the verify suite is checked against, computed here rather
# than read from the program under test.
C2_TARGET = 1.0 / 6.0 - 1.0 / PI ** 2
_LOG8 = math.log(8.0)
_GAMMA2_TILDE = -2.0 / PI - PI / 4.0 - _LOG8 ** 2 / (4.0 * PI) + 2.0 * _LOG8 / PI

# fit-weak gate: the two-term fit's truncation bias over these windows is
# 1.6e-6 to 2.5e-6; the rival coefficient 1/8 - 1/pi^2 is 4.2e-2 away.
C2_ABS_ERR_MAX = 1e-5
# solve-scan gates: the solver's own collocation-residual limit for the gas
# normalization v0 = 1/(2 pi), and agreement with a solve at twice the nodes.
RESIDUAL_MAX = 1e-8 / (2.0 * PI)
REFERENCE_REL_MAX = 1e-10
# verify-all gate: the CLI's per-report digit thresholds.
DIGIT_THRESHOLDS = {
    "gamma0": 8, "gamma1": 8,
    "gamma2_tilde_via_integral4": 9, "gamma2_tilde_direct": 9,
    "integral4": 9,
    "polylog_n1": 9, "polylog_n2": 9, "polylog_n3": 9, "polylog_n4": 9,
    "residue_k1": 8, "residue_k2": 8, "residue_k3": 8, "residue_k4": 8,
}


@dataclass
class Outcome:
    """Verdict on one command's output."""

    ok: bool
    reason: str = ""
    digits: float = 17.0        # fewest matched significant digits
    values: dict = field(default_factory=dict)


def matched_digits(rel_error: float) -> float:
    """-log10 of a relative error, capped at 17 (NaN gives 0)."""
    if not rel_error >= 1e-17:
        return 0.0 if math.isnan(rel_error) else 17.0
    return -math.log10(rel_error)


def _stratum(offset: float, index: int, count: int, lo: float, hi: float) -> float:
    """Point of stratum `index` of `count` on [lo, hi], log scale, at
    `offset` in [0, 1) into the stratum; mirrored in the upper half."""
    if 2 * index >= count:
        offset = 1.0 - offset
    u = (index + offset) / count
    return math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))


def _parse_csv(out: str, columns: list[str]) -> list[dict[str, str]]:
    lines = out.strip().splitlines()
    if not lines or lines[0].split(",") != columns:
        raise ValueError("unexpected header")
    rows = []
    for line in lines[1:]:
        cells = line.split(",", len(columns) - 1)
        if len(cells) != len(columns):
            raise ValueError(f"row with {len(cells)} cells")
        rows.append(dict(zip(columns, cells)))
    return rows


def _flag(argv: list[str], name: str) -> str:
    return argv[argv.index(name) + 1]


class Workload:
    name = ""
    cycle_length = 1       # commands per stratified cycle
    traced_commands = 1    # commands in the fixed set a traced run repeats
    float_flags: tuple[str, ...] = ()   # argv values a later pass nudges
    passes = 4             # timed tries per input; their median counts
    # Seconds one pass over one cycle took at the baseline (2 vCPUs).  It
    # fixes how many cycles a run times, so a faster or slower program is
    # timed on the same argv.
    cycle_s = 1.0
    rss_repeats = 2        # runs of the heaviest input in the RSS probe
    # The benchmark's own work whose speed the timings are scaled by
    # (run.REFERENCES): the one that slows as this workload's commands do.
    reference = "interpreted"

    def cycle(self, rng: random.Random) -> list[list[str]]:
        raise NotImplementedError

    def cycles(self, seed: int):
        """Endless stream of command cycles; the same seed, the same argv."""
        rng = random.Random(seed)
        while True:
            yield self.cycle(rng)

    def timed_inputs(self, seed: int, seconds: float) -> list[list[str]]:
        """The argv a run times: the first cycles of the seed, as many as
        fill `seconds` at the baseline speed, and at least one."""
        count = max(1, round(seconds / (self.passes * self.cycle_s)))
        return [argv for cycle in itertools.islice(self.cycles(seed), count)
                for argv in cycle]

    def warmup(self) -> list[list[str]]:
        """Untimed commands run before the timed ones, the heaviest input
        of the range first; the RSS probe repeats that first one."""
        raise NotImplementedError

    def nudged(self, argv: list[str], step: int) -> list[str]:
        """argv with every float input scaled by 1 - step * 1e-9: the same
        work, but not the same arguments."""
        out = list(argv)
        for flag in self.float_flags:
            i = out.index(flag) + 1
            out[i] = repr(float(out[i]) * (1.0 - step * 1e-9))
        return out

    def items(self, argv: list[str]) -> int:
        raise NotImplementedError

    def check(self, argv: list[str], rc, out: str) -> Outcome:
        if rc != 0:
            return Outcome(False, f"exit code {rc}", 0.0)
        try:
            return self._check(argv, out)
        except ValueError as exc:
            return Outcome(False, f"unreadable output: {exc}", 0.0)

    def _check(self, argv: list[str], out: str) -> Outcome:
        raise NotImplementedError


class FitWeak(Workload):
    """Dense solves from kappa 0.016 to 0.12 (N about 400 to 3000)."""

    name = "fit-weak"
    cycle_length = 4
    traced_commands = 4
    # --gamma-points per G1 stratum, heaviest stratum first: P 9-11 with
    # the two middle strata, which set the cycle's median, on 9 and 11
    POINTS = (10, 9, 11, 10)
    cycle_s = 6.0
    passes = 3             # one 4-command cycle fills a run
    # gamma-min starts just above 1e-3: at exactly 1e-3 the solved gamma
    # lands 1.1e-5 (relative) below the target and the CLI's window check
    # rejects the fit (exit 1).
    G1 = (1.0001e-3, 2.5e-3)
    G2 = (0.04, 0.05)
    float_flags = ("--gamma-min", "--gamma-max")
    reference = "dense"
    COLUMNS = ["c2", "fit_residual", "dist_takahashi", "dist_kaminaka_wadati",
               "verdict"]

    def argv(self, g1: float, g2: float, points: int) -> list[str]:
        return ["fit-weak", "--gamma-min", repr(g1), "--gamma-max", repr(g2),
                "--gamma-points", str(points), "--workers", "1"]

    def cycle(self, rng):
        k = self.cycle_length
        g1, g2 = rng.random(), rng.random()
        cmds = [self.argv(_stratum(g1, j, k, *self.G1),
                          _stratum(g2, (3 * j) % k, k, *self.G2),
                          self.POINTS[j])
                for j in range(k)]
        rng.shuffle(cmds)
        return cmds

    def warmup(self):
        # The heaviest corner, so peak RSS is the range's worst case
        # whatever the seed draws.
        return [self.argv(self.G1[0], self.G2[1], 11)]

    def items(self, argv):
        return int(_flag(argv, "--gamma-points"))

    def _check(self, argv, out):
        rows = _parse_csv(out, self.COLUMNS)
        if len(rows) != 1:
            raise ValueError(f"{len(rows)} rows")
        c2 = float(rows[0]["c2"])
        err = abs(c2 - C2_TARGET)
        digits = matched_digits(err / C2_TARGET)
        if rows[0]["verdict"] != "takahashi":
            return Outcome(False, f"verdict {rows[0]['verdict']}", digits)
        if not err <= C2_ABS_ERR_MAX:
            return Outcome(False, f"|c2 - target| = {err:.3e}", digits)
        return Outcome(True, digits=digits, values={"c2_abs_err": err})


class SolveScan(Workload):
    """16-point kappa scans from 0.05 to 2 (N 240 to 960) on 2 workers."""

    name = "solve-scan"
    cycle_length = 8
    traced_commands = 16
    POINTS = 16
    cycle_s = 0.6
    # two pool threads make the peak depend on which solves overlap; more
    # runs of the heaviest input settle it near the worst overlap
    rss_repeats = 12
    A = (0.05, 0.1)
    B = (0.5, 2.0)
    float_flags = ("--kappa-min", "--kappa-max")
    COLUMNS = ["kappa", "gamma", "capacitance", "energy", "residual", "error"]
    # rows compared with a reference solve: (row, quantity) cells of this many
    # commands, one per cycle from the start of the run
    REFERENCE_COMMANDS = 8

    def argv(self, a: float, b: float) -> list[str]:
        return ["solve", "--kappa-min", repr(a), "--kappa-max", repr(b),
                "--kappa-points", str(self.POINTS), "--workers", "2"]

    def cycle(self, rng):
        k = self.cycle_length
        a, b = rng.random(), rng.random()
        cmds = [self.argv(_stratum(a, j, k, *self.A),
                          _stratum(b, (3 * j) % k, k, *self.B))
                for j in range(k)]
        rng.shuffle(cmds)
        return cmds

    def warmup(self):
        return [self.argv(self.A[0], self.B[1])] * 3

    def items(self, argv):
        return self.POINTS

    def _check(self, argv, out):
        rows = _parse_csv(out, self.COLUMNS)
        if len(rows) != self.POINTS:
            raise ValueError(f"{len(rows)} rows")
        a, b = float(_flag(argv, "--kappa-min")), float(_flag(argv, "--kappa-max"))
        residual_max = 0.0
        parsed = []
        for i, row in enumerate(rows):
            if row["error"]:
                return Outcome(False, f"row {i}: {row['error']}", 0.0)
            cells = {c: float(row[c]) for c in self.COLUMNS[:-1]}
            if not all(math.isfinite(v) for v in cells.values()):
                return Outcome(False, f"row {i}: non-finite cell", 0.0)
            expected = a * (b / a) ** (i / (self.POINTS - 1))
            if not abs(cells["kappa"] / expected - 1.0) <= 1e-12:
                return Outcome(False, f"row {i}: kappa off the grid", 0.0)
            # gamma = kappa / C holds exactly up to rounding
            if not abs(cells["gamma"] * cells["capacitance"] / cells["kappa"]
                       - 1.0) <= 1e-13:
                return Outcome(False, f"row {i}: gamma * C != kappa", 0.0)
            if not cells["residual"] <= RESIDUAL_MAX:
                return Outcome(False, f"row {i}: residual {cells['residual']:.3e}",
                               0.0)
            residual_max = max(residual_max, cells["residual"])
            parsed.append(cells)
        return Outcome(True, values={"residual_max": residual_max, "rows": parsed})


def reference_digits(lovelab, cells: dict) -> float:
    """Fewest digits on which a CLI row agrees with a solve at twice the
    default node budget (made with the library, outside any timing)."""
    kappa = cells["kappa"]
    n = 2 * lovelab.default_node_count(kappa)
    ref = lovelab.observables(
        lovelab.solve_love(lovelab.LoveProblem(kappa=kappa), n=n))
    rel = max(abs(cells[q] / getattr(ref, q) - 1.0)
              for q in ("gamma", "capacitance", "energy"))
    return matched_digits(rel) if rel <= REFERENCE_REL_MAX else 0.0


def _tn_first(n: int) -> Fraction:
    seq = [Fraction(i) for i in range(1, n + 2)]
    for _ in range(n):
        seq = [(seq[i] - seq[i + 1]) / (i + 1) for i in range(len(seq) - 1)]
    return seq[0]


VERIFY_TARGETS = {
    "gamma0": (1.0 + math.log(PI)) / PI,
    "gamma1": (PI / 6.0 - 1.0 / PI - math.log(PI) / PI
               - math.log(PI) ** 2 / (2.0 * PI)),
    "gamma2_tilde_via_integral4": _GAMMA2_TILDE,
    "gamma2_tilde_direct": _GAMMA2_TILDE,
    "integral4": -2.0 / PI - PI / 2.0 + 2.0 * _LOG8 / PI,
    **{f"polylog_n{n}": float(_tn_first(n)) for n in range(1, 5)},
    **{f"residue_k{k}": k ** k * math.exp(-k) / math.factorial(k - 1)
       for k in range(1, 5)},
}


class VerifyAll(Workload):
    """The 13-report identity suite; it has no inputs, the seed is ignored."""

    name = "verify-all"
    traced_commands = 4
    # No inputs to vary, so the run goes to more tries of each slot.
    passes = 8
    cycle_s = 0.3
    ARGV = ["verify", "--which", "all", "--workers", "1"]
    COLUMNS = ["name", "computed", "target", "abs_error", "digits", "method"]

    def cycle(self, rng):
        return [list(self.ARGV)]

    def warmup(self):
        return [list(self.ARGV)] * 2

    def items(self, argv):
        return len(VERIFY_TARGETS)

    def _check(self, argv, out):
        rows = _parse_csv(out, self.COLUMNS)
        names = [r["name"] for r in rows]
        if names != list(VERIFY_TARGETS):
            raise ValueError(f"reports {names}")
        fewest = 17.0
        for row in rows:
            target = VERIFY_TARGETS[row["name"]]
            digits = matched_digits(abs(float(row["computed"]) - target) / abs(target))
            fewest = min(fewest, digits)
            if not math.floor(digits) >= DIGIT_THRESHOLDS[row["name"]]:
                return Outcome(False, f"{row['name']}: {digits:.2f} digits", fewest)
        return Outcome(True, digits=fewest)


WORKLOADS = {w.name: w for w in (FitWeak(), SolveScan(), VerifyAll())}
