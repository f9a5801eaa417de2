"""Write the reference tables that tier-1 reads in place of recomputing
fixed mpmath values on every run.

    python tests/reference/generate.py [DIRECTORY]

writes each table into DIRECTORY (default: this file's directory).  It
imports mpmath only, so a table checks lovelab against an evaluation that
shares no code with it, and a rerun reproduces every table byte for byte:
CI reruns it and compares.  Each table holds its inputs as the shortest
decimal strings of their doubles and each value to 30 significant digits.

k2_edge.csv: k2(r, eps) = -(2 r / pi) sum_n (1/n) I_2(n a) K_1(n b), a =
pi/eps, b = pi r/eps, at 40 digits: the first 60 terms summed directly and
the rest from 14 powers of the product of the large-argument expansions
(DLMF 10.40.1-2), whose power sums are mpmath's Hurwitz zeta (r = 1) and
Lerch phi.
"""

import sys
from pathlib import Path

import mpmath

# (r, eps): r = 1 and next to it, where k2's terms fall only like 1/n^2,
# and one r with fast decay
K2_EDGE = [(1.0, 0.1), (1.0 + 1e-9, 0.1), (1.0 + 1e-9, 1e-3), (1.0 + 1e-6, 1e-3),
           (1.0 + 1e-4, 1e-3), (1.5, 0.01)]


def hankel(nu, k):
    """a_k(nu) of the large-argument expansions of I_nu and K_nu (DLMF 10.17.1)."""
    return mpmath.fprod(4 * nu * nu - (2 * i - 1) ** 2 for i in range(1, k + 1)) / (
        mpmath.factorial(k) * mpmath.mpf(8) ** k)


def k2(r, eps, head_terms=60, powers=14):
    a, b, x = mpmath.pi / eps, mpmath.pi * r / eps, mpmath.pi * (r - 1) / eps
    head = mpmath.fsum(mpmath.besseli(2, n * a) * mpmath.besselk(1, n * b) / n
                       for n in range(1, head_terms + 1))
    tail = mpmath.fsum(
        mpmath.fsum((-1) ** j * hankel(2, j) / a ** j * hankel(1, k - j) / b ** (k - j)
                    for j in range(k + 1))
        * (mpmath.zeta(k + 2, head_terms + 1) if x == 0 else
           mpmath.exp(-(head_terms + 1) * x) * mpmath.lerchphi(mpmath.exp(-x), k + 2,
                                                                head_terms + 1))
        for k in range(powers))
    return -(2 / mpmath.pi) * r * (head + tail / (2 * mpmath.sqrt(a * b)))


def k2_edge_table():
    lines = ["r,eps,k2"]
    for r, eps in K2_EDGE:
        with mpmath.workdps(40):
            value = k2(mpmath.mpf(r), mpmath.mpf(eps))
            lines.append(f"{r!r},{eps!r},{mpmath.nstr(value, 30)}")
    return "\n".join(lines) + "\n"


def main(directory):
    directory.mkdir(parents=True, exist_ok=True)
    (directory / "k2_edge.csv").write_text(k2_edge_table(), encoding="utf-8")


if __name__ == "__main__":
    main(Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).resolve().parent)
