"""Golden outputs: what the CLI prints, pinned against committed tables.

tests/golden/verify-all.csv is the standard output of `lovelab verify
--which all`.  Regenerate it from the repository root with

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python -m lovelab.cli verify --which all > tests/golden/verify-all.csv

A regenerated table changes what the CLI prints: say so where the change
is recorded.
"""

import csv
import io
import math
from pathlib import Path

from lovelab import conjectures
from lovelab.cli import main

GOLDEN = Path(__file__).parent / "golden"

# numpy's SIMD dispatch (AVX-512 or not) moves up to 6 `computed` cells of
# the table by up to 8.8e-16 on one host, and with them `abs_error` and
# `digits`
ULPS = 8


def test_verify_all_matches_the_golden_table(capsys):
    code = main(["verify", "--which", "all"])
    got = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    want = list(csv.reader(io.StringIO((GOLDEN / "verify-all.csv").read_text())))
    assert code == 0
    assert got[0] == want[0] == ["name", "computed", "target", "abs_error", "digits", "method"]
    assert len(got) == len(want)
    for row, golden in zip(got[1:], want[1:]):
        name, computed, target, abs_error, digits, method = row
        assert (name, target, method) == (golden[0], golden[2], golden[5])
        assert abs(float(computed) - float(golden[1])) <= ULPS * math.ulp(float(golden[1])), name
        # the noise columns only by the gate they encode
        assert int(digits) >= conjectures.MIN_DIGITS, name
        assert float(abs_error) <= 10.0 ** -conjectures.MIN_DIGITS * abs(float(target)), name


def test_each_group_prints_its_rows_of_the_suite(capsys):
    # the suite's rows are one shared integral, and no group's value may
    # depend on the others: each group alone prints exactly, byte for byte,
    # its rows of `verify --which all` (which the golden table pins to
    # ULPS: a host's SIMD dispatch may move a row, but every group alone
    # moves with it)
    assert main(["verify", "--which", "all"]) == 0
    suite = capsys.readouterr().out.splitlines()
    golden = (GOLDEN / "verify-all.csv").read_text().splitlines()
    groups = []
    for group in conjectures.SUITE:
        assert main(["verify", "--which", group]) == 0
        header, *rows = capsys.readouterr().out.splitlines()
        assert header == suite[0] == golden[0]
        groups += rows
    assert groups == suite[1:]
    assert [row.split(",")[0] for row in groups] == [row.split(",")[0] for row in golden[1:]]
