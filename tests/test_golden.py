"""Byte-for-byte golden outputs of the CLI.

Each case runs `vtt.cli.main` in process and compares its stdout with
`tests/golden/<name>.out`.  Graph arguments (`*.graph`) name input files in
`tests/golden/`.  README.md says how to recapture a file by hand.
"""

from pathlib import Path

import pytest

from vtt import cli

GOLDEN = Path(__file__).parent / "golden"

ODD_PRIMES_TO_31 = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31)
GRAPHS = ("petersen", "z7-tournament", "q4", "clebsch", "c5-c3", "c4-c4")

CASES = {
    "count-3..83": "count 3..83",
    "count-331-json": "count 331 --format json",
    "count-28603": "count 28603",
    "classes-11": "classes 11",
    "classes-13-members": "classes 13 --members",
    "classes-37-workers-2": "classes 37 --workers 2",
    **{f"verify-{p}": f"verify {p}" for p in ODD_PRIMES_TO_31},
    **{f"verify-{p}-json": f"verify {p} --format json" for p in ODD_PRIMES_TO_31},
    **{f"recognize-{g}": f"recognize {g}.graph" for g in GRAPHS},
    **{f"recognize-{g}-json": f"recognize {g}.graph --format json" for g in GRAPHS},
    "fixtures-json": "fixtures --format json",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name, capsys):
    argv = [str(GOLDEN / a) if a.endswith(".graph") else a for a in CASES[name].split()]
    assert cli.main(argv) == 0
    out = capsys.readouterr().out.encode()
    assert out == (GOLDEN / f"{name}.out").read_bytes()


def test_every_corpus_file_has_a_case():
    files = {f.stem for f in GOLDEN.glob("*.out")}
    assert files == set(CASES)
