"""Byte-for-byte golden outputs of the CLI.

Each case runs `vtt.cli.main` in process and compares its stdout with
`tests/golden/<name>.out`.  Graph arguments (`*.graph`) name input files in
`tests/golden/`.  README.md says how to recapture a file by hand.  Listings
too large to keep as files are pinned by the sha256 of their stdout.
"""

import hashlib
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

LARGE_LISTINGS = {
    "classes 41": "0b68d4d2c6e312e131ab3754b719c93317ee40d4a821a2f310fd33af36b8085d",
    "classes 43": "9a8e69d7fc06cde83d97059c2f1ea8a9dae7d4ce61d88eaf8c12cf440db58555",
    "classes 29 --members": "479fc5d0b877f2d9703a9f5f87121e98fc0fa843a6359f2c5ce538ca8e72b39b",
    "count 3..28597": "7fe6222b2c81912f01ff68dc4f0139b9ac18f1adde9e4341e4eb5513765f7064",
    "count 3..28597 --format json":
        "a732b0e8835b8851851a96d93f6172cba20075c5df71610e39e20e450737cb00",
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


@pytest.mark.parametrize("command", sorted(LARGE_LISTINGS))
def test_large_listing_hash(command, capsys):
    assert cli.main(command.split()) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == LARGE_LISTINGS[command]
