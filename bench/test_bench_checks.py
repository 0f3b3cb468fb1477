"""Each workload's check marks an operation failed when its output is
corrupted, and passes vtt's real output.  Run with: python3 -m pytest bench"""

import json
import random
import sys
from types import SimpleNamespace

import pytest

import run
import tracing
import workloads as wl

if str(run.SRC) not in sys.path:
    sys.path.insert(0, str(run.SRC))

import vtt.cli  # noqa: E402
import vtt.fixtures  # noqa: E402

VTT = SimpleNamespace(**{name: sys.modules[f"vtt.{name}"] for name in (
    "cli", "counting", "enumeration", "fixtures", "graphs", "groups", "perm")})


def output_of(argv):
    status, out = wl.cli_op(VTT, argv, check=None).run()
    assert status == 0
    return out


def failed_when_fed(out, check, **extra):
    """Run one round of an op that returns `out`; True if it counts as failed."""
    session = run.Session([wl.Op("op", lambda: (0, out), check, **extra)])
    session.run_round()
    return session.failed == 1 and bool(session.problems)


def test_count_off_by_one():
    check = wl.check_count(3, 101, "tsv")
    out = output_of(["count", "3..101"])
    assert not failed_when_fed(out, check)
    lines = out.splitlines()
    p, count = lines[4].split("\t")
    lines[4] = f"{p}\t{int(count) + 1}"
    assert failed_when_fed("\n".join(lines) + "\n", check)
    assert failed_when_fed("\n".join(out.splitlines()[1:]) + "\n", check)


def test_count_check_restores_digit_limit():
    limit = sys.get_int_max_str_digits()
    big = wl.DIGIT_LIMIT_PRIME
    op = wl.cli_op(VTT, ["count", str(big)], check=None)
    before = op.run()
    with wl.unlimited_int_digits():
        text = f"{big}\t{wl.ref.necklace_count(big)}\n"
    assert wl.check_count(big, big, "tsv")(text) is None
    assert sys.get_int_max_str_digits() == limit
    assert op.run() == before  # the check does not change how vtt behaves


@pytest.fixture(scope="module")
def classes13():
    return output_of(["classes", "13"])


def test_dropped_class(classes13):
    check = wl.check_classes(13, 1)
    assert not failed_when_fed(classes13, check)
    lines = classes13.splitlines()
    assert failed_when_fed("\n".join(lines[:2] + lines[3:]) + "\n", check)


def test_members_corrupted():
    check = wl.check_classes(13, 1)
    out = output_of(["classes", "13", "--members"])
    assert not failed_when_fed(out, check)
    records = [json.loads(line) for line in out.splitlines()]
    records[-1]["members"][-1], records[-2]["members"][-1] = (
        records[-2]["members"][-1], records[-1]["members"][-1])
    corrupted = "".join(json.dumps(r, separators=(",", ":")) + "\n" for r in records)
    assert failed_when_fed(corrupted, check)


def test_workers_output_differs_from_serial(classes13):
    lines = classes13.splitlines()
    serial = "\n".join(lines[1:] + lines[:1]) + "\n"  # same classes, another order
    check = wl.check_classes(13, 1)
    ops = [wl.Op("workers", lambda: (0, classes13), check, same_as="serial"),
           wl.Op("serial", lambda: (0, serial), lambda out: None)]
    session = run.Session(ops)
    session.run_round()
    assert session.failed == 1 and session.problems[0].startswith("workers")


def test_verify_mismatch():
    check = wl.check_verify(13, "text")
    out = output_of(["verify", "13"])
    assert not failed_when_fed(out, check)
    assert failed_when_fed(out.replace("burnside=6", "burnside=7"), check)


def tournament7(tmp_path):
    s = {1, 2, 4}
    g = wl.Graph("QR tournament Z_7", 7, wl.cayley_arcs(7, s), True, True,
                 wl.ref.aut_order_prime_circulant(7, s))
    path = tmp_path / "t7.txt"
    path.write_text(g.text())
    return g, ["recognize", str(path), "--format", "json"]


def test_witness_with_fixed_point(tmp_path):
    g, argv = tournament7(tmp_path)
    check = wl.check_recognize(g)
    out = output_of(argv)
    assert not failed_when_fed(out, check)
    data = json.loads(out)
    doubling = [2 * x % 7 for x in range(7)]  # an automorphism fixing 0
    data["witness"][1] = doubling
    assert failed_when_fed(json.dumps(data), check)


def test_flipped_vertex_transitive(tmp_path):
    g, argv = tournament7(tmp_path)
    data = json.loads(output_of(argv))
    data["vertex_transitive"] = not data["vertex_transitive"]
    assert failed_when_fed(json.dumps(data), wl.check_recognize(g))


def test_pair_and_fixture_checks():
    s = frozenset({1, 2, 4})
    check = wl.check_pair(7, s, frozenset({3, 5, 6}))
    witness = [3 * x % 7 for x in range(7)]
    assert not failed_when_fed(json.dumps(witness), check)
    assert failed_when_fed(json.dumps(None), check)
    assert failed_when_fed(json.dumps(list(range(7))), check)
    assert failed_when_fed("not json", check)
    out = output_of(["fixtures", "--format", "json"])
    assert not failed_when_fed(out, wl.check_fixtures)
    assert failed_when_fed(out.replace('"cyclic_max":4', '"cyclic_max":3'), wl.check_fixtures)


def test_traced_run_checks_automorphism_order(tmp_path):
    g, argv = tournament7(tmp_path)
    ops = [wl.cli_op(VTT, argv, wl.check_recognize(g), aut_order=g.aut_order + 1)]
    tracer = tracing.Tracer()
    tracing.install(tracer, VTT)
    try:
        session = run.Session(ops, tracer)
        session.run_round()
    finally:
        tracer.restore()
    assert session.failed == 1 and "closed form" in session.problems[0]
    assert VTT.perm.automorphisms.__name__ == "automorphisms"
    assert not hasattr(VTT.perm.automorphisms, "__wrapped__")


def test_workload_inputs_depend_only_on_seed(tmp_path):
    for name, make in wl.WORKLOADS.items():
        first = [op.name for op in make(VTT, random.Random(5), tmp_path / name)]
        again = [op.name for op in make(VTT, random.Random(5), tmp_path / name)]
        assert first == again and len(set(first)) == len(first)
