import json
import os
import sys
import time
import tracemalloc
from array import array
from dataclasses import replace
from pathlib import Path

import pytest

from vtt import cli, counting, perm
from vtt.counting import class_count
from vtt.errors import InconsistencyError
from vtt.fixtures import run_all
from vtt.graphs import cayley_digraph, petersen
from vtt.groups import cyclic, divisors, is_prime

GOLDEN = Path(__file__).parent / "golden"


def edge_list(g):
    return "".join(f"{u} {v}\n" for u, v in g.arcs())


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCount:
    def test_single_prime(self, capsys):
        code, out, _ = run(capsys, "count", "11")
        assert code == 0
        assert out == "11\t4\n"

    def test_range(self, capsys):
        code, out, _ = run(capsys, "count", "3..13")
        assert code == 0
        assert out == "3\t1\n5\t1\n7\t2\n11\t4\n13\t6\n"

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "count", "7", "--format", "json")
        assert code == 0
        assert json.loads(out) == [{"p": 7, "count": 2}]

    def test_range_with_even_lower_end(self, capsys):
        code, out, _ = run(capsys, "count", "20000..20100")
        assert code == 0
        assert out == run(capsys, "count", "20001..20100")[1] != ""

    @pytest.mark.parametrize("p", [28603, 100003])
    def test_count_past_default_digit_limit(self, capsys, p):
        code, out, _ = run(capsys, "count", str(p))
        assert code == 0
        # str() of the count needs the default limit lifted, vtt's output does
        # not; Python before 3.10.7 has neither the limit nor its setter
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if limit:
            sys.set_int_max_str_digits(0)
        try:
            assert out == f"{p}\t{class_count(p)}\n"
        finally:
            if limit:
                sys.set_int_max_str_digits(limit)

    def test_count_past_digit_cap(self, capsys):
        # the smallest prime whose count has more than 100,000 digits
        code, out, err = run(capsys, "count", "664427")
        assert code == 3
        assert out == ""
        assert "digits" in err

    @pytest.mark.parametrize("arg", ["1000003", "3..1000003"])
    def test_digit_cap_decided_before_counting(self, capsys, monkeypatch, arg):
        # the count is at least 2^((p-1)/2)/(p-1), so p alone decides the cap
        # phi_table and count_table both run the recursion through _phi_table
        def refuse(p):
            raise AssertionError(f"_phi_table({p}) ran")
        monkeypatch.setattr(counting, "_phi_table", refuse)
        # a range would first build its least-factor table up to 1000003
        monkeypatch.setattr(counting, "_least_factors", refuse)
        code, out, err = run(capsys, "count", arg)
        assert code == 3
        assert out == ""
        assert "digits" in err

    def test_rejects_non_prime(self, capsys):
        for arg in ("4", "9"):
            code, _, err = run(capsys, "count", arg)
            assert code == 2
            assert "not an odd prime" in err

    def test_single_prime_is_tested_once(self, capsys, monkeypatch):
        want = f"3001\t{class_count(3001)}\n"
        calls = []
        def spy(n):
            calls.append(n)
            return is_prime(n)
        monkeypatch.setattr(cli, "is_prime", spy)
        monkeypatch.setattr(counting, "is_prime", spy)
        code, out, _ = run(capsys, "count", "3001")
        assert code == 0
        assert out == want
        assert calls == [3001]

    @pytest.mark.parametrize("trim, message", [
        (lambda divs: divs[:-1], "non-exact division at p=331, m=55"),
        (lambda divs: divs[1:], "class sizes do not exhaust all sets for p=331"),
    ], ids=["without-r", "without-1"])
    def test_recursion_inconsistency_exits_1(self, capsys, monkeypatch, trim, message):
        monkeypatch.setattr(counting, "divisors", lambda r: trim(divisors(r)))
        with pytest.raises(InconsistencyError, match=message):
            counting.phi_table(331)
        code, out, err = run(capsys, "count", "331")
        assert code == 1
        assert out == ""
        assert message in err

    @pytest.mark.parametrize("trim, message", [
        (lambda divs: divs[:-1], "non-exact division at p=331, m=55"),
        (lambda divs: divs[1:], "class sizes do not exhaust all sets for p=331"),
    ], ids=["without-r", "without-1"])
    def test_range_recursion_inconsistency_exits_1(self, capsys, monkeypatch, trim, message):
        # a range reads the factors of each p - 1 off its least-factor table
        monkeypatch.setattr(counting, "divisors", lambda r, least: trim(divisors(r, least)))
        code, out, err = run(capsys, "count", "331..331")
        assert code == 1
        assert out == ""
        assert message in err

    @pytest.mark.parametrize("arg", ["331", "331..331"])
    def test_division_at_m1_checked_modulo_p_minus_1(self, capsys, monkeypatch, arg):
        # with the divisors 1 and 165 alone, m = 165 divides exactly and only
        # the step at m = 1, checked modulo 330 without forming 2^165, does not
        monkeypatch.setattr(counting, "divisors", lambda r, *least: [1, r])
        message = "non-exact division at p=331, m=1"
        with pytest.raises(InconsistencyError, match=message):
            counting.phi_table(331)
        code, out, err = run(capsys, "count", arg)
        assert code == 1
        assert out == ""
        assert message in err

    # p - 1 a power of two, so the residual f is 0; then primes with 3 not
    # dividing p - 1, whose largest residual term has at most a fifth of the
    # bits of 2^h
    @pytest.mark.parametrize("p", [3, 5, 17, 257, 65537, 11, 23, 29, 2003, 28571])
    def test_count_from_the_residual(self, capsys, p):
        code, out, _ = run(capsys, "count", str(p))
        assert code == 0
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if limit:
            sys.set_int_max_str_digits(0)
        try:
            assert out == f"{p}\t{class_count(p)}\n"
        finally:
            if limit:
                sys.set_int_max_str_digits(limit)

    def test_range_streams_its_lines(self, monkeypatch):
        # the 3,111 lines are about 6.3 MB, written one at a time; the rows
        # of residuals, which every line waits for, are about 1 MB
        with open(os.devnull, "w") as sink:
            monkeypatch.setattr(sys, "stdout", sink)
            tracemalloc.start()
            try:
                code = cli.main(["count", "3..28597", "--format", "json"])
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert code == 0
        assert peak < 3 * 2**20

    @pytest.mark.parametrize("fmt, want", [("tsv", ""), ("json", "[]\n")])
    def test_range_without_primes(self, capsys, fmt, want):
        assert run(capsys, "count", "8..10", "--format", fmt) == (0, want, "")

    def test_rejects_garbage(self, capsys):
        code, _, err = run(capsys, "count", "eleven")
        assert code == 2

    def test_env_format_override(self, capsys, monkeypatch):
        monkeypatch.setenv("VTT_FORMAT", "json")
        code, out, _ = run(capsys, "count", "7")
        assert code == 0
        assert json.loads(out) == [{"p": 7, "count": 2}]

    def test_flag_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("VTT_FORMAT", "json")
        code, out, _ = run(capsys, "count", "7", "--format", "tsv")
        assert out == "7\t2\n"


class TestClasses:
    def test_p11(self, capsys):
        code, out, _ = run(capsys, "classes", "11")
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        assert len(records) == 4
        assert sorted(r["size"] for r in records) == [2, 10, 10, 10]
        assert all(r["p"] == 11 for r in records)

    def test_p3(self, capsys):
        code, out, _ = run(capsys, "classes", "3")
        assert code == 0
        assert out == '{"p":3,"rep":[2],"size":2}\n'

    def test_members_flag(self, capsys):
        code, out, _ = run(capsys, "classes", "7", "--members")
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        assert len(records) == 2
        assert sum(len(r["members"]) for r in records) == 8

    def test_over_budget(self, capsys):
        code, _, err = run(capsys, "classes", "67")
        assert code == 3
        assert "budget" in err

    @pytest.mark.parametrize("n,code", [(9, 2), (64, 2), (63, 3)])
    def test_parity_then_budget_then_primality(self, capsys, n, code):
        # an odd n past the mask budget is refused before its primality is tested
        assert run(capsys, "classes", str(n))[0] == code

    def test_default_budget_refuses_p59(self, capsys, monkeypatch):
        def fail(*args):
            raise AssertionError("enumeration started past the budget")
        monkeypatch.setattr(cli.enumeration, "_choice_images", fail)
        code, out, err = run(capsys, "classes", "59")
        assert code == 3
        assert out == ""
        assert "budget" in err

    def test_default_budget_refuses_members_at_p59(self, capsys, monkeypatch):
        def fail(*args):
            raise AssertionError("enumeration started past the budget")
        monkeypatch.setattr(cli.enumeration, "_choice_images", fail)
        code, out, err = run(capsys, "classes", "59", "--members")
        assert code == 3
        assert out == ""
        assert "budget" in err

    def test_members_stream_one_orbit_at_a_time(self, monkeypatch):
        # 2^15 masks at p = 31; holding every member list at once costs over 150 B per mask
        with open(os.devnull, "w") as sink:
            monkeypatch.setattr(sys, "stdout", sink)
            tracemalloc.start()
            try:
                code = cli.main(["classes", "31", "--members"])
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert code == 0
        assert peak / (1 << 15) < 40

    def test_worker_output_identical(self, capsys):
        _, seq, _ = run(capsys, "classes", "11", "--workers", "1")
        _, par, _ = run(capsys, "classes", "11", "--workers", "2")
        assert seq == par

    def test_env_members(self, capsys, monkeypatch):
        monkeypatch.setenv("VTT_MEMBERS", "1")
        _, out, _ = run(capsys, "classes", "3")
        assert "members" in out
        monkeypatch.setenv("VTT_MEMBERS", "Off")
        _, out, _ = run(capsys, "classes", "3")
        assert out == '{"p":3,"rep":[2],"size":2}\n'


class TestVerify:
    def test_p11(self, capsys):
        code, out, _ = run(capsys, "verify", "11")
        assert code == 0
        assert out == "formula=4 enumeration=4 burnside=4 OK\n"

    def test_p31(self, capsys):
        code, out, _ = run(capsys, "verify", "31")
        assert code == 0
        assert out == "formula=1096 enumeration=1096 burnside=1096 OK\n"

    def test_p3_json(self, capsys):
        code, out, _ = run(capsys, "verify", "3", "--format", "json")
        assert code == 0
        assert json.loads(out) == {"p": 3, "formula": 1, "enumeration": 1,
                                   "burnside": 1, "ok": True}

    def test_bad_input(self, capsys):
        code, _, _ = run(capsys, "verify", "9")
        assert code == 2

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_class_sizes_compared(self, capsys, monkeypatch, fmt):
        # four classes as the formula says, but sizes 2, 2, 10, 10 where the
        # formula has one class of size 2 and three of size 10
        real = cli.enumeration.equivalence_classes

        def resized(p, **kwargs):
            return replace(real(p, **kwargs), orbit_sizes=array("I", (2, 2, 10, 10)))
        monkeypatch.setattr(cli.enumeration, "equivalence_classes", resized)
        code, out, _ = run(capsys, "verify", "11", "--format", fmt)
        assert code == 1
        if fmt == "json":
            assert json.loads(out)["ok"] is False
        else:
            assert out == "formula=4 enumeration=4 burnside=4 MISMATCH\n"

    def test_inconsistent_enumeration_exits_1(self, capsys, monkeypatch):
        # unit 3 taken for the identity: the class sizes no longer add up, so
        # the enumeration raises before verify prints a line
        real = cli.enumeration._choice_images

        def identity_for_3(p, a):
            return (list(range((p - 1) // 2)), 0) if a == 3 else real(p, a)
        monkeypatch.setattr(cli.enumeration, "_choice_images", identity_for_3)
        code, out, err = run(capsys, "verify", "13")
        assert code == 1
        assert out == ""
        assert "class sizes" in err


@pytest.mark.parametrize("command", ["classes", "verify"])
def test_huge_prime_refused_before_trial_division(capsys, command):
    # 2^61 - 1 is prime: trial division up to its square root takes minutes,
    # while the mask budget refuses it at once
    start = time.perf_counter()
    code, out, err = run(capsys, command, str(2**61 - 1))
    assert time.perf_counter() - start < 1
    assert code == 3
    assert out == ""
    assert "budget" in err


class TestRecognize:
    def test_petersen(self, capsys, tmp_path):
        path = tmp_path / "pet.txt"
        path.write_text("digraph 10\n" + edge_list(petersen()))
        code, out, _ = run(capsys, "recognize", str(path))
        assert code == 0
        assert out.splitlines()[0] == "vertex-transitive: yes, cayley: no"

    def test_directed_triangle(self, capsys, tmp_path):
        path = tmp_path / "tri.txt"
        path.write_text("digraph 3\n0 1\n1 2\n2 0\n")
        code, out, _ = run(capsys, "recognize", str(path))
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "vertex-transitive: yes, cayley: yes"
        assert lines[1].startswith("witness: ")
        assert "(0 1 2)" in lines[1]

    def test_exported_tournament_is_cayley(self, capsys, tmp_path):
        g = cayley_digraph(cyclic(7), {1, 2, 3})
        path = tmp_path / "t7.txt"
        path.write_text("digraph 7\n" + edge_list(g))
        code, out, _ = run(capsys, "recognize", str(path))
        assert code == 0
        assert "cayley: yes" in out.splitlines()[0]

    def test_undirected_header(self, capsys, tmp_path):
        path = tmp_path / "pent.txt"
        path.write_text("graph 5\n0 1\n1 2\n2 3\n3 4\n4 0\n")
        code, out, _ = run(capsys, "recognize", str(path), "--format", "json")
        record = json.loads(out)
        assert record["vertex_transitive"] and record["cayley"]
        assert len(record["witness"]) == 5

    def test_parse_failure(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("nonsense\n")
        code, _, err = run(capsys, "recognize", str(path))
        assert code == 2

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "recognize", "/nonexistent/graph.txt")
        assert code == 2

    def test_cap_exceeded(self, capsys, tmp_path):
        path = tmp_path / "c17.txt"
        path.write_text("graph 17\n" + "".join(f"{v} {(v + 1) % 17}\n" for v in range(17)))
        code, _, err = run(capsys, "recognize", str(path))
        assert code == 3
        code, out, _ = run(capsys, "recognize", str(path), "--aut-cap", "17")
        assert code == 0

    @pytest.mark.parametrize("header,edges", [
        ("digraph 16", ""),
        ("graph 16", "".join(f"{u} {v}\n" for u in range(16) for v in range(u + 1, 16))),
    ], ids=["empty", "complete"])
    def test_automorphism_ceiling(self, capsys, tmp_path, header, edges):
        # the empty and complete graphs on 16 vertices have 16! automorphisms
        path = tmp_path / "g16.txt"
        path.write_text(f"{header}\n{edges}")
        start = time.perf_counter()
        code, out, err = run(capsys, "recognize", str(path))
        assert time.perf_counter() - start < 10
        assert code == 3
        assert out == ""
        assert "automorphisms" in err

    @pytest.mark.parametrize("header,edges", [
        ("digraph 16", ""),
        ("graph 16", "".join(f"{u} {v}\n" for u in range(16) for v in range(u + 1, 16))),
    ], ids=["empty", "complete"])
    def test_ceiling_checked_against_the_group_order(self, capsys, tmp_path, header, edges):
        # the empty and complete graphs on 16 vertices have 16! automorphisms,
        # known from the stabilizer chain's level sizes before the
        # regular-subgroup search could walk a coset of 15! of them
        path = tmp_path / "g16.txt"
        path.write_text(f"{header}\n{edges}")
        start = time.perf_counter()
        code, out, err = run(capsys, "recognize", str(path))
        assert time.perf_counter() - start < 1
        assert code == 3
        assert out == ""
        assert "more than 100000 automorphisms" in err

    def test_search_budget(self, capsys, monkeypatch):
        # a search past the node budget ends at exit 3 with nothing on stdout
        monkeypatch.setattr(perm, "MAX_SEARCH_NODES", 5)
        code, out, err = run(capsys, "recognize", str(GOLDEN / "c4-c4.graph"))
        assert code == 3
        assert out == ""
        assert "5 nodes" in err

    def test_vertex_cap_checked_before_building(self, capsys, tmp_path):
        path = tmp_path / "huge.txt"
        path.write_text("digraph 10000000\n0 1\n")
        tracemalloc.start()
        try:
            code, out, err = run(capsys, "recognize", str(path))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 3
        assert out == ""
        assert "10000000" in err
        assert peak < 5 * 2**20

    def test_dot_ignores_vertex_cap(self, capsys, tmp_path):
        path = tmp_path / "c17.txt"
        path.write_text("graph 17\n" + "".join(f"{v} {(v + 1) % 17}\n" for v in range(17)))
        code, out, _ = run(capsys, "recognize", str(path), "--format", "dot")
        assert code == 0
        assert out.startswith("digraph G {")

    def test_huge_vertex_count_exits_quickly(self, capsys, tmp_path):
        # building the digraph must stay linear in n before the vertex cap is hit
        path = tmp_path / "huge.txt"
        path.write_text("digraph 1000000\n0 1\n")
        start = time.perf_counter()
        code, out, err = run(capsys, "recognize", str(path))
        assert time.perf_counter() - start < 5
        assert code == 3
        assert out == ""

    def test_dot_memory_follows_the_file(self, capsys, tmp_path):
        # the header's vertex count must not cost a row per vertex
        path = tmp_path / "huge.txt"
        path.write_text("digraph 10000000\n0 1\n")
        tracemalloc.start()
        try:
            code, out, _ = run(capsys, "recognize", str(path), "--format", "dot")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        assert out == "digraph G {\n  0 -> 1;\n}\n"
        assert peak < 5 * 2**20

    def test_dot_checks_every_arc_before_writing(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("graph 4\n2 1\n0 1\n1 2\n3 4\n")
        code, out, err = run(capsys, "recognize", str(path), "--format", "dot")
        assert code == 2
        assert out == ""
        assert "out of range" in err
        path.write_text("graph 4\n2 1\n0 1\n1 2\n")
        code, out, _ = run(capsys, "recognize", str(path), "--format", "dot")
        assert code == 0
        assert out == ("digraph G {\n  0 -> 1;\n  1 -> 0;\n  1 -> 2;\n  2 -> 1;\n}\n")

    def test_dot_passthrough(self, capsys, tmp_path):
        path = tmp_path / "tri.txt"
        path.write_text("digraph 3\n0 1\n1 2\n2 0\n")
        code, out, _ = run(capsys, "recognize", str(path), "--format", "dot")
        assert code == 0
        assert out.startswith("digraph G {")


class TestFixtures:
    def test_all_pass(self, capsys):
        code, out, _ = run(capsys, "fixtures")
        assert code == 0
        lines = out.splitlines()
        assert [ln[:2] for ln in lines[:3]] == ["a:", "b:", "c:"]
        assert all(ln.endswith("PASS") for ln in lines[:3])
        assert lines[3] == "fixtures: all passed"

    def test_json(self, capsys):
        code, out, _ = run(capsys, "fixtures", "--format", "json")
        assert code == 0
        record = json.loads(out)
        assert record["ok"]
        assert record["a"]["unit_multiplier"] is None
        assert record["b"]["cyclic_max"] == 4
        assert record["b"]["product_max"] < 4
        assert record["c"]["witness_set"] is not None

    def test_run_all_details(self):
        results = run_all()
        assert [r.name for r in results] == ["a", "b", "c"]
        assert all(r.ok for r in results)


class TestBadFlags:
    @pytest.mark.parametrize("command, fmt", [
        ("count", "dot"), ("classes", "tsv"), ("classes", "dot"), ("verify", "tsv"),
        ("verify", "dot"), ("fixtures", "tsv"), ("fixtures", "dot")])
    def test_unsupported_format(self, capsys, command, fmt):
        argv = [command] if command == "fixtures" else [command, "7"]
        code, out, err = run(capsys, *argv, "--format", fmt)
        assert code == 2
        assert out == ""
        assert err == f"error: format {fmt!r} is not supported for {command}\n"

    def test_recognize_prints_text_for_tsv(self, capsys, tmp_path):
        path = tmp_path / "tri.txt"
        path.write_text("digraph 3\n0 1\n1 2\n2 0\n")
        assert run(capsys, "recognize", str(path), "--format", "tsv") == \
            run(capsys, "recognize", str(path))

    @pytest.mark.parametrize("command", ["classes", "verify"])
    def test_memory_error_is_a_resource_cap(self, capsys, monkeypatch, command):
        def exhaust(*args, **kwargs):
            raise MemoryError
        monkeypatch.setattr(cli.enumeration, "equivalence_classes", exhaust)
        code, out, err = run(capsys, command, "83", "--budget-bits", "41")
        assert code == 3
        assert out == ""
        assert err.startswith("error: ")

    def test_nonpositive_workers(self, capsys):
        code, _, err = run(capsys, "classes", "7", "--workers", "0")
        assert code == 2

    def test_bad_env_integer(self, capsys, monkeypatch):
        monkeypatch.setenv("VTT_BUDGET_BITS", "many")
        with pytest.raises(SystemExit) as exc:
            cli.main(["classes", "7"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [["verify", "7"], ["classes", "7"], ["fixtures"]])
    def test_bad_env_format(self, capsys, monkeypatch, argv):
        monkeypatch.setenv("VTT_FORMAT", "xml")
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "VTT_FORMAT" in captured.err

    def test_bad_env_members(self, capsys, monkeypatch):
        monkeypatch.setenv("VTT_MEMBERS", "maybe")
        with pytest.raises(SystemExit) as exc:
            cli.main(["classes", "7"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "VTT_MEMBERS" in captured.err


class TestParser:
    COMMANDS = ("count", "classes", "verify", "recognize", "fixtures")

    def exits(self, capsys, parse, argv):
        with pytest.raises(SystemExit) as exc:
            parse(argv)
        captured = capsys.readouterr()
        return exc.value.code, captured.out, captured.err

    def test_help_lists_every_command(self, capsys):
        code, out, _ = self.exits(capsys, cli.main, ["--help"])
        assert code == 0
        assert all(command in out for command in self.COMMANDS)

    def test_command_help(self, capsys):
        code, out, _ = self.exits(capsys, cli.main, ["recognize", "--help"])
        assert code == 0
        assert "--aut-cap" in out

    @pytest.mark.parametrize("argv", [["frobnicate"], ["count", "7", "--frobnicate"]])
    def test_errors_name_every_command(self, capsys, argv):
        code, out, err = self.exits(capsys, cli.main, argv)
        assert code == 2
        assert out == ""
        assert "{" + ",".join(self.COMMANDS) + "}" in err

    @pytest.mark.parametrize("argv", [
        ["count", "--help"], ["classes", "--help"], ["verify", "-h"], ["recognize", "--help"],
        ["fixtures", "--help"], ["count"], ["classes", "seven"], ["recognize", "--format", "xml"]])
    def test_command_parser_is_the_full_parsers(self, capsys, argv):
        # main builds the named command's parser alone: same help, same errors
        assert self.exits(capsys, cli.main, argv) == \
            self.exits(capsys, cli.build_parser().parse_args, argv)

    def test_env_members_is_read_by_classes_only(self, capsys, monkeypatch):
        monkeypatch.setenv("VTT_MEMBERS", "maybe")
        assert run(capsys, "count", "7") == (0, "7\t2\n", "")
