"""The four workloads: seeded inputs, the operations that drive vtt, and the
check of every output.

Each workload runs its operations in a fixed order.  The order changes the
allocator state an operation starts from, and with it the operation's time
and the peak RSS, so a seeded order would add spread without adding inputs.

An operation returns (exit status, stdout).  CLI operations call
`vtt.cli.main(argv)` with stdout captured; the others call vtt's library
functions and render the result as text.  Each check returns None for a
correct output or a description of what is wrong; it compares against
`reference` and against properties the method must have, never against a
stored copy of vtt's output.
"""

from __future__ import annotations

import io
import json
import random
import sys
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path
from typing import Callable

import reference as ref

# Counts of primes up to 28597 fit Python's default 4300-digit limit on
# int -> str conversion; from 28603 on `vtt count` exits 2 on that limit.
LAST_PRINTED_PRIME = 28597
DIGIT_LIMIT_PRIME = 28603


@dataclass
class Op:
    name: str
    run: Callable[[], tuple[int, str]]
    # stdout -> None or a problem; an exception, such as on unparseable
    # output, also marks a problem
    check: Callable[[str], str | None]
    same_as: str | None = None  # name of an op whose output must be identical
    aut_order: int | None = None  # |Aut| from a closed form, checked in the traced run


@contextmanager
def unlimited_int_digits():
    """Lift the int <-> str digit limit for the checker's own comparisons.

    The old limit comes back before vtt runs again, so a fault that the
    limit causes inside vtt still shows."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


def cli_op(vtt, argv: list[str], check, name: str | None = None, **extra) -> Op:
    def run():
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            try:
                code = vtt.cli.main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
        return code, out.getvalue()
    return Op(name or "vtt " + " ".join(argv), run, check, **extra)


# --- table ----------------------------------------------------------------

def check_count(lo: int, hi: int, fmt: str):
    def check(out):
        with unlimited_int_digits():
            if fmt == "json":
                rows = [(r["p"], r["count"]) for r in json.loads(out)]
            else:
                rows = [tuple(int(x) for x in line.split("\t")) for line in out.splitlines()]
            listed = [p for p, _ in rows]
            want = [q for q in ref.primes_upto(hi) if q >= max(lo, 3)]
            if listed != want:
                return f"listed {len(listed)} primes, expected the {len(want)} odd primes in {lo}..{hi}"
            for p, count in rows:
                if count != ref.necklace_count(p):
                    return f"count for p={p} differs from the necklace count"
        return None
    return check


def table_ops(vtt, rng: random.Random, workdir: Path) -> list[Op]:
    """Ranges that end at the last printable prime, single primes near it,
    and one prime past the digit limit, which fails every time."""
    hi = LAST_PRINTED_PRIME
    ops = []
    # LO is odd: an even LO makes count_table step through even numbers only.
    for band in (range(3, 200, 2), range(10001, 10200, 2), range(20001, 20200, 2)):
        lo = rng.choice(band)
        for fmt in ("tsv", "json"):
            ops.append(cli_op(vtt, ["count", f"{lo}..{hi}", "--format", fmt],
                              check_count(lo, hi, fmt)))
    # Five singles, fewer than the six ranges: the median latency is then the
    # cheapest range, whose cost the seed does not change, and not a single
    # prime, whose cost depends on the divisors of p - 1.
    singles = rng.sample([q for q in ref.primes_upto(hi) if q >= 27000], 5)
    for p, fmt in zip(singles, ("text", "tsv", "json", "tsv", "json")):
        ops.append(cli_op(vtt, ["count", str(p), "--format", fmt], check_count(p, p, fmt)))
    ops.append(cli_op(vtt, ["count", str(DIGIT_LIMIT_PRIME)],
                      check_count(DIGIT_LIMIT_PRIME, DIGIT_LIMIT_PRIME, "tsv")))
    return ops


# --- oracle ---------------------------------------------------------------

# Burnside's per-unit loop does sum-of-orders work (reference.order_sum), so
# each slot draws its prime from those whose order sum is within 3% of the
# slot's target: the seed changes the primes but not the work.  The two
# slots at 1.2e6 hold the median op, so each run has twice the samples of it.
BURNSIDE_ORDER_SUMS = (1.2e6, 1.2e6, 3.0e6, 7.0e6, 13.0e6)
FOUND_PAIR_PRIMES = (19, 19, 23, 23)
# Refuting a pair explores every partial isomorphism from the first graph
# into the second; relabelling the second graph leaves that work unchanged.
# So the base pairs are fixed and the seed picks the multiplier applied to
# the second set.
REFUTED_PAIR_PRIMES = (19, 23, 29, 31)


def random_tournament_set(rng: random.Random, p: int) -> frozenset[int]:
    return ref.mask_to_set(p, rng.getrandbits((p - 1) // 2))


def cayley_arcs(p: int, s) -> set[tuple[int, int]]:
    return {(x, (x + d) % p) for x in range(p) for d in s}


def check_prime_counts(p: int):
    def check(out):
        want = ref.necklace_count(p)
        if out != f"class_count={want} burnside={want}":
            return f"p={p}: counts differ from the necklace count {want}"
        return None
    return check


def check_pair(p: int, s, t):
    def check(out):
        witness = json.loads(out)
        multiplier = ref.unit_multiplier(p, s, t)
        if (witness is None) != (multiplier is None):
            return (f"p={p}: isomorphic returned {'none' if witness is None else 'a witness'}, "
                    f"unit multiplier {multiplier}")
        if witness is not None and not ref.maps_arcs_between(
                cayley_arcs(p, s), cayley_arcs(p, t), witness):
            return f"p={p}: witness does not map arcs onto arcs"
        return None
    return check


# The inputs of `vtt fixtures`, as the fixtures define them.
Z25_SETS = ({1, 4, 5, 6, 9, 11, 14, 16, 19, 20, 21, 24}, {1, 4, 6, 9, 10, 11, 14, 15, 16, 19, 21, 24})
Z9_SET = {1, 7, 3, 5}
Z33_SET = {(0, 1), (2, 0), (1, 1), (2, 1)}


def z33_arcs() -> set[tuple[int, int]]:
    return {(3 * a + b, 3 * ((a + x) % 3) + (b + y) % 3)
            for a in range(3) for b in range(3) for x, y in Z33_SET}


def max_arc_triangles(arcs) -> int:
    out: dict[int, set[int]] = {}
    for u, v in arcs:
        out.setdefault(u, set()).add(v)
    return max(sum(1 for w in out[v] if u in out[w]) for u, v in arcs)


def check_fixtures(out):
    data = json.loads(out)
    a, b, c = data["a"], data["b"], data["c"]
    if not (data["ok"] and a["ok"] and b["ok"] and c["ok"]):
        return "a fixture reports failure"
    if a["unit_multiplier"] is not None or ref.unit_multiplier(25, *Z25_SETS) is not None:
        return "fixture a: a unit multiplier maps one Z_25 set onto the other"
    if not (a["wreath_isomorphic_to_first"] and a["wreath_isomorphic_to_second"]):
        return "fixture a: the wreath square is not isomorphic to both"
    if (b["cyclic_max"], b["product_max"]) != (max_arc_triangles(cayley_arcs(9, Z9_SET)),
                                               max_arc_triangles(z33_arcs())):
        return "fixture b: triangle maxima differ from the reference"
    if not b["cyclic_max"] == 4 > b["product_max"]:
        return "fixture b: the triangle profiles do not separate"
    w_set, w_map = c["witness_set"], c["witness_map"]
    ref.set_to_mask(9, w_set)  # raises unless a tournament set on Z_9
    if not ref.maps_arcs_between(cayley_arcs(9, w_set), z33_arcs(), w_map):
        return "fixture c: the witness map does not carry arcs onto arcs"
    return None


def oracle_ops(vtt, rng: random.Random, workdir: Path) -> list[Op]:
    """Three counting oracles per prime, isomorphism of Cayley tournament
    pairs, and the bundled fixtures."""
    ops = []
    order_sums = {q: ref.order_sum(q) for q in ref.primes_upto(5200) if q > 1000}
    for target in BURNSIDE_ORDER_SUMS:
        p = rng.choice([q for q, work in order_sums.items() if abs(work / target - 1) <= 0.03])
        del order_sums[p]

        def run(p=p):
            return 0, (f"class_count={vtt.counting.class_count(p)} "
                       f"burnside={vtt.enumeration.burnside_count(p)}")
        ops.append(Op(f"counts p={p}", run, check_prime_counts(p)))

    pairs = []
    for p in FOUND_PAIR_PRIMES:
        s = random_tournament_set(rng, p)
        b = rng.randrange(2, p - 1)
        pairs.append((p, s, frozenset(b * x % p for x in s)))
    for k, p in enumerate(REFUTED_PAIR_PRIMES):
        base = random.Random(f"refuted-{k}-{p}")
        s = random_tournament_set(base, p)
        t = random_tournament_set(base, p)
        while ref.unit_multiplier(p, s, t) is not None:
            t = random_tournament_set(base, p)
        b = rng.randrange(1, p)
        pairs.append((p, s, frozenset(b * x % p for x in t)))
    for k, (p, s, t) in enumerate(pairs):
        def run(p=p, s=s, t=t):
            z = vtt.groups.cyclic(p)
            w = vtt.perm.isomorphic(vtt.graphs.cayley_digraph(z, s), vtt.graphs.cayley_digraph(z, t))
            return 0, json.dumps(None if w is None else list(w))
        ops.append(Op(f"isomorphic #{k} p={p}", run, check_pair(p, s, t)))

    ops.append(cli_op(vtt, ["fixtures", "--format", "json"], check_fixtures))
    return ops


# --- enumerate ------------------------------------------------------------

REPS_SAMPLED = 60


def check_classes(p: int, sample_seed: int):
    h = (p - 1) // 2

    def check(out):
        records = [json.loads(line) for line in out.splitlines()]
        reps = [ref.set_to_mask(p, r["rep"]) for r in records]
        sizes = [r["size"] for r in records]
        if len(records) != ref.necklace_count(p):
            return f"p={p}: {len(records)} classes, necklace count {ref.necklace_count(p)}"
        if sum(sizes) != 1 << h or any((p - 1) % size for size in sizes):
            return f"p={p}: class sizes do not sum to 2^{h} or do not divide {p - 1}"
        if any(a >= b for a, b in zip(reps, reps[1:])):
            return f"p={p}: representatives are not in ascending order"
        sample = random.Random(sample_seed).sample(range(len(reps)), min(REPS_SAMPLED, len(reps)))
        for i in sample:
            if not ref.is_orbit_minimal(p, reps[i]):
                return f"p={p}: representative {reps[i]:#x} is not least in its orbit"
            if len(ref.orbit_masks(p, reps[i])) != sizes[i]:
                return f"p={p}: class of {reps[i]:#x} has the wrong size"
        if "members" in records[0]:
            seen = set()
            for rec, rep in zip(records, reps):
                members = [ref.set_to_mask(p, m) for m in rec["members"]]
                if len(members) != rec["size"] or min(members) != rep:
                    return f"p={p}: members of {rep:#x} disagree with size or representative"
                seen.update(members)
            if len(seen) != 1 << h:
                return f"p={p}: members do not cover each of the 2^{h} sets once"
            for i in sample:
                if {ref.set_to_mask(p, m) for m in records[i]["members"]} != ref.orbit_masks(p, reps[i]):
                    return f"p={p}: members of {reps[i]:#x} are not its orbit"
        return None
    return check


def check_verify(p: int, fmt: str):
    def check(out):
        n = ref.necklace_count(p)
        if fmt == "json":
            ok = json.loads(out) == {"p": p, "formula": n, "enumeration": n, "burnside": n,
                                     "ok": True}
        else:
            ok = out == f"formula={n} enumeration={n} burnside={n} OK\n"
        return None if ok else f"p={p}: verify output differs from the necklace count {n} or not OK"
    return check


def enumerate_ops(vtt, rng: random.Random, workdir: Path) -> list[Op]:
    """Class listings and triple-oracle verification for p = 31..41, and
    the member listing for p = 29, which costs well under the median op.

    The largest enumeration runs first, so the traced run sees its peak-RSS
    growth before any other call has raised the process's high-water mark."""
    def classes(p, *flags, **extra):
        return cli_op(vtt, ["classes", str(p), *flags],
                      check_classes(p, rng.randrange(1 << 32)), **extra)

    def verify(p, fmt):
        return cli_op(vtt, ["verify", str(p), "--format", fmt], check_verify(p, fmt))

    # verify 37 in both formats is the median op, so each run has twice the
    # samples of it.
    serial37 = classes(37)
    return [classes(41), serial37, verify(37, "text"),
            classes(37, "--workers", "2", same_as=serial37.name), verify(37, "json"),
            classes(31), verify(31, rng.choice(("text", "json"))), classes(29, "--members")]


# --- recognize ------------------------------------------------------------

@dataclass
class Graph:
    label: str
    n: int
    arcs: set[tuple[int, int]]
    vertex_transitive: bool
    cayley: bool
    aut_order: int | None

    def text(self) -> str:
        return f"digraph {self.n}\n" + "".join(f"{u} {v}\n" for u, v in sorted(self.arcs))


def product_cayley_arcs(moduli: tuple[int, ...], steps) -> set[tuple[int, int]]:
    """Cayley digraph on Z_m1 x ... x Z_mk, vertices numbered mixed-radix."""
    def index(x):
        i = 0
        for c, m in zip(x, moduli):
            i = i * m + c % m
        return i

    def elements(k=0):
        if k == len(moduli):
            yield ()
            return
        for c in range(moduli[k]):
            for rest in elements(k + 1):
                yield (c, *rest)
    return {(index(x), index(tuple(a + b for a, b in zip(x, s))))
            for x in elements() for s in steps}


def cycle_wreath_arcs(m: int, n: int) -> set[tuple[int, int]]:
    """C_m[C_n]: (v, w) ~ (v', w') iff v ~ v' in C_m, or v = v' and w ~ w' in C_n."""
    arcs = set()
    for v in range(m):
        for w in range(n):
            for w2 in range(n):
                arcs.add((v * n + w, ((v + 1) % m) * n + w2))
                arcs.add((v * n + w, ((v - 1) % m) * n + w2))
            arcs.add((v * n + w, v * n + (w + 1) % n))
            arcs.add((v * n + w, v * n + (w - 1) % n))
    return arcs


def kneser2_arcs(v: int) -> set[tuple[int, int]]:
    pairs = list(combinations(range(v), 2))
    return {(i, j) for i, a in enumerate(pairs) for j, b in enumerate(pairs) if not set(a) & set(b)}


PALEY13 = {1, 3, 4, 9, 10, 12}  # the quadratic residues mod 13


def fixed_corpus() -> list[Graph]:
    unit4 = [tuple(int(i == j) for j in range(4)) for i in range(4)]
    z44 = (4, 4)
    return [
        Graph("Q4", 16, product_cayley_arcs((2,) * 4, unit4), True, True, ref.aut_order_hypercube(4)),
        Graph("Clebsch", 16, product_cayley_arcs((2,) * 4, unit4 + [(1, 1, 1, 1)]), True, True,
              1920),
        Graph("Shrikhande", 16, product_cayley_arcs(z44, [(0, 1), (0, 3), (1, 0), (3, 0), (1, 1),
                                                         (3, 3)]), True, True, 192),
        Graph("rook4x4", 16, product_cayley_arcs(z44, [(0, k) for k in (1, 2, 3)]
                                                  + [(k, 0) for k in (1, 2, 3)]),
              True, True, ref.aut_order_rook(4)),
        Graph("C4[C4]", 16, cycle_wreath_arcs(4, 4), True, True, ref.aut_order_cycle_wreath(4, 4)),
        Graph("C5[C3]", 15, cycle_wreath_arcs(5, 3), True, True, ref.aut_order_cycle_wreath(5, 3)),
        Graph("C3[C5]", 15, cycle_wreath_arcs(3, 5), True, True, ref.aut_order_cycle_wreath(3, 5)),
        Graph("Petersen", 10, kneser2_arcs(5), True, False, ref.aut_order_kneser2(5)),
        Graph("K(6,2)", 15, kneser2_arcs(6), True, False, ref.aut_order_kneser2(6)),
        Graph("Paley P13", 13, cayley_arcs(13, PALEY13), True, True,
              ref.aut_order_prime_circulant(13, PALEY13)),
    ]


def seeded_corpus(rng: random.Random) -> list[Graph]:
    graphs = []
    for p in (7, 11, 13):
        s = random_tournament_set(rng, p)
        graphs.append(Graph(f"tournament Z_{p}", p, cayley_arcs(p, s), True, True,
                            ref.aut_order_prime_circulant(p, s)))
    for k in range(2):
        n = rng.randrange(10, 17)
        arcs = {(u, v) for u in range(n) for v in range(n) if u != v and rng.random() < 0.3}
        if len({sum(1 for a in arcs if a[0] == u) for u in range(n)}) == 1:
            arcs ^= {(0, 1)}  # out-degrees differ, so not vertex-transitive
        graphs.append(Graph(f"random #{k}", n, arcs, False, False, None))
    return graphs


def check_recognize(g: Graph):
    def check(out):
        data = json.loads(out)
        verdict = (data["n"], data["vertex_transitive"], data["cayley"])
        witness = data["witness"]
        if verdict != (g.n, g.vertex_transitive, g.cayley):
            return f"{g.label}: verdict {verdict}, expected {(g.n, g.vertex_transitive, g.cayley)}"
        if (witness is not None) != g.cayley:
            return f"{g.label}: witness presence disagrees with the Cayley verdict"
        if witness is not None:
            if not ref.is_regular_subgroup(witness, g.n):
                return f"{g.label}: witness is not a regular subgroup"
            if not all(ref.maps_arcs_onto_arcs(g.arcs, x) for x in witness):
                return f"{g.label}: a witness element is not an automorphism"
        return None
    return check


def recognize_ops(vtt, rng: random.Random, workdir: Path) -> list[Op]:
    """`vtt recognize` on graph files written here.

    The named graphs dominate the cost and are the same for every seed; the
    seed draws the tournaments and the random digraphs, which all cost less
    than the median operation, so the median is the same graph every time."""
    workdir.mkdir(parents=True, exist_ok=True)
    ops = []
    for k, g in enumerate(fixed_corpus() + seeded_corpus(rng)):
        path = workdir / f"graph{k}.txt"
        path.write_text(g.text())
        ops.append(cli_op(vtt, ["recognize", str(path), "--format", "json"], check_recognize(g),
                          name=f"recognize {g.label}", aut_order=g.aut_order))
    return ops


WORKLOADS = {
    "table": table_ops,
    "oracle": oracle_ops,
    "enumerate": enumerate_ops,
    "recognize": recognize_ops,
}
