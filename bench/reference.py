"""Reference computations that the benchmark checks vtt's outputs against.

Nothing here imports vtt or mirrors its algorithms.  Counts come from the
necklace formula for OEIS A000016, isomorphism of Cayley tournaments on Z_p
from Turner's theorem (J. Combin. Theory 3, 1967: two are isomorphic iff
their connection sets are unit multiples), and automorphism group orders
from closed forms in the literature.
"""

from __future__ import annotations

from math import factorial


def primes_upto(n: int) -> list[int]:
    """All primes <= n, by the sieve of Eratosthenes."""
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[0] = sieve[1] = 0
    for q in range(2, int(n ** 0.5) + 1):
        if sieve[q]:
            sieve[q * q::q] = bytes(len(range(q * q, n + 1, q)))
    return [q for q in range(n + 1) if sieve[q]]


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1 as {prime: exponent}."""
    if n < 1:
        raise ValueError(f"cannot factor {n}")
    out: dict[int, int] = {}
    q = 2
    while q * q <= n:
        while n % q == 0:
            out[q] = out.get(q, 0) + 1
            n //= q
        q += 1 if q == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def divisor_list(n: int) -> list[int]:
    """Positive divisors of n in ascending order, built from its factorization."""
    divs = [1]
    for q, e in factorize(n).items():
        divs = [d * q ** k for d in divs for k in range(e + 1)]
    return sorted(divs)


def totient(n: int) -> int:
    result = n
    for q in factorize(n):
        result -= result // q
    return result


def necklace_count(p: int) -> int:
    """Vertex-transitive tournaments of odd prime order p, up to isomorphism.

    With h = (p-1)/2 this is (1/2h) * sum over odd d | h of phi(d) * 2^(h/d),
    the number of complementing necklaces of length h (OEIS A000016).
    """
    h = (p - 1) // 2
    total = sum(totient(d) << (h // d) for d in divisor_list(h) if d % 2)
    if total % (2 * h):
        raise ArithmeticError(f"necklace sum for p={p} is not divisible by {2 * h}")
    return total // (2 * h)


def order_sum(p: int) -> int:
    """Sum of the multiplicative orders of all units mod a prime p.

    Z_p^* is cyclic, so it has phi(d) units of order d for each d | p-1.
    Used to pick primes whose per-unit order loops do equal work.
    """
    return sum(totient(d) * d for d in divisor_list(p - 1))


# --- unit action on tournament connection sets ------------------------------
#
# A tournament set on Z_p holds exactly one of i, p-i for i = 1..h; bit i-1 of
# its choice mask is set when it holds i.

def mask_to_set(p: int, mask: int) -> frozenset[int]:
    h = (p - 1) // 2
    return frozenset(i if mask >> (i - 1) & 1 else p - i for i in range(1, h + 1))


def set_to_mask(p: int, members) -> int:
    h = (p - 1) // 2
    mem = {x % p for x in members}
    mask = 0
    for i in range(1, h + 1):
        if (i in mem) == (p - i in mem):
            raise ValueError(f"not a tournament set on Z_{p}: {sorted(mem)}")
        if i in mem:
            mask |= 1 << (i - 1)
    return mask


def scale_mask(p: int, a: int, mask: int) -> int:
    """The choice mask of a * S, where S is the set with the given mask."""
    return set_to_mask(p, (a * x % p for x in mask_to_set(p, mask)))


def orbit_masks(p: int, mask: int) -> set[int]:
    return {scale_mask(p, a, mask) for a in range(1, p)}


def is_orbit_minimal(p: int, mask: int) -> bool:
    """True iff no unit multiple of the set has a smaller mask."""
    return all(scale_mask(p, a, mask) >= mask for a in range(2, p))


def unit_multiplier(p: int, s, t) -> int | None:
    """The least unit a with a * s = t (mod p), or None."""
    s = frozenset(x % p for x in s)
    t = frozenset(x % p for x in t)
    for a in range(1, p):
        if frozenset(a * x % p for x in s) == t:
            return a
    return None


def multiplier_stabilizer(p: int, s) -> int:
    """Number of units a with a * s = s (mod p)."""
    s = frozenset(x % p for x in s)
    return sum(1 for a in range(1, p) if frozenset(a * x % p for x in s) == s)


# --- permutations and graphs -------------------------------------------------

def maps_arcs_onto_arcs(arcs, perm) -> bool:
    """True iff perm is a bijection carrying the arc set onto itself."""
    arcs = set(arcs)
    n = len(perm)
    if sorted(perm) != list(range(n)):
        return False
    return {(perm[u], perm[v]) for u, v in arcs} == arcs


def maps_arcs_between(arcs_g, arcs_h, perm) -> bool:
    """True iff perm is a bijection carrying the arcs of g onto those of h."""
    if sorted(perm) != list(range(len(perm))):
        return False
    return {(perm[u], perm[v]) for u, v in arcs_g} == set(arcs_h)


def is_regular_subgroup(perms, n: int) -> bool:
    """n distinct permutations of {0..n-1}, closed under composition, whose
    non-identity elements all move every point."""
    group = {tuple(x) for x in perms}
    identity = tuple(range(n))
    if len(group) != n or len(perms) != n or identity not in group:
        return False
    if any(sorted(x) != list(identity) for x in group):
        return False
    for x in group:
        if x != identity and any(x[i] == i for i in range(n)):
            return False
        for y in group:
            if tuple(x[y[i]] for i in range(n)) not in group:
                return False
    return True


def aut_order_hypercube(k: int) -> int:
    """|Aut(Q_k)| = 2^k * k!."""
    return 2 ** k * factorial(k)


def aut_order_cycle_wreath(m: int, n: int) -> int:
    """|Aut(C_m[C_n])| = (2n)^m * 2m: Aut(C_n) wr Aut(C_m)."""
    return (2 * n) ** m * 2 * m


def aut_order_kneser2(v: int) -> int:
    """|Aut(K(v,2))| = v! for v >= 5."""
    return factorial(v)


def aut_order_rook(n: int) -> int:
    """|Aut(K_n x K_n)| (the n x n rook graph) = 2 * (n!)^2."""
    return 2 * factorial(n) ** 2


def aut_order_prime_circulant(p: int, s) -> int:
    """|Aut| of a Cayley digraph on Z_p, p prime, that is neither empty nor
    complete: its automorphism group is transitive of prime degree and not
    2-transitive, so it lies in AGL(1, p) (Burnside) and has order
    p * |{a : a * s = s}|."""
    return p * multiplier_stabilizer(p, s)
