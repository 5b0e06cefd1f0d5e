from __future__ import annotations

import itertools
import random
import re

import pytest

from bipkit.graphs import Graph
from bipkit.matching import StepBudgetExceeded
from bipkit.perms import (
    BiconvexWitness,
    Permutation,
    _inversion_rows,
    compose,
    contains_pattern,
    format_permutation,
    identity,
    inverse,
    is_convex,
    mu_star,
    parse_permutation,
    permutation_graph,
    rho_star,
    star_perm_S,
    star_perm_T,
    star_s_witness,
    verify_biconvex_witness,
)


def test_permutation_validation():
    with pytest.raises(ValueError):
        Permutation((1, 1, 2))
    with pytest.raises(ValueError):
        Permutation((2, 3))


def test_permutation_entries_are_ints():
    # (1.0, 2) passed the sorted-equals-range test, since 1.0 == 1, and then
    # inverse and permutation_graph raised TypeError; True stood in for 1
    for entries, bad in (((True, 2), True), ((1.0, 2), 1.0), ((2, "1"), "1"), ((1, None), None)):
        with pytest.raises(ValueError, match=f"^permutation entries must be ints, got {re.escape(repr(bad))}$"):
            Permutation(entries)
    assert inverse(Permutation((2, 1))) == Permutation((2, 1))
    # a list constructed, and then hash() raised TypeError
    with pytest.raises(ValueError, match="^one-line form must be a tuple of ints, got a list$"):
        Permutation([2, 1])


def test_printed_instances_byte_exact():
    assert format_permutation(star_perm_T(6)) == "(4,2,6,1,5,3)"
    assert format_permutation(star_perm_T(8)) == "(4,2,6,1,8,3,7,5)"
    assert format_permutation(star_perm_T(10)) == "(4,2,6,1,8,3,10,5,9,7)"
    assert format_permutation(star_perm_S(8)) == "(2,3,5,1,8,4,7,6)"
    assert format_permutation(star_perm_S(10)) == "(2,3,5,1,7,4,10,6,9,8)"
    assert format_permutation(star_perm_S(12)) == "(2,3,5,1,7,4,9,6,12,8,11,10)"
    assert format_permutation(rho_star(10)) == "(1,2,3,5,7,9,10,8,6,4)"
    assert format_permutation(mu_star(10)) == "(2,3,5,7,10,9,8,6,4,1)"


def test_family_domain_errors():
    for bad in (5, 7, 4, 0):
        with pytest.raises(ValueError):
            star_perm_T(bad)
    for bad in (6, 9, 0):
        with pytest.raises(ValueError):
            star_perm_S(bad)
        with pytest.raises(ValueError):
            rho_star(bad)
        with pytest.raises(ValueError):
            mu_star(bad)


def test_compose_examples():
    sigma = Permutation((3, 1, 2, 5, 4))
    assert compose(identity(5), sigma) == sigma
    pi = compose(mu_star(10), inverse(rho_star(10)))
    assert pi(3) == 5
    assert pi.oneline == (2, 3, 5, 1, 7, 4, 10, 6, 9, 8)
    with pytest.raises(ValueError):
        compose(identity(3), identity(4))


def test_inverse_examples():
    assert inverse(identity(4)) == identity(4)
    assert inverse(star_perm_T(6)) == star_perm_T(6)
    rho = rho_star(10)
    assert inverse(rho)(4) == 10
    assert inverse(rho)(5) == 4


def test_inverse_composes_to_identity():
    rng = random.Random(7)
    members = [star_perm_T(n) for n in range(6, 42, 2)]
    members += [star_perm_S(n) for n in range(8, 42, 2)]
    members += [rho_star(n) for n in range(8, 42, 2)]
    for _ in range(200):
        n = rng.randint(1, 12)
        seq = list(range(1, n + 1))
        rng.shuffle(seq)
        members.append(Permutation(tuple(seq)))
    for p in members:
        assert compose(p, inverse(p)) == identity(p.size)


def test_involution_and_composition_identities():
    for n in range(6, 42, 2):
        assert inverse(star_perm_T(n)) == star_perm_T(n)
    for n in range(8, 42, 2):
        assert compose(mu_star(n), inverse(rho_star(n))) == star_perm_S(n)
        assert is_convex(rho_star(n))
        assert is_convex(mu_star(n))


def test_is_convex_examples():
    assert is_convex(Permutation((1, 2, 3, 5, 7, 9, 10, 8, 6, 4)))
    assert is_convex(identity(7))
    assert not is_convex(Permutation((2, 1, 3)))


def test_convexity_against_definition():
    # direct check: positions of values >= i form an interval
    def convex_by_definition(p: Permutation) -> bool:
        n = p.size
        for i in range(1, n + 1):
            positions = sorted(idx + 1 for idx, v in enumerate(p.oneline) if v >= i)
            if positions and positions[-1] - positions[0] + 1 != len(positions):
                return False
        return True

    for m in range(1, 7):
        for seq in itertools.permutations(range(1, m + 1)):
            p = Permutation(seq)
            assert is_convex(p) == convex_by_definition(p), seq


def test_biconvex_witness():
    assert verify_biconvex_witness(star_perm_S(10), star_s_witness(10))
    assert verify_biconvex_witness(identity(5), BiconvexWitness(identity(5), identity(5)))
    swapped = BiconvexWitness(mu=rho_star(10), rho=mu_star(10))
    assert not verify_biconvex_witness(star_perm_S(10), swapped)
    with pytest.raises(ValueError):
        verify_biconvex_witness(identity(4), BiconvexWitness(identity(3), identity(3)))


def test_contains_pattern_examples():
    assert contains_pattern(Permutation((2, 3, 1)), Permutation((1, 2)))
    assert not contains_pattern(Permutation((1, 2, 3)), Permutation((2, 1)))
    assert not contains_pattern(star_perm_T(8), star_perm_T(6))


def _position_dfs_reference(host: Permutation, pattern: Permutation) -> bool:
    """Plain DFS over host positions: each placed value must sit strictly
    between the already placed values that flank the pattern value, and the
    remaining host suffix must still be long enough."""
    k = pattern.size
    n = host.size
    if k == 0:
        return True
    if k > n:
        return False
    hv = host.oneline
    pv = pattern.oneline
    chosen = [0] * k

    def bounds(t: int) -> tuple[int, int]:
        lo, hi = 0, n + 1
        for s in range(t):
            if pv[s] < pv[t]:
                lo = max(lo, chosen[s])
            else:
                hi = min(hi, chosen[s])
        return lo, hi

    def place(t: int, start: int) -> bool:
        if t == k:
            return True
        lo, hi = bounds(t)
        for pos in range(start, n - (k - t) + 1):
            val = hv[pos]
            if lo < val < hi:
                chosen[t] = val
                if place(t + 1, pos + 1):
                    return True
        return False

    return place(0, 0)


def _random_perm(rng: random.Random, n: int) -> Permutation:
    seq = list(range(1, n + 1))
    rng.shuffle(seq)
    return Permutation(tuple(seq))


def test_contains_pattern_matches_bruteforce():
    def brute(host: Permutation, pattern: Permutation) -> bool:
        k = pattern.size
        for positions in itertools.combinations(range(host.size), k):
            values = [host.oneline[p] for p in positions]
            if all(
                (values[a] < values[b]) == (pattern.oneline[a] < pattern.oneline[b])
                for a in range(k)
                for b in range(a + 1, k)
            ):
                return True
        return k == 0

    rng = random.Random(11)
    for _ in range(600):
        nh = rng.randint(1, 10)
        h, p = _random_perm(rng, nh), _random_perm(rng, rng.randint(1, nh))
        assert contains_pattern(h, p) == brute(h, p)


def test_contains_pattern_matches_position_dfs_on_long_hosts():
    patterns = [star_perm_T(8), star_perm_S(8), rho_star(8), mu_star(8)]
    for seed in range(10):
        rng = random.Random(seed)
        for _ in range(8):
            h = _random_perm(rng, 40)
            for p in patterns:
                assert contains_pattern(h, p) == _position_dfs_reference(h, p), (seed, h, p)


def test_contains_pattern_keeps_position_order():
    # the inversion graphs of 312 and (1,4,5,3,2,6) have an induced embedding
    # that is not order preserving, so an order-blind search answers wrongly;
    # every size-6 host against every size-3 pattern covers such pairs
    patterns = [Permutation(p) for p in itertools.permutations(range(1, 4))]
    for seq in itertools.permutations(range(1, 7)):
        h = Permutation(seq)
        for p in patterns:
            assert contains_pattern(h, p) == _position_dfs_reference(h, p), (h, p)


def test_contains_pattern_honours_step_budget():
    with pytest.raises(StepBudgetExceeded):
        contains_pattern(identity(20), identity(5), budget=2)
    assert contains_pattern(identity(20), identity(5), budget=5)
    # a pattern longer than the host needs no search
    assert not contains_pattern(identity(3), identity(5), budget=0)


def test_containment_is_reflexive_and_transitive_small():
    perms = []
    for m in range(1, 6):
        perms.extend(Permutation(p) for p in itertools.permutations(range(1, m + 1)))
    # leq[i] = bitmask of hosts containing perms[i]
    leq = []
    for pat in perms:
        mask = 0
        for j, host in enumerate(perms):
            if pat.size <= host.size and contains_pattern(host, pat):
                mask |= 1 << j
        leq.append(mask)
    for i, p in enumerate(perms):
        assert (leq[i] >> i) & 1, "reflexivity"
    for i in range(len(perms)):
        rest = leq[i]
        while rest:
            low = rest & -rest
            rest ^= low
            j = low.bit_length() - 1
            # everything containing perms[j] must contain perms[i]
            assert leq[j] & ~leq[i] == 0, "transitivity"


def test_perm_antichain_prefix():
    members = [star_perm_T(n) for n in range(6, 18, 2)]
    for a in members:
        for b in members:
            if a is b:
                continue
            assert not contains_pattern(b, a)
            assert not _position_dfs_reference(b, a)


def test_permutation_graph_examples():
    assert permutation_graph(identity(5)).edge_count == 0
    assert permutation_graph(Permutation((2, 1))).edges() == [(1, 2)]
    fig = permutation_graph(star_perm_T(10))
    assert fig.edge_count == 14
    assert fig.neighbors(2) == (1, 4)
    assert fig.neighbors(9) == (7, 10)
    expected = {
        (1, 2), (1, 4), (1, 6), (2, 4), (3, 4), (3, 6), (3, 8),
        (5, 6), (5, 8), (5, 10), (7, 8), (7, 9), (7, 10), (9, 10),
    }
    assert set(fig.edges()) == expected


def test_permutation_graph_equals_the_checked_construction():
    # the rows are built trusted from the inverse's one-line form; the checked
    # construction through inverse() and Graph is the reference
    for n in range(8):
        for seq in itertools.permutations(range(1, n + 1)):
            p = Permutation(seq)
            assert permutation_graph(p) == Graph(n, _inversion_rows(inverse(p).oneline)[0]), seq


def test_permutation_graph_counts_inversions():
    rng = random.Random(3)
    for _ in range(100):
        n = rng.randint(1, 9)
        seq = list(range(1, n + 1))
        rng.shuffle(seq)
        p = Permutation(tuple(seq))
        inversions = sum(
            1
            for a in range(n)
            for b in range(a + 1, n)
            if seq[a] > seq[b]
        )
        assert permutation_graph(p).edge_count == inversions


def test_parse_format_round_trip():
    p = parse_permutation(" ( 4, 2 ,6,1,5,3 ) ")
    assert p == star_perm_T(6)
    assert parse_permutation(format_permutation(p)) == p
    for bad in ("4,2,1,3", "()", "(1,2,x)", "(0,1)"):
        with pytest.raises(ValueError):
            parse_permutation(bad)
    # int() reads each entry here as (2,1,3); only canonical decimals are
    # accepted, so an accepted text is written back as it was read
    for bad in ("(+2, 0001, \u0663)", "(2,1,3_0)", "(2,01,3)"):
        with pytest.raises(ValueError, match="not an integer in canonical form"):
            parse_permutation(bad)
    assert format_permutation(parse_permutation("(2,1,3)")) == "(2,1,3)"
