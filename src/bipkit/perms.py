"""Permutations in one-line notation: composition, containment, convexity,
permutation graphs, and the named generator families used by the antichain
constructions.

A permutation is a bijection of ``{1..n}``; the one-line form is the sequence
``(p(1), ..., p(n))``.  Text form is comma-separated values in parentheses,
e.g. ``(4,2,6,1,5,3)``; the parser tolerates whitespace.

Containment and permutation graphs share one inversion relation
(``_inversion_rows``).  Containment runs on the matcher's backtracking core,
``matching._search``: the positional inversion rows pick the side of a
placed value, and a chain of position-order constraints picks the side of
its position.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Graph, _canonical_int, _int_in
from .matching import _Budget, _search


@dataclass(frozen=True)
class Permutation:
    oneline: tuple[int, ...]

    def __post_init__(self):
        if self.oneline.__class__ is not tuple:
            raise ValueError(f"one-line form must be a tuple of ints, got a {type(self.oneline).__name__}")
        n = len(self.oneline)
        for v in self.oneline:
            if v.__class__ is not int:
                raise ValueError(f"permutation entries must be ints, got {v!r}")
        if sorted(self.oneline) != list(range(1, n + 1)):
            raise ValueError(f"not a permutation of 1..{n}: {self.oneline}")

    @property
    def size(self) -> int:
        return len(self.oneline)

    def __call__(self, i: int) -> int:
        _int_in("position", i, 1, len(self.oneline))
        return self.oneline[i - 1]

    def __repr__(self):
        return f"Permutation{self.oneline}"


def identity(n: int) -> Permutation:
    return Permutation(tuple(range(1, n + 1)))


def compose(outer: Permutation, inner: Permutation) -> Permutation:
    """Permutation mapping i to outer(inner(i))."""
    if outer.size != inner.size:
        raise ValueError("size mismatch in composition")
    return Permutation(tuple(outer.oneline[inner.oneline[i] - 1] for i in range(inner.size)))


def _inverse_oneline(oneline: tuple[int, ...]) -> tuple[int, ...]:
    inv = [0] * len(oneline)
    for i, v in enumerate(oneline, start=1):
        inv[v - 1] = i
    return tuple(inv)


def inverse(p: Permutation) -> Permutation:
    return Permutation(_inverse_oneline(p.oneline))


def _inversion_rows(seq: tuple[int, ...]) -> tuple[tuple[int, ...], list[int]]:
    """Positional inversion rows of a one-line sequence, and its value prefixes.

    ``upto[v]`` holds the positions (bit x for position x, from 0) whose value
    is at most v.  Row x holds the positions left of x with a larger value and
    those right of x with a smaller one: that is ``left(x) ^ upto[seq[x] - 1]``,
    since x itself lies in neither mask.
    """
    upto = [0] * (len(seq) + 1)
    for x, v in enumerate(seq):
        upto[v] = 1 << x
    for v in range(1, len(seq) + 1):
        upto[v] |= upto[v - 1]
    return tuple(((1 << x) - 1) ^ upto[v - 1] for x, v in enumerate(seq)), upto


def contains_pattern(host: Permutation, pattern: Permutation, *, budget: int | None = None) -> bool:
    """True iff some subsequence of ``host`` is order-isomorphic to ``pattern``.

    An occurrence is an induced embedding of the pattern's positional
    inversion graph into the host's that keeps the position order (Bose, Buss
    & Lubiw 1998), so the matcher's search decides it exactly.  Bit x stands
    for host position x, counted from 0 like the pattern index t.  The domain
    of t starts as the positions t..n-k+t whose host value lies in
    pv[t]..n-k+pv[t], and every later pattern index must sit right of t.
    Placing t at x keeps, in each unplaced domain, the side of x its index
    falls on and, through the inversion rows, the side of x's value; an
    emptied domain prunes the branch.  One budget step is spent per candidate
    placement; raises StepBudgetExceeded when a step budget is given and runs
    out.
    """
    tracker = _Budget(budget)
    k = pattern.size
    n = host.size
    if k == 0:
        return True
    if k > n:
        return False
    pv = pattern.oneline
    hadj, upto = _inversion_rows(host.oneline)
    slack = (1 << (n - k + 1)) - 1
    domains = [(slack << t) & upto[n - k + pv[t]] & ~upto[pv[t] - 1] for t in range(k)]
    if not all(domains):
        return False  # decided before any step, where the search would spend one
    full = (1 << k) - 1
    later = [full ^ ((2 << t) - 1) for t in range(k)]
    return next(_search(_inversion_rows(pv)[0], hadj, tracker, domains, later), None) is not None


def is_convex(p: Permutation) -> bool:
    """For every i, the positions holding values >= i must be consecutive.

    Equivalent check: scanning thresholds downward, each new value's position
    must extend the current position interval by exactly one on either end.
    """
    n = p.size
    pos_of = [0] * (n + 1)
    for i, v in enumerate(p.oneline):
        pos_of[v] = i + 1
    lo = hi = pos_of[n]
    for value in range(n - 1, 0, -1):
        q = pos_of[value]
        if q == lo - 1:
            lo = q
        elif q == hi + 1:
            hi = q
        else:
            return False
    return True


@dataclass(frozen=True)
class BiconvexWitness:
    """A pair of convex permutations certifying mu o rho^-1 = the witnessed one."""

    mu: Permutation
    rho: Permutation


def verify_biconvex_witness(p: Permutation, w: BiconvexWitness) -> bool:
    if w.mu.size != p.size or w.rho.size != p.size:
        raise ValueError("witness size mismatch")
    if not (is_convex(w.mu) and is_convex(w.rho)):
        return False
    return compose(w.mu, inverse(w.rho)) == p


def permutation_graph(p: Permutation) -> Graph:
    """Inversion graph on values 1..n: i < j adjacent iff i appears after j."""
    # inversion rows are symmetric and loop-free by construction
    return Graph._trusted(p.size, _inversion_rows(_inverse_oneline(p.oneline))[0])


def _even_size(n: int, least: int) -> None:
    """The generator families' one size rule: ``n`` passes ``graphs._int_in``
    with ``least`` and is even."""
    _int_in("n", n, least)
    if n % 2:
        raise ValueError(f"defined for even n >= {least}")


def star_perm_T(n: int) -> Permutation:
    """Self-inverse family feeding the four-zone antichain graphs (even n >= 6).

    Shape: prefix (4, 2), pairs (2j, 2j-5) for j = 3 .. n/2, tail (n-1, n-3).
    An n that is not an int of at least 6 or is odd fails ``_even_size``.
    """
    _even_size(n, 6)
    seq = [4, 2]
    for j in range(3, n // 2 + 1):
        seq += [2 * j, 2 * j - 5]
    seq += [n - 1, n - 3]
    return Permutation(tuple(seq))


def star_perm_S(n: int) -> Permutation:
    """Biconvex family feeding the three-zone antichain graphs (even n >= 8).

    Shape: prefix (2, 3, 5, 1), pairs (2j+3, 2j) for j = 2 .. n/2 - 3, tail
    (n, n-4, n-1, n-2).  The pair range ends at n/2 - 3: this is the unique
    range that reproduces the fixed instances for n = 8, 10 and 12, below.
    An n that is not an int of at least 8 or is odd fails ``_even_size``.
    """
    _even_size(n, 8)
    seq = [2, 3, 5, 1]
    for j in range(2, n // 2 - 2):
        seq += [2 * j + 3, 2 * j]
    seq += [n, n - 4, n - 1, n - 2]
    return Permutation(tuple(seq))


def rho_star(n: int) -> Permutation:
    """Convex factor (even n >= 8): 1, 2, odd values ascending to n-1, n, even values descending to 4."""
    _even_size(n, 8)
    seq = [1, 2]
    seq += list(range(3, n, 2))
    seq += [n]
    seq += list(range(n - 2, 3, -2))
    return Permutation(tuple(seq))


def mu_star(n: int) -> Permutation:
    """Convex factor (even n >= 8): 2, odds ascending to n-3, n, n-1, n-2, evens descending to 4, 1."""
    _even_size(n, 8)
    seq = [2]
    seq += list(range(3, n - 2, 2))
    seq += [n, n - 1, n - 2]
    seq += list(range(n - 4, 3, -2))
    seq += [1]
    return Permutation(tuple(seq))


def star_s_witness(n: int) -> BiconvexWitness:
    """The standard convex factor pair for star_perm_S(n)."""
    return BiconvexWitness(mu=mu_star(n), rho=rho_star(n))


def parse_permutation(text: str) -> Permutation:
    s = text.strip()
    if not (s.startswith("(") and s.endswith(")")):
        raise ValueError("permutation text must be parenthesised, e.g. (2,1,3)")
    body = s[1:-1].strip()
    if not body:
        raise ValueError("empty permutation")
    try:
        values = tuple(_canonical_int(tok.strip()) for tok in body.split(","))
    except ValueError:
        raise ValueError(f"permutation entry is not an integer in canonical form: {text!r}") from None
    return Permutation(values)


def format_permutation(p: Permutation) -> str:
    return "(" + ",".join(str(v) for v in p.oneline) + ")"
