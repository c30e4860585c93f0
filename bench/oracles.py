"""Independent oracles for the benchmark's output checks.

Everything here is computed from a fixture's edge list alone, in exact
int/Fraction arithmetic, and never imports stabwalk: the checks must not
share code with the program they check.

Conventions follow the paper's curve lattice: (e_i, e_i) = -2 and
(e_i, e_j) = 1 when curves i and j meet.  Divisor coordinates pair with
curve classes by the plain dot product.  A root v cuts the wall
omega . v = 0, and the forbidden locus is omega . v = 0 together with an
integral beta . v.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

# name -> (Dynkin type, rank, edge list); curves are numbered 1..n
FIXTURES = {}
for _n in range(1, 9):
    FIXTURES[f"A{_n}"] = ("A", _n, tuple((i, i + 1) for i in range(1, _n)))
FIXTURES["D4"] = ("D", 4, ((1, 2), (2, 3), (2, 4)))
FIXTURES["D5"] = ("D", 5, ((1, 2), (2, 3), (3, 4), (3, 5)))
FIXTURES["E6"] = ("E", 6, ((1, 2), (2, 3), (3, 4), (4, 5), (3, 6)))
FIXTURES["E7"] = ("E", 7, ((1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (3, 7)))
FIXTURES["E8"] = ("E", 8, ((1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (3, 8)))


def closed_form(kind: str, n: int):
    """(number of positive roots, Weyl group order) of an ADE type."""
    if kind == "A":
        return n * (n + 1) // 2, factorial(n + 1)
    if kind == "D":
        return n * (n - 1), 2 ** (n - 1) * factorial(n)
    return {6: (36, 51840), 7: (63, 2903040), 8: (120, 696729600)}[n]


def gram_from_edges(n: int, edges) -> tuple:
    adj = {(i - 1, j - 1) for i, j in edges} | {(j - 1, i - 1) for i, j in edges}
    return tuple(tuple(-2 if i == j else (1 if (i, j) in adj else 0) for j in range(n))
                 for i in range(n))


def pair(G, x, y):
    return sum(x[i] * G[i][j] * y[j] for i in range(len(G)) for j in range(len(G)) if G[i][j])


def dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def positive_roots(G) -> tuple:
    """Positive roots by adding simple roots one at a time.

    In a simply laced root system every positive root is reached from a
    simple root through partial sums that are all roots, and a
    nonnegative integer vector is a root exactly when it pairs to -2.
    """
    n = len(G)
    simple = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    seen = set(simple)
    frontier = list(simple)
    while frontier:
        nxt = []
        for v in frontier:
            for e in simple:
                w = tuple(a + b for a, b in zip(v, e))
                if w not in seen and pair(G, w, w) == -2:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return tuple(sorted(seen))


class Fixture:
    """Oracle data of one ADE tree: gram matrix, roots and closed forms."""

    def __init__(self, name: str):
        self.name = name
        self.kind, self.n, self.edges = FIXTURES[name]
        self.gram = gram_from_edges(self.n, self.edges)
        self.roots = positive_roots(self.gram)
        self.n_positive, self.weyl_order = closed_form(self.kind, self.n)
        if len(self.roots) != self.n_positive:
            raise RuntimeError(f"{name}: root oracle disagrees with the closed form")
        self.coreflections = tuple(coreflection_matrix(self.gram, i) for i in range(1, self.n + 1))
        self.neighbours = tuple(tuple(j for j in range(self.n) if self.gram[i][j] == 1)
                                for i in range(self.n))

    def coreflect(self, i: int, d) -> tuple:
        """Dual reflection at e_i, i >= 0: d_i -> -d_i, neighbours gain d_i."""
        out = list(d)
        out[i] = -d[i]
        for j in self.neighbours[i]:
            out[j] += d[i]
        return tuple(out)


# -- matrices ----------------------------------------------------------------

def identity(n: int) -> tuple:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_mul(a, b) -> tuple:
    return tuple(tuple(sum(a[i][t] * b[t][j] for t in range(len(b))) for j in range(len(b[0])))
                 for i in range(len(a)))


def mat_vec(m, v) -> tuple:
    return tuple(sum(row[j] * v[j] for j in range(len(v))) for row in m)


def transpose(m) -> tuple:
    return tuple(zip(*m))


def reflection_matrix(G, i: int) -> tuple:
    """Curve-side reflection at e_i: x -> x + (e_i, x) e_i."""
    n = len(G)
    return tuple(tuple((1 if r == c else 0) + (G[i - 1][c] if r == i - 1 else 0)
                       for c in range(n)) for r in range(n))


def coreflection_matrix(G, i: int) -> tuple:
    """Divisor-side reflection at e_i, the transpose of the curve-side one."""
    return transpose(reflection_matrix(G, i))


def in_orthogonal_group(G, M) -> bool:
    """Integer entries and M^T G M = G."""
    if not all(isinstance(x, int) and not isinstance(x, bool) for row in M for x in row):
        return False
    return mat_mul(mat_mul(transpose(M), G), M) == tuple(tuple(r) for r in G)


def word_matrix(fx: Fixture, word) -> tuple:
    """Curve-side matrix of a word in simple reflections, first letter outermost.

    Multiplying by the reflection at e_i on the right changes every row
    the way the dual reflection changes a divisor vector.
    """
    rows = identity(fx.n)
    for i in word:
        rows = tuple(fx.coreflect(i - 1, r) for r in rows)
    return rows


# -- strata ------------------------------------------------------------------

def vanishing(roots, omega) -> list:
    return [v for v in roots if dot(omega, v) == 0]


def forbidden_root(roots, beta, omega):
    """A positive root with omega . v = 0 and beta . v integral, or None."""
    for v in roots:
        if dot(omega, v) == 0 and Fraction(dot(beta, v)).denominator == 1:
            return v
    return None


def label_kind(roots, beta, omega) -> str:
    if forbidden_root(roots, beta, omega) is not None:
        return "forbidden"
    k = len(vanishing(roots, omega))
    return "ample_chamber" if k == 0 else ("wall_strip" if k == 1 else "deep_stratum")


def strip_of(x: Fraction) -> int:
    """k with x in (k - 1, k)."""
    return (x.numerator // x.denominator) + 1


def charge(beta, omega, point_mult, curve_mult):
    """Exact central charge Z = -a + beta . m + i omega . m as (re, im)."""
    return Fraction(-point_mult + dot(beta, curve_mult)), Fraction(dot(omega, curve_mult))


# -- paths -------------------------------------------------------------------

def segment_crossings(roots, b0, o0, b1, o1):
    """Root hyperplanes a straight segment crosses, as sorted (s, root) pairs.

    Returns None when the segment is not generic: an end on a wall, two
    walls met at the same instant, or a crossing at integral beta . v.
    """
    hits = []
    for v in roots:
        a, b = dot(o0, v), dot(o1, v)
        if a == 0 or b == 0:
            return None
        if (a > 0) != (b > 0):
            s = Fraction(a, 1) / (a - b)
            level = dot(b0, v) + s * (dot(b1, v) - dot(b0, v))
            if Fraction(level).denominator == 1:
                return None
            hits.append((s, v))
    times = [s for s, _ in hits]
    if len(set(times)) != len(times):
        return None
    return sorted(hits)


def path_crossings(roots, path):
    """Crossed roots of a polygonal path of (beta, omega) points, or None."""
    out = []
    for (b0, o0), (b1, o1) in zip(path, path[1:]):
        if (b0, o0) == (b1, o1):
            continue
        hits = segment_crossings(roots, b0, o0, b1, o1)
        if hits is None:
            return None
        out.extend(v for _, v in hits)
    return out


# -- affine shadows ----------------------------------------------------------

def affine_compose(f, g):
    """f after g, for affine maps (linear, translation)."""
    return mat_mul(f[0], g[0]), tuple(x + y for x, y in zip(f[1], mat_vec(f[0], g[1])))


def stack_theta(fx: Fixture, stack) -> tuple:
    """Shadow of a crossing stack: gamma_(i, k) = Twist(k D_i) . Flop(i)."""
    acc = (identity(fx.n), (0,) * fx.n)
    for i, k in stack:
        acc = affine_compose(acc, (fx.coreflections[i - 1],
                                   tuple(k if j == i - 1 else 0 for j in range(fx.n))))
    return acc


def word_theta(fx: Fixture, gens) -> tuple:
    """Shadow of a word given as ("twist", divisor) and ("flop", curve) letters."""
    acc = (identity(fx.n), (0,) * fx.n)
    for kind, arg in gens:
        if kind == "twist":
            step = (identity(fx.n), tuple(arg))
        else:
            step = (fx.coreflections[arg - 1], (0,) * fx.n)
        acc = affine_compose(acc, step)
    return acc


def meridian_stack(i: int, k: int) -> tuple:
    """Crossings of the rectangle around puncture (i, k) from the fundamental chamber.

    Down through beta_i = k + 1/2 gives strip k + 1.  Seen through
    gamma_(i, k+1), the framed beta_i on the way back up at k - 1/2 is
    (k + 1) - (k - 1/2) = 3/2, so the second crossing is at strip 2.
    """
    return ((i, k + 1), (i, 2))
