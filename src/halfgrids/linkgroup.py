"""Link-group presentations from grids and half grids, plus abelianization.

Generators correspond to vertical segments (one per column); every relator
is a positive word set equal to the identity.  Words carry signed letters so
the type extends to general presentations, but everything produced here is
positive.

What `group` runs: `half_grid_relator_lines` and `grid_relator_lines`
edit each relator line out of the one before, so a presentation of
Theta(n^2) letters is written in O(n) memory.  Subtracting each relator from
the next leaves relations x_a + s*x_b with s = +1 or -1, so the
abelianization is that of a signed graph on the generators, found by one
signed 2-colouring walk (`signed_graph_abelianization`).

The rest are definitional oracles that only `verify` and the tests reach:
the relator tuples (`half_grid_presentation`, `grid_presentation`) built as
the definitions read, and the Smith normal form (`abelianization`), which
also takes general presentations.  The tests spell the tuples out
themselves to check the lines `group` prints.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator

from .errors import DegreeMismatch, Frozen
from .halfgrid import GridDiagram, Permutation

Word = tuple[int, ...]  # signed generator indices; positive = the generator
Edge = tuple[int, int, int]  # (a, b, s): the relation x_a + s*x_b, s = +1 or -1


class GroupPresentation(Frozen):
    generator_count: int
    relators: tuple[Word, ...]

    def __init__(self, generator_count: int, relators: tuple[Word, ...]):
        g = generator_count
        relators = tuple(map(tuple, relators))
        for word in relators:
            if word and (min(word) < -g or max(word) > g or 0 in word):
                bad = next(x for x in word if not 1 <= abs(x) <= g)
                raise ValueError(f"letter {bad} out of range")
        self.__dict__.update(generator_count=generator_count, relators=relators)

    def sorted_relators(self) -> tuple[Word, ...]:
        """Canonical order: by length, then lexicographically."""
        return tuple(sorted(self.relators, key=lambda w: (len(w), w)))


def grid_presentation(g: GridDiagram) -> GroupPresentation:
    """One generator per column; relator j, for j = 1..m-1, lists left to
    right the columns c whose vertical segment crosses the horizontal line
    between rows j and j+1, those with lo <= j < hi for (lo, hi) =
    `g.column_rows(c)`."""
    spans = [g.column_rows(c) for c in range(1, g.size + 1)]
    relators = tuple(
        tuple(c for c, (lo, hi) in enumerate(spans, start=1) if lo <= j < hi)
        for j in range(1, g.size)
    )
    return GroupPresentation(g.size, relators)


def grid_relation_edges(g: GridDiagram) -> list[Edge]:
    """Relator j minus relator j-1 as an edge between the two marked columns
    of row j, for j = 1..m-1; a mark counts +1 where its column's span starts
    at row j and -1 where it ends, so s is +1 when both marks agree."""
    started = bytearray(g.size + 1)
    edges = []
    for x, o in zip(g.x_cols[:-1], g.o_cols[:-1]):
        edges.append((x, o, 1 if started[x] == started[o] else -1))
        started[x] = started[o] = 1
    return edges


def half_grid_presentation(sigma_plus: Permutation, sigma_minus: Permutation) -> GroupPresentation:
    """2n generators; the full word x1..x2n, then for each permutation and
    each i = 1..n-1 the word left after deleting x_{sigma(1)}..x_{sigma(2i)}."""
    n = _half_grid_rows(sigma_plus, sigma_minus)
    full = tuple(range(1, 2 * n + 1))
    relators = [full]
    for sigma in (sigma_plus, sigma_minus):
        for i in range(1, n):
            deleted = set(sigma.images[: 2 * i])
            relators.append(tuple(x for x in full if x not in deleted))
    return GroupPresentation(2 * n, relators)


def half_grid_relation_edges(sigma_plus: Permutation, sigma_minus: Permutation) -> list[Edge]:
    """The pairs (sigma(2i-1), sigma(2i)), i = 1..n, of both permutations,
    all with s = +1.  Each relator minus the next is x_{sigma(2i-1)} +
    x_{sigma(2i)}, and the full word is the sum of all n pairs of one
    permutation, so the edges span the same relation lattice."""
    n = _half_grid_rows(sigma_plus, sigma_minus)
    edges = []
    for sigma in (sigma_plus, sigma_minus):
        images = sigma.images
        edges.extend((images[2 * i], images[2 * i + 1], 1) for i in range(n))
    return edges


def _half_grid_rows(sigma_plus: Permutation, sigma_minus: Permutation) -> int:
    """n for two permutations of 1..2n, or DegreeMismatch."""
    if sigma_plus.degree != sigma_minus.degree:
        raise DegreeMismatch(
            f"permutation degrees differ: {sigma_plus.degree} vs {sigma_minus.degree}"
        )
    if sigma_plus.degree % 2:
        raise DegreeMismatch("half grid permutations need even degree")
    return sigma_plus.degree // 2


def half_grid_relator_lines(
    sigma_plus: Permutation, sigma_minus: Permutation, prefix: str = "x", sep: str = " "
) -> Iterator[str]:
    """The relators of `half_grid_presentation`, each spelled as its
    generators' names prefix + x joined by sep, made one at a time as they
    are read.  The degrees are checked at the call, before any line.

    Relator i of sigma is relator i-1 with the names x_{sigma(2i-1)} and
    x_{sigma(2i)} deleted.  The line is kept padded with sep at both ends,
    so that sep + name + sep matches one whole name."""
    n = _half_grid_rows(sigma_plus, sigma_minus)
    return _deletion_sweep(n, (sigma_plus.images, sigma_minus.images), prefix, sep)


def _deletion_sweep(
    n: int, sigmas: tuple[tuple[int, ...], ...], prefix: str, sep: str
) -> Iterator[str]:
    names = [f"{prefix}{x}" for x in range(1, 2 * n + 1)]
    keys = ["", *(f"{sep}{name}{sep}" for name in names)]
    full = f"{sep}{sep.join(names)}{sep}"
    w = len(sep)
    yield full[w:-w]
    for images in sigmas:
        line = full
        for i in range(0, 2 * n - 2, 2):
            line = line.replace(keys[images[i]], sep, 1).replace(keys[images[i + 1]], sep, 1)
            yield line[w:-w]


def grid_relator_lines(g: GridDiagram, prefix: str = "x", sep: str = " ") -> Iterator[str]:
    """The relators of `grid_presentation`, spelled and padded as in
    `half_grid_relator_lines`.  A column whose span starts at row j goes in
    before the name of the next live column, or at the end if none
    follows; a column whose span ends there is deleted.  One byte per
    column is set while its span is open: each column holds two marks, so
    its first mark opens the span and its second closes it."""
    live = bytearray(g.size + 1)
    line = sep
    w = len(sep)
    for x, o in zip(g.x_cols[:-1], g.o_cols[:-1]):  # row m only closes columns
        for c in (x, o):
            name = f"{sep}{prefix}{c}{sep}"
            if live[c]:
                line = line.replace(name, sep, 1)
            else:
                nxt = live.find(1, c)
                if nxt < 0:
                    line += name[w:]
                else:
                    after = f"{prefix}{nxt}{sep}"
                    line = line.replace(sep + after, name + after, 1)
            live[c] ^= 1
        yield line[w:-w]


def relation_matrix(p: GroupPresentation) -> list[list[int]]:
    """Exponent-sum matrix, one row per relator."""
    rows = []
    for word in p.relators:
        row = [0] * p.generator_count
        for letter in word:
            row[abs(letter) - 1] += 1 if letter > 0 else -1
        rows.append(row)
    return rows


def smith_normal_form(matrix: list[list[int]]) -> list[int]:
    """Diagonal invariant factors d1 | d2 | ... of an integer matrix,
    non-negative, zeros dropped at the end.  Exact integer elimination,
    pivoting on the entry of minimal non-zero absolute value."""
    m = [row[:] for row in matrix]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    diag: list[int] = []
    top = 0
    while top < min(rows, cols):
        # find the minimal non-zero pivot in the remaining block
        pivot = None
        for i in range(top, rows):
            for j in range(top, cols):
                if m[i][j] and (pivot is None or abs(m[i][j]) < abs(m[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        i, j = pivot
        m[top], m[i] = m[i], m[top]
        for row in m:
            row[top], row[j] = row[j], row[top]
        dirty = False
        for i in range(rows):
            if i != top and m[i][top]:
                q = m[i][top] // m[top][top]
                for j in range(cols):
                    m[i][j] -= q * m[top][j]
                dirty = dirty or m[i][top] != 0
        for j in range(cols):
            if j != top and m[top][j]:
                q = m[top][j] // m[top][top]
                for i in range(rows):
                    m[i][j] -= q * m[i][top]
                dirty = dirty or m[top][j] != 0
        if dirty:
            continue  # remainders appeared; re-pivot on a smaller entry
        diag.append(abs(m[top][top]))
        top += 1
    # enforce the divisibility chain d1 | d2 | ...
    changed = True
    while changed:
        changed = False
        for i in range(len(diag) - 1):
            a, b = diag[i], diag[i + 1]
            if b % a:
                g = math.gcd(a, b)
                diag[i], diag[i + 1] = g, a * b // g
                changed = True
    return diag


def abelianization(p: GroupPresentation) -> tuple[int, list[int]]:
    """(free rank, torsion coefficients > 1) of the abelianized group."""
    factors = smith_normal_form(relation_matrix(p)) if p.relators else []
    nonzero = [d for d in factors if d]
    free_rank = p.generator_count - len(nonzero)
    return free_rank, [d for d in nonzero if d > 1]


def signed_graph_abelianization(
    vertex_count: int, edges: Iterable[Edge]
) -> tuple[int, list[int]]:
    """(free rank, torsion coefficients > 1) of the abelian group on
    x_1..x_{vertex_count} with one relation x_a + s*x_b per edge (a, b, s).

    A signed 2-colouring walk (Harary's balance of a signed graph): each
    component is walked from its least vertex with an explicit stack, and
    every vertex gets the sign with x_v = sign[v] * x_root, so an edge asks
    that sign[b] == -s*sign[a].  A component whose edges all agree is
    balanced and gives one Z; an edge that clashes closes an odd cycle,
    2*x_root = 0, and the component gives Z/2.  O(V + E) steps.
    """
    if vertex_count < 0:
        raise ValueError(f"negative vertex count {vertex_count}")
    adjacent: list[list[tuple[int, int]]] = [[] for _ in range(vertex_count + 1)]
    for a, b, s in edges:
        if not (1 <= a <= vertex_count and 1 <= b <= vertex_count and s in (1, -1)):
            raise ValueError(f"bad edge {(a, b, s)} on {vertex_count} vertices")
        adjacent[a].append((b, s))
        adjacent[b].append((a, s))
    sign = [0] * (vertex_count + 1)  # 0 until the walk reaches the vertex
    free_rank = odd_count = 0
    for root in range(1, vertex_count + 1):
        if sign[root]:
            continue
        sign[root], stack, clash = 1, [root], False
        while stack:
            a = stack.pop()
            for b, s in adjacent[a]:
                if not sign[b]:
                    sign[b] = -s * sign[a]
                    stack.append(b)
                elif sign[b] != -s * sign[a]:
                    clash = True
        if clash:
            odd_count += 1
        else:
            free_rank += 1
    return free_rank, [2] * odd_count
