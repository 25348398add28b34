"""Kauffman bracket helpers for the tests: powers of a Laurent polynomial,
comparison up to framing, and loop counts of a smoothing by path splices."""

from __future__ import annotations

from halfgrids.linkdiag import _A_ENDS, _B_ENDS, LaurentPoly, _splice


def power(p: LaurentPoly, k: int) -> LaurentPoly:
    """p^k for k >= 0, by repeated multiplication."""
    if k < 0:
        raise ValueError(f"negative power {k}: a Laurent polynomial has no inverse in general")
    out = LaurentPoly({0: 1})
    for _ in range(k):
        out = out * p
    return out


def framing_shift(p: LaurentPoly, q: LaurentPoly) -> int | None:
    """k with p == (-A^3)^k * q, or None if no such integer exists."""
    if not p.coeffs or not q.coeffs:
        return 0 if p == q else None
    diff = min(p.coeffs) - min(q.coeffs)
    if diff % 3:
        return None
    k = diff // 3
    shifted = q * LaurentPoly({3 * k: -1 if k % 2 else 1})  # (-A^3)^k
    return k if shifted == p else None


def pd_loops(d, a_smoothed) -> int:
    """Circles left after smoothing crossing k A-wise where a_smoothed[k]
    is true and B-wise where it is false: one `_splice` per crossing on a
    mate table over the PD arcs of d that starts with every arc its own
    path, plus the free loops.  The Seifert circles are the count at
    ``[s > 0 for s in d.signs]``."""
    pd, arc_count, free_loops = d.arcs
    mate = list(range(arc_count))
    loops = free_loops
    for arcs, a in zip(pd, a_smoothed):
        loops += _splice(mate, arcs, _A_ENDS if a else _B_ENDS)
    return loops
