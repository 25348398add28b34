"""Comparing Kauffman brackets up to framing, for the tests."""

from __future__ import annotations

from halfgrids.linkdiag import LaurentPoly

NEG_A_CUBED = LaurentPoly.monomial(-1, 3)


def framing_shift(p: LaurentPoly, q: LaurentPoly) -> int | None:
    """k with p == (-A^3)^k * q, or None if no such integer exists."""
    if not p.coeffs or not q.coeffs:
        return 0 if p == q else None
    diff = min(p.coeffs) - min(q.coeffs)
    if diff % 3:
        return None
    k = diff // 3
    shifted = q * (NEG_A_CUBED ** k if k >= 0 else NEG_A_CUBED.mirror() ** (-k))
    return k if shifted == p else None
