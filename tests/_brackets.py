"""Kauffman bracket helpers for the tests: powers of a Laurent polynomial
and comparison up to framing."""

from __future__ import annotations

from halfgrids.linkdiag import LaurentPoly


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
