"""Exact dyadic rationals, standard dyadic intervals and partitions.

Everything here is an immutable value; no floats anywhere.  All breakpoints
live in [0,1].  DEPTH_CAP is a stated input bound of this layer: a dyadic,
an interval or a partition that needs an exponent above it raises
DepthExceeded.  Python integers would need no such cap; it keeps inputs,
outputs and the half grids built from partitions to a documented size.  The
bound lives in errors, next to DepthExceeded, and is re-exported here, so
the layers that only check it need not load this one.
Trees and tree pairs (thompson) have no depth bound of their own; they meet
the cap only when turned into breakpoints or half grids, or when a map
value is computed.
"""

from __future__ import annotations

import re
from functools import total_ordering

from .errors import DEPTH_CAP, INT, DepthExceeded, Frozen, NoConjugate, NotInE, ParseError

_DYADIC = rf"\s*{INT}(?:/{INT})?\s*"
_DYADIC_TOKEN = re.compile(_DYADIC)
_DYADIC_LIST = re.compile(rf"{_DYADIC}(?:,{_DYADIC})*")


def _check_depth(exp: int) -> None:
    if exp > DEPTH_CAP:
        raise DepthExceeded(f"exponent {exp} exceeds DEPTH_CAP={DEPTH_CAP}")


@total_ordering
class Dyadic(Frozen):
    """num / 2**exp, normalized so exp == 0 or num is odd."""

    num: int
    exp: int

    def __init__(self, num: int, exp: int = 0):
        if exp < 0:
            raise ValueError("exponent must be non-negative")
        if exp > 0 and num % 2 == 0:
            # strip min(exp, trailing zero bits) factors of two at once
            shift = exp if num == 0 else min(exp, (num & -num).bit_length() - 1)
            num >>= shift
            exp -= shift
        _check_depth(exp)
        self.__dict__.update(num=num, exp=exp)

    def _scaled(self, exp: int) -> int:
        return self.num << (exp - self.exp)

    def __lt__(self, other: "Dyadic") -> bool:
        e = max(self.exp, other.exp)
        return self._scaled(e) < other._scaled(e)

    def __add__(self, other: "Dyadic") -> "Dyadic":
        e = max(self.exp, other.exp)
        return Dyadic(self._scaled(e) + other._scaled(e), e)

    def __sub__(self, other: "Dyadic") -> "Dyadic":
        e = max(self.exp, other.exp)
        return Dyadic(self._scaled(e) - other._scaled(e), e)

    def mul_pow2(self, k: int) -> "Dyadic":
        """Multiply by 2**k (k may be negative)."""
        if k >= self.exp:
            return Dyadic(self.num << (k - self.exp), 0)
        return Dyadic(self.num, self.exp - k)

    def __str__(self) -> str:
        if self.exp == 0:
            return str(self.num)
        return f"{self.num}/{1 << self.exp}"


ZERO = Dyadic(0)
ONE = Dyadic(1)
HALF = Dyadic(1, 1)


def parse_dyadic(text: str, pos: str = "") -> Dyadic:
    """Parse "0", "1" or "k/2^m" with the denominator written in decimal."""
    where = f" at {pos}" if pos else ""
    try:
        if not _DYADIC_TOKEN.fullmatch(text):
            raise ValueError(text)
        top, slash, bottom = text.partition("/")
        num, den = int(top), int(bottom) if slash else 1
    except ValueError:
        raise ParseError(f"malformed dyadic {text.strip()!r}{where}") from None
    if den <= 0 or den & (den - 1):
        raise ParseError(f"denominator {den} is not a power of two{where}")
    return Dyadic(num, den.bit_length() - 1)


class SdInterval(Frozen):
    """[k/2^m, (k+1)/2^m] inside [0,1]."""

    k: int
    m: int

    def __init__(self, k: int, m: int):
        if m < 0 or not 0 <= k <= (1 << m) - 1:
            raise ValueError(f"not a standard dyadic interval: k={k}, m={m}")
        _check_depth(m)
        self.__dict__.update(k=k, m=m)

    @classmethod
    def from_endpoints(cls, lo: Dyadic, hi: Dyadic) -> "SdInterval":
        length = hi - lo
        if length.num != 1:
            raise ValueError(f"[{lo}, {hi}] is not a standard dyadic interval")
        m = length.exp
        if lo.exp > m:
            raise ValueError(f"[{lo}, {hi}] is not a standard dyadic interval")
        return cls(lo.num << (m - lo.exp), m)

    @property
    def lo(self) -> Dyadic:
        return Dyadic(self.k, self.m)

    @property
    def hi(self) -> Dyadic:
        return Dyadic(self.k + 1, self.m)

    def __str__(self) -> str:
        return f"[{self.lo},{self.hi}]"


UNIT = SdInterval(0, 0)


class SdPartition(Frozen):
    """Breakpoints 0 = a_0 < a_1 < ... < a_n = 1 with s.d. subintervals."""

    breakpoints: tuple[Dyadic, ...]

    def __init__(self, breakpoints: tuple[Dyadic, ...]):
        bps = tuple(breakpoints)
        if len(bps) < 2 or bps[0] != ZERO or bps[-1] != ONE:
            raise ValueError("partition must run from 0 to 1")
        for a, b in zip(bps, bps[1:]):
            if not a < b:
                raise ValueError(f"breakpoints not increasing at {a}")
            SdInterval.from_endpoints(a, b)  # raises if not s.d.
        self.__dict__.update(breakpoints=bps)

    @property
    def n(self) -> int:
        return len(self.breakpoints) - 1

    def subintervals(self) -> tuple[SdInterval, ...]:
        return tuple(
            SdInterval.from_endpoints(a, b)
            for a, b in zip(self.breakpoints, self.breakpoints[1:])
        )

    def __str__(self) -> str:
        return ",".join(str(b) for b in self.breakpoints)


def partition_leaves(text: str) -> tuple[int, ...]:
    """Heap id (1 << d) | k of each subinterval [k/2^d, (k+1)/2^d] of the
    partition written as comma-separated breakpoints, in one integer scan.

    Checks run in the order of the object route that the tests keep as its
    oracle (`_object_route` in tests/test_dyadic.py), and fail with its
    exceptions and messages: `parse_dyadic` on every token, then the first
    breakpoint not above its predecessor, named by position, then the
    `SdPartition` checks of the ends and of the first subinterval that is
    not standard dyadic, raised as ParseError.  Each breakpoint is held as
    an integer over 2^DEPTH_CAP; a Dyadic is built only on an error path,
    to raise DepthExceeded or to name an interval."""
    points = []
    well_formed = _DYADIC_LIST.fullmatch(text)  # else find the first bad token
    for i, tok in enumerate(text.split(",")):
        try:
            if not (well_formed or _DYADIC_TOKEN.fullmatch(tok)):
                raise ValueError(tok)
            top, slash, bottom = tok.partition("/")
            num, den = int(top), int(bottom) if slash else 1
        except ValueError:
            raise ParseError(f"malformed dyadic {tok.strip()!r} at position {i}") from None
        if den <= 0 or den & (den - 1):
            raise ParseError(f"denominator {den} is not a power of two at position {i}")
        exp = den.bit_length() - 1
        if exp > DEPTH_CAP and num << DEPTH_CAP & ((1 << exp) - 1):
            Dyadic(num, exp)  # above DEPTH_CAP in lowest terms too: raises DepthExceeded
        points.append(num << DEPTH_CAP >> exp)
    for i, (a, b) in enumerate(zip(points, points[1:])):
        if not a < b:
            raise ParseError(f"breakpoints not increasing at position {i + 1}")
    if len(points) < 2 or points[0] != 0 or points[-1] != 1 << DEPTH_CAP:
        raise ParseError("partition must run from 0 to 1")
    ids = []
    root = 1 << DEPTH_CAP  # id of [0,1] over 2^DEPTH_CAP
    for a, b in zip(points, points[1:]):
        gap = b - a  # standard dyadic when gap is a power of two 2^s dividing a
        if (a | gap) & (gap - 1):
            lo, hi = Dyadic(a, DEPTH_CAP), Dyadic(b, DEPTH_CAP)
            raise ParseError(f"[{lo}, {hi}] is not a standard dyadic interval")
        ids.append((root + a) >> (gap.bit_length() - 1))
    return tuple(ids)


def partition_from_leaves(ids) -> SdPartition:
    """The partition whose subintervals have these heap ids, left to right:
    id h of bit length d + 1 is [k/2^d, (k+1)/2^d] with k = h - 2^d."""
    lows = []
    for h in ids:
        d = h.bit_length() - 1
        lows.append(Dyadic(h ^ (1 << d), d))
    return SdPartition((*lows, ONE))


def parse_partition(text: str) -> SdPartition:
    return partition_from_leaves(partition_leaves(text))


def midpoint(iv: SdInterval) -> Dyadic:
    _check_depth(iv.m + 1)
    return Dyadic(2 * iv.k + 1, iv.m + 1)


def midpoint_inverse(p: Dyadic) -> SdInterval:
    """The unique s.d. interval whose midpoint is p, for p in (0,1)."""
    if not ZERO < p < ONE:
        raise NotInE(f"{p} is not an interior dyadic point")
    # p = a/2^n with a odd, n >= 1; interval is [(a-1)/2^n, (a+1)/2^n].
    return SdInterval((p.num - 1) >> 1, p.exp - 1)


def conjugate(iv: SdInterval) -> SdInterval:
    if iv == UNIT:
        raise NoConjugate("[0,1] has no conjugate")
    if iv.k % 2 == 0:
        return SdInterval(iv.k + 1, iv.m)
    return SdInterval(iv.k - 1, iv.m)


def sign(iv: SdInterval) -> str:
    """Recursive sign: root is +, a left child inherits, a right child flips.

    Equivalently: '-' exactly when k has an odd number of 1-bits.
    """
    return "-" if bin(iv.k).count("1") % 2 else "+"


def spanning_intervals(p: SdPartition) -> tuple[SdInterval, ...]:
    """All s.d. intervals spanned by breakpoint pairs, in midpoint order.

    The intervals form a binary tree: an interval either is a subinterval of
    p or splits at its midpoint, which must then be a breakpoint.  An
    in-order walk (left child, interval, right child) lists them by midpoint;
    it keeps its own stack, so deep partitions need no recursion.
    """
    bps = set(p.breakpoints)
    found: list[SdInterval] = []
    stack: list[tuple[SdInterval, bool]] = []
    iv: SdInterval | None = UNIT
    while iv is not None or stack:
        while iv is not None:
            splits = midpoint(iv) in bps
            stack.append((iv, splits))
            iv = SdInterval(2 * iv.k, iv.m + 1) if splits else None
        iv, splits = stack.pop()
        found.append(iv)
        iv = SdInterval(2 * iv.k + 1, iv.m + 1) if splits else None
    return tuple(found)


def spanning_intervals_by_pairs(p: SdPartition) -> tuple[SdInterval, ...]:
    """Quadratic oracle: test every breakpoint pair directly."""
    bps = p.breakpoints
    found = []
    for i in range(len(bps)):
        for j in range(i + 1, len(bps)):
            try:
                found.append(SdInterval.from_endpoints(bps[i], bps[j]))
            except ValueError:
                continue
    found.sort(key=midpoint)
    return tuple(found)
