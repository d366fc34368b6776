"""Exact geometry: parameters, grid oracles, disk and segment predicates.

Every predicate in this module is decided exactly: the parameter checks on
``fractions.Fraction``, the disk and segment predicates on Python ints (or
on rationals where a caller passes them).  Irrational quantities (square
roots and pi) never enter a comparison directly; they are squared away or
replaced by certified rational bounds whose direction of error is tracked
explicitly.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction
from math import isqrt
from typing import Dict, List, NamedTuple, Optional, Tuple

from .base import Malformed, json_ints, json_key

Point = Tuple[Fraction, Fraction]


# ---------------------------------------------------------------------------
# rational serialization
# ---------------------------------------------------------------------------

def rational_to_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def rational_from_str(s) -> Fraction:
    if type(s) is not int and type(s) is not str:  # not bool, which JSON true and false parse to
        raise Malformed(f"expected 'num/den' string or int, got {type(s).__name__}")
    if type(s) is str and ("e" in s or "E" in s):    # Fraction("1e10000000") takes seconds
        raise Malformed(f"exponent spelling in rational {s!r}; write 'num/den'")
    try:
        return Fraction(s)
    except ZeroDivisionError:
        raise Malformed(f"zero denominator in rational {s!r}") from None
    except ValueError as exc:
        raise Malformed(str(exc)) from None


# ---------------------------------------------------------------------------
# certified irrational bounds
# ---------------------------------------------------------------------------

def sqrt_bounds(x: Fraction, err: Fraction = Fraction(1, 10**9)) -> Tuple[Fraction, Fraction]:
    """Return rational (lo, hi) with lo <= sqrt(x) <= hi and hi - lo <= err.

    Uses integer square roots of a scaled numerator, so both bounds are
    certified: lo*lo <= x <= hi*hi.
    """
    if x < 0:
        raise ValueError("sqrt of negative rational")
    if x == 0:
        return Fraction(0), Fraction(0)
    # scale so that 1/scale <= err
    scale = 1
    while Fraction(1, scale) > err:
        scale *= 2
    # sqrt(num/den) = sqrt(num*den)/den
    n = x.numerator * x.denominator
    d = x.denominator
    root = isqrt(n * scale * scale)
    lo = Fraction(root, d * scale)
    hi = Fraction(root + 1, d * scale)
    assert lo * lo <= x <= hi * hi
    return lo, hi


def sqrt2_upper(mult: int = 1, err: Fraction = Fraction(1, 10**6)) -> Fraction:
    """Certified upper bound on sqrt(2) * mult with error below ``err``."""
    return sqrt_bounds(Fraction(2 * mult * mult), err)[1]


def _arctan_bounds(x: Fraction, terms: int) -> Tuple[Fraction, Fraction]:
    # alternating Taylor series; partial sums bracket the limit for 0 < x < 1
    assert 0 < x < 1
    s = Fraction(0)
    lo = hi = None
    xp = x
    x2 = x * x
    for i in range(terms):
        term = xp / (2 * i + 1)
        if i % 2 == 0:
            s += term
            hi = s
        else:
            s -= term
            lo = s
        xp *= x2
    assert lo is not None and hi is not None and lo < hi
    return lo, hi


def pi_bounds(terms: int = 24) -> Tuple[Fraction, Fraction]:
    """Certified rational bounds on pi via a Machin arctangent identity."""
    lo5, hi5 = _arctan_bounds(Fraction(1, 5), terms)
    lo239, hi239 = _arctan_bounds(Fraction(1, 239), terms)
    lo = 16 * lo5 - 4 * hi239
    hi = 16 * hi5 - 4 * lo239
    return lo, hi


def ceil_frac(x: Fraction) -> int:
    return -((-x.numerator) // x.denominator)


def floor_frac(x: Fraction) -> int:
    return x.numerator // x.denominator


# ---------------------------------------------------------------------------
# parameter sets
# ---------------------------------------------------------------------------

class ParamSet(NamedTuple):
    """Geometric constants shared by one synthesized disk instance.

    ``n`` is the bounding grid size of the embedding the instance lives on.
    ``s`` is the clearance radius kept free around every vertex, ``a`` the
    straight run at both gadget ends and ``h`` the gadget height.
    ``spacing`` is always 9/5 r, a preferred centre distance of consecutive
    path disks that is recorded with the parameters but not used for
    layout: each wall plan picks its own pitch.  ``c_edge`` and
    ``c_vertex`` are the uniform per-gadget disk counts.
    """

    n: int
    r: Fraction
    s: Fraction
    a: Fraction
    h: Fraction
    spacing: Fraction
    c_edge: int
    c_vertex: int
    mode: str = "sound"

    def as_dict(self) -> Dict[str, object]:
        return {
            "n": self.n,
            "r": rational_to_str(self.r),
            "s": rational_to_str(self.s),
            "a": rational_to_str(self.a),
            "h": rational_to_str(self.h),
            "spacing": rational_to_str(self.spacing),
            "c_edge": self.c_edge,
            "c_vertex": self.c_vertex,
            "mode": self.mode,
        }

    @staticmethod
    def from_dict(d: Dict[str, object]) -> "ParamSet":
        field = functools.partial(json_key, d, what="params")
        n, c_edge, c_vertex = json_ints(map(field, ("n", "c_edge", "c_vertex")),
                                        "params n, c_edge and c_vertex")
        mode = field("mode")
        if mode not in ("sound", "toy"):
            raise Malformed(f"params mode must be 'sound' or 'toy', not {mode!r}")
        r, s, a, h, spacing = (rational_from_str(field(k)) for k in ("r", "s", "a", "h", "spacing"))
        return ParamSet(n=n, r=r, s=s, a=a, h=h, spacing=spacing,
                        c_edge=c_edge, c_vertex=c_vertex, mode=mode)


def count_edge_disks(n: int, r: Fraction, s: Fraction) -> Tuple[int, Fraction]:
    """Uniform per-edge disk count: ceil((sqrt(2)*n - 2s) / (2r)).

    sqrt(2)*n is replaced by a certified rational upper bound with error
    below 1e-6; the bound used is returned alongside the count.
    """
    ub = sqrt2_upper(n, Fraction(1, 10**6))
    return ceil_frac((ub - 2 * s) / (2 * r)), ub


def count_vertex_disks(r: Fraction, s: Fraction) -> int:
    """Uniform per-vertex disk count: ceil(pi * s / r), certified.

    The ceiling is taken on the upper pi bound and checked against the lower
    bound so the result equals ceil of the true irrational value.
    """
    ratio = s / r
    terms = 24
    while True:
        lo, hi = pi_bounds(terms)
        c = ceil_frac(hi * ratio)
        if lo * ratio > c - 1:
            return c
        terms += 8  # tighten until the bracket no longer straddles an integer


def compute_params(
    n: int,
    mode: str = "sound",
    overrides: Optional[Dict[str, Fraction]] = None,
) -> ParamSet:
    """Build the parameter set for grid size ``n``.

    Sound mode uses r = 1/(80 n^3), h = 1/(12 n^2), a = 1/4 and the rational
    clearance surrogate s = 6 r n^2 (an upper bound on the irrational
    closed form; see check_constraints, which re-verifies everything with the
    surrogate in place).  The paper's r = 1/(40 n^4) is the same at n = 2;
    at larger n this radius keeps c_edge near 40 sqrt(2) n^4 rather than
    20 sqrt(2) n^5.  The five constraints hold for every n >= 2:

    - C1: 2(r + s) <= 2(1/640 + 3/80) < 1.
    - C2: n (r + s + h/2) = 1/(80 n^2) + 3/40 + 1/(24 n) < 0.1, and
      n / sqrt(2n^2 - 2n + 1) > 1/sqrt(2) > 0.1.
    - C3: n h = 1/(12 n) < 1/sqrt(2), by the same bound.
    - C4: (s + a)/(6 n^2) > a/(6 n^2) = h/2, for any s > 0.
    - C5: 1/(2r) = 40 n^3, so the hallways take 2 a/(2r) = 20 n^3 disks,
      rows = floor(10 n/3) >= (10 n - 2)/3 and cols = 20 n^3 - 6 n^2 - 1;
      with 2s/(2r) = 6 n^2 and sqrt(2) n bounded above within 1e-6,
      c_edge <= 40 sqrt(2) n^4 + 4e-5 n^3 - 6 n^2 + 1.  The capacity
      rows * cols then exceeds c_edge - 20 n^3 by at least
      10.09 n^4 - 13.34 n^3 + 10 n^2 - 3.34 n - 0.34 > 0.

    Toy mode starts from desk-scale defaults; toy parameter sets are
    allowed to violate the soundness constraints and are reported as such
    by check_constraints.  In either mode ``overrides`` may replace ``r``,
    ``s``, ``a`` and ``h``.
    """
    overrides = dict(overrides or {})
    if mode == "sound":
        if n < 2:
            raise Malformed("sound mode requires grid size n >= 2")
        r = Fraction(1, 80 * n**3)
        h = Fraction(1, 12 * n**2)
        a = Fraction(1, 4)
        s = 6 * r * n * n
    elif mode == "toy":
        if n < 1:
            raise Malformed("grid size must be at least 1")
        r = Fraction(1, 10)
        h = Fraction(1, 2)
        a = Fraction(1, 4)
        s = Fraction(1, 4)
    else:
        raise Malformed(f"unknown parameter mode: {mode!r}")
    r = overrides.pop("r", r)
    h = overrides.pop("h", h)
    a = overrides.pop("a", a)
    if mode == "sound" and "s" not in overrides:
        s = 6 * r * n * n  # dependent default tracks an overridden radius
    s = overrides.pop("s", s)
    if overrides:
        raise Malformed(f"unknown parameter overrides: {sorted(overrides)}")
    if not (0 < r and 0 < s and 0 < h and 0 <= a):
        raise Malformed("parameters must be positive")
    return ParamSet(
        n=n, r=r, s=s, a=a, h=h, spacing=Fraction(9, 5) * r,
        c_edge=count_edge_disks(n, r, s)[0], c_vertex=count_vertex_disks(r, s), mode=mode,
    )


class ConstraintReport(NamedTuple):
    """Outcome of the five sizing constraints for one parameter set."""

    entries: List[Tuple[str, bool, str]]

    @property
    def ok(self) -> bool:
        return all(passed for _, passed, _ in self.entries)

    def failing(self) -> List[str]:
        return [name for name, passed, _ in self.entries if not passed]

    def lines(self) -> List[str]:
        return [
            f"{'ok  ' if passed else 'FAIL'} {name}: {detail}"
            for name, passed, detail in self.entries
        ]


def _lt_inv_sqrt(x: Fraction, k: int) -> bool:
    # exact test  x < 1/sqrt(k)  for positive rational x and integer k >= 1
    return x > 0 and x * x * k < 1


def check_constraints(p: ParamSet) -> ConstraintReport:
    """Evaluate the five sizing constraints exactly for ``p``.

     1. vertex clearances of one unit edge stay disjoint: 2(r+s) < 1
     2. non-incident gadgets clear every vertex cluster: r+s+h/2 < d_min(n)
     3. two gadget corridors never meet off their vertices: h < d_min(n)
    4. corridors of incident edges diverge before the cabin: h/2 < (s+a)/(6 n^2)
    5. the shortest cabin can absorb the uniform disk count

    with d_min(n) = 1/sqrt(2 n^2 - 2 n + 1), the exact minimum distance
    between a grid line and an off-line grid point (see
    min_grid_line_point_distance_sq).
    """
    n, r, s, a, h = p.n, p.r, p.s, p.a, p.h
    k = 2 * n * n - 2 * n + 1
    entries: List[Tuple[str, bool, str]] = []

    lhs1 = 2 * (r + s)
    entries.append(("C1: 2(r+s) < 1", lhs1 < 1, f"2(r+s) = {lhs1}"))

    lhs2 = r + s + h / 2
    entries.append(
        ("C2: r+s+h/2 < 1/sqrt(2n^2-2n+1)", _lt_inv_sqrt(lhs2, k),
         f"(r+s+h/2)^2 * ({k}) = {lhs2 * lhs2 * k}")
    )

    entries.append(
        ("C3: h < 1/sqrt(2n^2-2n+1)", _lt_inv_sqrt(h, k), f"h^2 * ({k}) = {h * h * k}")
    )

    rhs4 = (s + a) / (6 * n * n)
    entries.append(("C4: h/2 < (s+a)/(6n^2)", h / 2 < rhs4, f"h/2 = {h/2}, bound = {rhs4}"))

    hallway = ceil_frac(a / (2 * r))
    rows = floor_frac(h / (2 * r))
    b_min = 1 - 2 * (s + a)
    cols = floor_frac(b_min / (2 * r) - 1)
    lhs5 = p.c_edge - 2 * hallway
    rhs5 = rows * cols
    entries.append(
        ("C5: cabin capacity at minimum edge length", lhs5 <= rhs5,
         f"c_edge - 2*ceil(a/2r) = {lhs5}, rows*cols = {rows}*{cols} = {rhs5}")
    )
    return ConstraintReport(entries)


def cli_check_params(n: int, mode: str = "sound",
                     overrides: Optional[Dict[str, Fraction]] = None) -> Tuple[int, dict]:
    params = compute_params(n, mode, dict(overrides or {}))
    report = check_constraints(params)
    payload = {
        "params": params.as_dict(),
        "ok": report.ok,
        "constraints": [
            {"name": name, "ok": passed, "detail": detail}
            for name, passed, detail in report.entries
        ],
    }
    return (0 if report.ok else 1), payload


# ---------------------------------------------------------------------------
# grid oracles
# ---------------------------------------------------------------------------

def min_grid_line_point_distance_sq(n: int):
    """Exhaustive minimum squared distance between a line through two grid
    points of the (n+1) x (n+1) integer grid and a grid point off that line.

    Returns ``(value, witness)`` where witness = (line_p, line_q, point).
    The value equals 1/(2 n^2 - 2 n + 1) for every n >= 2.
    """
    if n < 1:
        raise Malformed("grid size must be at least 1")
    pts = [(x, y) for x in range(n + 1) for y in range(n + 1)]
    best: Optional[Fraction] = None
    witness = None
    for i, p in enumerate(pts):
        for q in pts[i + 1:]:
            ax, ay = q[0] - p[0], q[1] - p[1]
            den = ax * ax + ay * ay
            for t in pts:
                cross = ax * (t[1] - p[1]) - ay * (t[0] - p[0])
                if cross == 0:
                    continue
                d2 = Fraction(cross * cross, den)
                if best is None or d2 < best:
                    best, witness = d2, (p, q, t)
    assert best is not None
    return best, witness


def _primitive_directions(n: int, apex: Tuple[int, int]) -> List[Tuple[int, int]]:
    from math import gcd

    seen = set()
    ax, ay = apex
    for x in range(n + 1):
        for y in range(n + 1):
            dx, dy = x - ax, y - ay
            if dx == 0 and dy == 0:
                continue
            g = gcd(abs(dx), abs(dy))
            dx, dy = dx // g, dy // g
            if dy < 0 or (dy == 0 and dx < 0):
                dx, dy = -dx, -dy  # lines are unoriented: normalize to upper half
            seen.add((dx, dy))
    return sorted(seen)


class AngleOracleResult(NamedTuple):
    ok: bool
    n: int
    min_tan: Optional[Fraction]       # None means the minimum angle is pi/2
    threshold_tan: Fraction
    witness: Tuple[Tuple[int, int], Tuple[int, int], Tuple[int, int]]


def min_grid_angle_exceeds(n: int) -> AngleOracleResult:
    """Check the minimum angle between distinct grid lines sharing a point.

    Enumerates, for every apex p of the grid, all pairs of lines through p
    and at least one other grid point, and verifies the smallest angle
    exceeds 2*arctan(1/(6 n^2)).  Comparisons use exact tangent arithmetic:
    tan of a line-pair angle is |cross|/|dot| and the threshold tangent is
    2t/(1-t^2) with t = 1/(6 n^2).
    """
    t = Fraction(1, 6 * n * n)
    threshold = 2 * t / (1 - t * t)

    best: Optional[Tuple[int, int]] = None  # (|cross|, |dot|), dot > 0
    best_witness = None

    def cmp(u, v):
        c = u[0] * v[1] - u[1] * v[0]
        return -1 if c > 0 else (1 if c < 0 else 0)

    for apex in itertools.product(range(n + 1), repeat=2):
        dirs = _primitive_directions(n, apex)
        if len(dirs) < 2:
            continue
        # directions normalized to [0, pi): sort by angle via cross sign
        dirs.sort(key=functools.cmp_to_key(cmp))
        # minimum line angle is attained between angularly consecutive
        # directions, including the wrap-around pair
        for u, v in zip(dirs, dirs[1:] + dirs[:1]):
            cross = abs(u[0] * v[1] - u[1] * v[0])
            dot = abs(u[0] * v[0] + u[1] * v[1])
            if cross == 0:
                continue  # same line
            if dot == 0:
                continue  # right angle: never the minimum when others exist
            if best is None or cross * best[1] < best[0] * dot:
                best = (cross, dot)
                best_witness = (apex, u, v)

    assert best is not None and best_witness is not None
    min_tan = Fraction(best[0], best[1])
    return AngleOracleResult(
        ok=min_tan > threshold,
        n=n,
        min_tan=min_tan,
        threshold_tan=threshold,
        witness=best_witness,
    )


def cli_lemma_oracle(n: int) -> dict:
    """Exhaustive grid facts for one grid size: the minimum squared
    line-to-off-line-point distance with its witness, and the minimum angle
    between grid lines through a common point compared against the
    drawing-perturbation threshold."""
    d2, (p, q, t) = min_grid_line_point_distance_sq(n)
    angle = min_grid_angle_exceeds(n)
    return {
        "n": n,
        "min_line_point_distance_sq": rational_to_str(d2),
        "distance_witness": {"line": [list(p), list(q)], "point": list(t)},
        "min_angle_tan": rational_to_str(angle.min_tan),
        "angle_threshold_tan": rational_to_str(angle.threshold_tan),
        "angle_exceeds_threshold": angle.ok,
        "angle_witness": {
            "apex": list(angle.witness[0]),
            "directions": [list(angle.witness[1]), list(angle.witness[2])],
        },
    }


# ---------------------------------------------------------------------------
# disks
# ---------------------------------------------------------------------------

class Disk(NamedTuple):
    x: Fraction
    y: Fraction
    tag: Tuple = ()

    @property
    def center(self) -> Point:
        return (self.x, self.y)


def triple_intersection_nonempty(
    a: Tuple[int, int], b: Tuple[int, int], c: Tuple[int, int], two_r: int
) -> bool:
    """Whether three closed disks of equal radius share a point, for
    integer centres and the integer diameter ``two_r`` in the same unit.

    A nonempty common region contains a corner of some pair's lens inside
    the third disk.  For the lens of p and q, with d² = |q - p|²,
    w = perp(q - p) and e = p + q - 2s, the corners are (p + q)/2 ± t·w,
    t = √(4r² - d²) / (2d), and 4d² (|corner - s|² - r²) = A ± B√Q for the
    integers A = (|e|² - d²) d², B = 2 (e·w) and Q = (4r² - d²) d².  So a
    corner is in the disk at s exactly when A ≤ |B|√Q: when A ≤ 0 or
    A² ≤ B²Q.
    """
    four_r2 = two_r * two_r
    for p, q in ((a, b), (a, c), (b, c)):
        dx, dy = q[0] - p[0], q[1] - p[1]
        if dx * dx + dy * dy > four_r2:
            return False
    if a == b or a == c or b == c:
        return True  # coincident disks: the triple is the remaining pair, which meets
    for p, q, s in ((a, b, c), (a, c, b), (b, c, a)):
        dx, dy = q[0] - p[0], q[1] - p[1]
        d2 = dx * dx + dy * dy
        ex, ey = p[0] + q[0] - 2 * s[0], p[1] + q[1] - 2 * s[1]
        big_a = (ex * ex + ey * ey - d2) * d2
        big_b = 2 * (ey * dx - ex * dy)
        if big_a <= 0 or big_a * big_a <= big_b * big_b * (four_r2 - d2) * d2:
            return True
    return False


# ---------------------------------------------------------------------------
# segment predicates (shared by the embedding and arrangement layers)
# ---------------------------------------------------------------------------

def orient(p: Point, q: Point, r: Point) -> int:
    """Sign of the cross product (q-p) x (r-p): +1 left turn, -1 right, 0 collinear."""
    v = (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])
    return (v > 0) - (v < 0)


def point_on_segment(p: Point, a: Point, b: Point) -> bool:
    """p lies on the closed segment ab."""
    if orient(a, b, p) != 0:
        return False
    return (
        min(a[0], b[0]) <= p[0] <= max(a[0], b[0])
        and min(a[1], b[1]) <= p[1] <= max(a[1], b[1])
    )


def ray_crossing(a: Point, b: Point, p: Point) -> int:
    """Signed crossing of the directed segment ab with the ray
    {(x, p.y) : x > p.x}: +1 upward, -1 downward, 0 otherwise.

    Half-open rule: an endpoint on the ray's line counts as below it, so a
    closed walk that avoids ``p`` sums to its winding number around ``p``
    with no degenerate case (a symbolic perturbation of the ray).
    """
    if a[1] <= p[1] < b[1] and orient(a, b, p) > 0:
        return 1
    if b[1] <= p[1] < a[1] and orient(a, b, p) < 0:
        return -1
    return 0


def segments_cross_properly(a: Point, b: Point, c: Point, d: Point) -> bool:
    """Open-interior crossing: the segments share exactly one interior point."""
    o1, o2 = orient(a, b, c), orient(a, b, d)
    o3, o4 = orient(c, d, a), orient(c, d, b)
    return o1 * o2 < 0 and o3 * o4 < 0
