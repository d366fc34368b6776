"""Reference implementations the exact kernel replaced, kept as oracles.

* The ``Fraction`` disk predicates: ``dist_sq``, ``disks_intersect`` and
  ``triple_intersection_nonempty`` with its sign test
  ``_sign_a_plus_b_sqrt_q``, on rational centres and radius.
* The per-pair separation sweep: the crossing parities of one pair of
  points, then one spanning forest with 0/1 potentials.  The
  all-pairs :func:`disklab.arrangements.separation` must return the same
  verdict and witness for every pair.
"""

from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from disklab import arrangements as ar
from disklab.geometry import Point, ray_crossing


def dist_sq(p: Point, q: Point) -> Fraction:
    dx = p[0] - q[0]
    dy = p[1] - q[1]
    return dx * dx + dy * dy


def disks_intersect(c1: Point, c2: Point, r: Fraction) -> bool:
    """Closed disks of common radius r intersect (tangency counts)."""
    return dist_sq(c1, c2) <= 4 * r * r


def _sign_a_plus_b_sqrt_q(a: Fraction, b: Fraction, q: Fraction) -> int:
    """Exact sign of a + b*sqrt(q) for rational a, b and q >= 0."""
    if q < 0:
        raise ValueError("negative radicand")
    if b == 0 or q == 0:
        return (a > 0) - (a < 0)
    if a == 0:
        return 1 if b > 0 else -1
    if a > 0 and b > 0:
        return 1
    if a < 0 and b < 0:
        return -1
    # opposite signs: compare a^2 with b^2 q, the larger magnitude wins
    lhs = a * a
    rhs = b * b * q
    if lhs == rhs:
        return 0
    if a > 0:  # b < 0
        return 1 if lhs > rhs else -1
    return -1 if lhs > rhs else 1


def triple_intersection_nonempty(c1: Point, c2: Point, c3: Point, r: Fraction) -> bool:
    """Exact emptiness test for the common intersection of three closed
    disks of equal radius.

    The region, when nonempty, either contains a boundary crossing point of
    two of the circles inside the third disk, or degenerates to a tangency
    point; both cases reduce to sign evaluations of a + b*sqrt(q) with
    rational a, b, q.
    """
    centers = (c1, c2, c3)
    for i in range(3):
        for j in range(i + 1, 3):
            if not disks_intersect(centers[i], centers[j], r):
                return False
    for i in range(3):
        for j in range(3):
            if i != j and centers[i] == centers[j]:
                # coincident disks: triple reduces to the remaining pair
                k = 3 - i - j
                return disks_intersect(centers[i], centers[k], r)

    r2 = r * r
    for i, j, k in ((0, 1, 2), (0, 2, 1), (1, 2, 0)):
        a, b, c = centers[i], centers[j], centers[k]
        d2 = dist_sq(a, b)
        q = r2 / d2 - Fraction(1, 4)  # (offset/|ab|)^2, nonnegative since disks meet
        mx = (a[0] + b[0]) / 2
        my = (a[1] + b[1]) / 2
        wx = -(b[1] - a[1])
        wy = b[0] - a[0]
        # lens corner P = M +- sqrt(q) * w ; test |P - c|^2 <= r^2
        ex = mx - c[0]
        ey = my - c[1]
        base = ex * ex + ey * ey + q * d2 - r2
        coef = 2 * (ex * wx + ey * wy)
        for sgn in (1, -1):
            if _sign_a_plus_b_sqrt_q(base, sgn * coef, q) <= 0:
                return True
    return False


def ray_parities(sc: ar.IntCenters, udg: ar.UnitDiskGraph, p: Point) -> List[int]:
    """Crossing parity of every center-graph edge, in ``udg.edges`` order,
    against the half-open horizontal ray from p, on integers."""
    sc, (ip,) = ar._with_points(sc, (p,))
    xs, ys = sc.xs, sc.ys
    return [ray_crossing((xs[i], ys[i]), (xs[j], ys[j]), ip) & 1 for i, j in udg.edges]


def pair_parities(
    sc: ar.IntCenters, udg: ar.UnitDiskGraph, p: Point, q: Point
) -> Dict[Tuple[int, int], int]:
    """Crossing parity of every center-graph edge against the rays from p
    and q together."""
    return dict(zip(udg.edges, map(int.__xor__, ray_parities(sc, udg, p),
                                   ray_parities(sc, udg, q))))


def pair_sweep(
    udg: ar.UnitDiskGraph, parity: Dict[Tuple[int, int], int]
) -> ar.SeparationResult:
    """Whether the edge parities of one pair of points close an odd cycle,
    and the first such cycle (in ``udg.edges`` order) of the DFS forest."""
    pot = [-1] * udg.n
    parent: List[Optional[int]] = [None] * udg.n
    for s in range(udg.n):
        if pot[s] != -1:
            continue
        pot[s] = 0
        stack = [s]
        while stack:
            v = stack.pop()
            for w in udg.adj[v]:
                if pot[w] == -1:
                    key = (v, w) if v < w else (w, v)
                    pot[w] = pot[v] ^ parity[key]
                    parent[w] = v
                    stack.append(w)
    for (i, j), x in parity.items():
        if pot[i] ^ pot[j] != x:
            return ar.SeparationResult(True, ar._tree_cycle(parent, i, j))
    return ar.SeparationResult(False, None)


def pair_separation(sc, udg, p, q) -> ar.SeparationResult:
    """The per-pair sweep on integer parities."""
    return pair_sweep(udg, pair_parities(sc, udg, p, q))


def assert_all_pairs_match_oracle(sc, udg, points) -> List[ar.SeparationResult]:
    """``separation`` of every pair of ``points`` equals the per-pair sweep;
    returns the results in sorted pair order."""
    got = ar.separation(sc, udg, points)
    ids = sorted(points)
    assert list(got) == [(a, b) for x, a in enumerate(ids) for b in ids[x + 1:]]
    bits = {a: ray_parities(sc, udg, points[a]) for a in ids}
    for (a, b), res in got.items():
        parity = dict(zip(udg.edges, map(int.__xor__, bits[a], bits[b])))
        assert res == pair_sweep(udg, parity), (a, b)
    return list(got.values())


def separation(sc, udg, p, q) -> ar.SeparationResult:
    """``separation`` of the single pair (p, q)."""
    return ar.separation(sc, udg, {"p": p, "q": q})[("p", "q")]
