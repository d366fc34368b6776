"""Exact analysis of unit-disk collections: intersection graphs, complement
topology, and certificate verification.

Everything here treats disks as closed (touching counts as intersecting) and
runs in exact integer arithmetic on centres over one common denominator.
The two load-bearing facts, both for equal radii:

* The segment between centers of two intersecting disks lies inside their
  union, and the triangle spanned by three disks with a common point is
  covered by those disks (midpoint/bisector argument).  Convex hulls of
  center sets with a common point are covered likewise, so the affine
  "shadow" of the intersection complex lives inside the union and carries
  its homotopy type.
* Two uncovered points p, q lie in different connected components of the
  complement of the union exactly when some cycle of the center graph has
  odd crossing parity against the half-open horizontal rays from p and q,
  which together join p to q through infinity.  A cycle's parity against
  the rays is its winding number around p plus the one around q, mod 2.
  It vanishes on boundaries of covered triangles (no uncovered point sits
  inside one), and the resulting pairing between union cycles and
  complement components is perfect, so a spanning-forest parity sweep
  decides separation exactly.  No case is degenerate: a center-to-center
  segment of intersecting disks is covered, so it never passes through an
  uncovered point, and the half-open rule settles centers on a ray's line.

The disk-file format lives here too: :meth:`DiskInstance.to_text` writes the
text :meth:`DiskInstance.from_text` reads, both built from one declaration.

Every fence check starts from the kernel of the instance, :func:`fence_kernel`,
and judges a certificate by the disks it drops from it (:func:`kernel_separation`);
every hole count, by those it drops from the instance's graph (:func:`complement_regions`).
"""

from __future__ import annotations

import json
import math
import re
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, partial
from itertools import chain, count, islice
from typing import (Callable, Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence,
                    Tuple)

from .base import (Malformed, Meter, Verdict, indented_json, json_int_list, json_ints, json_key,
                   json_list, json_object)
from .geometry import (
    Disk,
    ParamSet,
    Point,
    rational_from_str,
    rational_to_str,
    ray_crossing,
    triple_intersection_nonempty,
)
from .graphs import betti_numbers, component_labels


# ---------------------------------------------------------------------------
# instances
# ---------------------------------------------------------------------------

class TagRuns:
    """The disks' tags, one run per structure.

    A run ``(start, prefix, first)`` tags disk ``start + j``, up to the
    next run's start, with ``prefix + (first + j,)``; every component is
    exactly a ``str`` or an ``int``.  A run ``(start, tag, None)`` tags
    disk ``start`` alone with the whole ``tag``: one whose last component
    is not an exact int, or that has a bool, a float or a non-scalar.
    Runs are maximal, so tag sequences that print alike have equal runs,
    and two ``TagRuns`` are equal when their runs are.  Indexing and
    iteration give the tags as tuples."""

    __slots__ = ("runs", "n")

    def __init__(self, tags: Iterable[tuple] = ()):
        self.runs: List[Tuple[int, tuple, Optional[int]]] = []
        self.n = 0
        for tag in tags:
            self.append(tag)

    def append(self, tag: tuple) -> None:
        """One more disk, tagged ``tag``."""
        if tag and type(tag[-1]) is int and all(type(v) is str or type(v) is int for v in tag):
            self.append_run(tag[:-1], tag[-1], 1)
        else:
            self.runs.append((self.n, tag, None))
            self.n += 1

    def append_run(self, prefix: tuple, first: int, count: int) -> None:
        """``count`` more disks, tagged ``prefix + (first,)``, ``prefix +
        (first + 1,)``, ...; every component of ``prefix`` is exactly a
        ``str`` or an ``int``."""
        if self.runs:
            start, last, at = self.runs[-1]
            if at is not None and last == prefix and at + self.n - start == first:
                self.n += count
                return
        self.runs.append((self.n, prefix, first))
        self.n += count

    def spans(self) -> Iterator[Tuple[int, int, tuple, Optional[int]]]:
        """Each run as ``(start, stop, prefix or whole tag, first or None)``."""
        stops = [start for start, _, _ in self.runs[1:]] + [self.n]
        for (start, tag, first), stop in zip(self.runs, stops):
            yield start, stop, tag, first

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, i: int) -> tuple:
        j = i + self.n if i < 0 else i
        if not 0 <= j < self.n:
            raise IndexError(f"tag index {i} out of range")
        # (j + 1,) sorts before exactly the runs that start past j
        start, tag, first = self.runs[bisect_left(self.runs, (j + 1,)) - 1]
        return tag if first is None else tag + (first + j - start,)

    def __iter__(self) -> Iterator[tuple]:
        # prefix + (k,) for each k of a run, made in C
        return chain.from_iterable(
            (tag,) if first is None else map(tag.__add__, zip(range(first, first + stop - start)))
            for start, stop, tag, first in self.spans())

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.n == other.n and self.runs == other.runs

    def __repr__(self) -> str:
        return f"TagRuns({list(self)!r})"


class DiskInstance:
    """A collection of equal closed disks plus marked points.

    ``meta`` carries problem-specific extras: ``kind`` (``isolation``,
    ``acc`` or ``udmc``), terminal disk ids for cut instances, and the
    intended budget when the instance ships with one.

    The disks are stored once, as integer centres over one denominator
    (:class:`IntCenters`, a multiple of the radius' denominator) plus the
    tags as :class:`TagRuns`, one run per structure, from synthesis to
    JSON.  ``Fraction`` is met only at the
    JSON boundary, in the radius and the marked points, and in the
    :attr:`disks` view.  Two instances are equal when their centres are
    equal as rationals, whatever denominators they are stored over.  The
    constructor checks the instance, which is not changed after.
    """

    def __init__(
        self,
        radius: Fraction,
        centers: "IntCenters",
        tags: Iterable[tuple],
        points: Optional[Dict[str, Point]] = None,
        params: Optional[ParamSet] = None,
        meta: Optional[Dict[str, object]] = None,
    ):
        self.radius = radius
        self.centers = centers
        self.tags = tags if isinstance(tags, TagRuns) else TagRuns(tags)
        self.points = {} if points is None else points
        self.params = params
        self.meta = {} if meta is None else meta
        self._disks: Optional[List[Disk]] = None
        self.validate()

    @property
    def disks(self) -> List[Disk]:
        """The disks with rational centres, built on first use and kept."""
        if self._disks is None:
            xs, ys, den = self.centers
            self._disks = [
                Disk(Fraction(x, den), Fraction(y, den), tag)
                for x, y, tag in zip(xs, ys, self.tags)
            ]
        return self._disks

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        a, b = self.centers, other.centers
        return (
            (self.radius, self.tags, self.points, self.params, self.meta)
            == (other.radius, other.tags, other.points, other.params, other.meta)
            and [x * b.den for x in a.xs] == [x * a.den for x in b.xs]
            and [y * b.den for y in a.ys] == [y * a.den for y in b.ys]
        )

    def __repr__(self) -> str:
        return (f"DiskInstance(radius={self.radius!r}, disks={self.disks!r}, "
                f"points={self.points!r}, params={self.params!r}, meta={self.meta!r})")

    def validate(self) -> None:
        """Raise :class:`Malformed` unless the instance is well formed;
        the constructor calls this, and nothing changes it after."""
        if self.radius <= 0:
            raise Malformed("radius must be positive")
        if len(self.points) != len(set(self.points.values())):
            raise Malformed("marked points must be distinct")
        terminals = json_int_list(self.meta.get("terminal_disks", []), "terminal disk ids")
        for t in terminals:
            if not (0 <= t < len(self.centers.xs)):
                raise Malformed(f"terminal disk id {t} out of range")
        if len(set(terminals)) != len(terminals):
            raise Malformed("terminal disk ids must be distinct")

    def head_dict(self) -> Dict[str, object]:
        """:meth:`to_dict` without its ``disks``."""
        return {
            "radius": rational_to_str(self.radius),
            "points": {
                k: [rational_to_str(p[0]), rational_to_str(p[1])]
                for k, p in self.points.items()
            },
            "params": self.params.as_dict() if self.params is not None else None,
            "meta": self.meta,
        }

    def to_dict(self) -> Dict[str, object]:
        xs, ys, den = self.centers
        gcd = math.gcd

        def coord(n: int) -> str:
            # rational_to_str(Fraction(n, den)), without the Fraction
            g = gcd(n, den)
            return f"{n // g}/{den // g}"

        return {"disks": [{"c": [coord(x), coord(y)], "prov": list(tag)}
                          for x, y, tag in zip(xs, ys, self.tags)],
                **self.head_dict()}

    def to_text(self, update: Callable[[bytes], object]) -> str:
        """The disk file's text, ``json.dumps(d, sort_keys=True, indent=2) +
        "\\n"`` of ``d = self.to_dict()``, made run by run without ``d``.  The
        compact canonical text, ``json.dumps(d, sort_keys=True,
        separators=(",", ":"))``, goes to ``update`` as bytes, at most 4,096
        disks a piece, never whole."""
        xs, ys, den = self.centers
        gcd = math.gcd
        (t0, t1, t2, t3), (c0, c1, c2, c3) = _ENTRY, _COMPACT_ENTRY
        update(_COMPACT_LIST[0].encode())
        blocks = []
        for start, stop, tag, first in self.tags.spans():
            if first is None:    # one disk, its whole tag as JSON
                items = list(tag)
                text, compact = indented_json(items, _PROV_PAD)[1:-1], _compact(items)[1:-1]
                tail, lasts = "", [""]
            else:    # the prefix's str and int items, spelt alike in both; the last counts up
                parts = [indented_json(v) + "," for v in tag]
                text, tail = "".join(_ITEM_PAD + p for p in parts) + _ITEM_PAD, _PROV_PAD
                compact = "".join(parts)
            before, after, before_c = t2 + text, tail + t3, c2 + compact
            for lo in range(start, stop, 4096):
                hi = min(lo + 4096, stop)
                if first is not None:
                    lasts = map(int.__repr__, range(first + lo - start, first + hi - start))
                texts, compacts = [], []
                for x, y, last in zip(xs[lo:hi], ys[lo:hi], lasts):
                    g, h = gcd(x, den), gcd(y, den)
                    cx, cy = f"{x // g}/{den // g}", f"{y // h}/{den // h}"
                    texts.append(f"{t0}{cx}{t1}{cy}{before}{last}{after}")
                    compacts.append(f"{c0}{cx}{c1}{cy}{before_c}{last}{c3}")
                update(((_COMPACT_LIST[1] if lo else "")
                        + _COMPACT_LIST[1].join(compacts)).encode())
                blocks.append(_LIST[1].join(texts))
        head = self.head_dict()    # its keys all sort after "disks"
        update((_COMPACT_LIST[2] + _compact(head)[1:]).encode())
        if not blocks:    # no disks: "disks": []
            return indented_json({"disks": [], **head}) + "\n"
        return _LIST[0] + _LIST[1].join(blocks) + _LIST[2] + indented_json(head)[1:] + "\n"

    @classmethod
    def from_dict(cls, d: Dict[str, object]) -> "DiskInstance":
        xn, xd, yn, yd = [], [], [], []    # centre i at (xn[i] / xd[i], yn[i] / yd[i])
        tags = TagRuns()
        # the prov that continues the last run, and where it must hold ints
        # (equal values are not enough: True == 1 == 1.0)
        expect: Optional[list] = None
        int_at: List[int] = []
        dens: Dict[str, int] = {}
        disks = json_list(json_key(d, "disks", "a disk instance"), "disks")
        if len(disks) > MAX_DISKS:
            raise Malformed(f"{len(disks)} disks exceeds the disk cap {MAX_DISKS}")
        for e in disks:
            if type(e) is not dict:
                raise Malformed("a disk must be a JSON object")
            c = e.get("c")
            if type(c) is not list or len(c) != 2:
                raise Malformed("a disk centre must be a JSON list of two coordinates")
            x, dx = _parse_rational(c[0], dens)
            y, dy = _parse_rational(c[1], dens)
            xn.append(x)
            xd.append(dx)
            yn.append(y)
            yd.append(dy)
            prov = e.get("prov", [])
            if expect is not None and prov == expect:    # a null prov equals no run's None
                for k in int_at:
                    if type(prov[k]) is not int:
                        break
                else:
                    expect[-1] += 1
                    continue
            tag = tuple(json_list(prov, "a disk's prov"))
            tags.n = len(xn) - 1
            tags.append(tag)
            expect = None if tags.runs[-1][2] is None else [*tag[:-1], tag[-1] + 1]
            int_at = [k for k, v in enumerate(tag) if type(v) is int]
        return cls._with_head(d, xn, xd, yn, yd, tags)

    @classmethod
    def _with_head(cls, d: Dict[str, object], xn: List[int], xd: List[int],
                   yn: List[int], yd: List[int], tags: TagRuns) -> "DiskInstance":
        """The instance of the disks read, centre i at (xn[i] / xd[i],
        yn[i] / yd[i]), and of the rest of the JSON object ``d``; ``tags``,
        whose runs a reader extended without counting, ends at disk len(xn)."""
        tags.n = len(xn)
        points = {}
        for k, v in json_object(d.get("points", {}), "points").items():
            if type(v) is not list or len(v) != 2:
                raise Malformed("a marked point must be a JSON list of two coordinates")
            points[str(k)] = (rational_from_str(v[0]), rational_from_str(v[1]))
        params = d.get("params")
        radius = rational_from_str(json_key(d, "radius", "a disk instance"))
        return cls(
            radius=radius,
            centers=_over_common_denominator(xn, xd, yn, yd, radius),
            tags=tags,
            points=points,
            params=ParamSet.from_dict(params) if params else None,
            meta=json_object(d.get("meta", {}), "meta"),
        )

    @classmethod
    def from_text(cls, text: str) -> Optional["DiskInstance"]:
        """The instance in the JSON text of a disk file, read without a JSON
        tree, when its disk list has the layout :meth:`to_text` writes; else
        None.

        One pattern match per disk entry gives its centre's numerators and
        denominators as ints and its prov as text.  An entry whose prov text
        is the one the run going on predicts, its prefix and the next last
        int, extends that run; any other prov is decoded by ``json.loads``
        and goes to ``TagRuns.append``, as in ``from_dict``.  The text after
        the list, less its comma, is a JSON object of its own, the head,
        which ``from_dict``'s code reads.  Whatever this does not decide
        gives None, never an exception: a layout of any other kind, a zero
        denominator, a numeral that ``int`` refuses, more than ``MAX_DISKS``
        entries, a head that does not parse or names "disks" again, or a
        head ``from_dict`` refuses.  Then ``from_dict(json.loads(text))``
        decides the text, and says why it refuses it.  An instance returned
        equals that one."""
        if not text.startswith(_LIST[0]):
            return None
        xn, xd, yn, yd = [], [], [], []    # centre i at (xn[i] / xd[i], yn[i] / yd[i])
        tags = TagRuns()
        dens: Dict[str, int] = {}
        # the prov text that extends the run going on: lead, expect, tail
        spelt: Optional[str] = None
        match, pos = _DISK_ENTRY.match, len(_LIST[0])
        # bound once: the loop runs once a disk
        xn_add, xd_add, yn_add, yd_add = xn.append, xd.append, yn.append, yd.append
        den_of, to_int = dens.get, int
        try:
            for i in range(MAX_DISKS):
                m = match(text, pos)
                if m is None:
                    return None
                x, qx, y, qy, prov, more = m.groups()
                xn_add(to_int(x))
                xd_add(den_of(qx) or _positive_int(qx, dens))
                yn_add(to_int(y))
                yd_add(den_of(qy) or _positive_int(qy, dens))
                if prov == spelt:
                    expect += 1
                    spelt = f"{lead}{expect}{tail}"
                else:
                    tag = tuple(json.loads(f"[{prov}]"))
                    tags.n = i
                    tags.append(tag)
                    spelt = None
                    if tags.runs[-1][2] is not None:
                        # the last int ends the text, spelt canonically unless "-0"
                        expect = tag[-1] + 1
                        lead, _, tail = prov.rpartition(repr(tag[-1]))
                        if not lead.endswith("-"):
                            spelt = f"{lead}{expect}{tail}"
                pos = m.end()
                if more is None:
                    break
            else:
                return None    # more than MAX_DISKS entries
        except (ValueError, RecursionError):
            return None
        if not text.startswith(_LIST[2], pos):
            return None
        try:
            head = json.loads("{" + text[pos + len(_LIST[2]):])
            if not head or "disks" in head:    # {} would leave "],}", no JSON
                return None
            return cls._with_head(head, xn, xd, yn, yd, tags)
        except Exception:    # from_dict meets it again, in its turn
            return None


# The disk list as json.dumps(d, sort_keys=True, indent=2) spells it, for
# to_text to write and from_text to read: the list's opening, separator and
# closing; an entry's pieces around its centre's coordinates and its prov's
# items, JSON indented at _PROV_PAD.  Less their whitespace, the pieces spell
# the compact canonical text.
_LIST = ('{\n  "disks": [\n    ', ",\n    ", "\n  ],")
_ENTRY = ('{\n      "c": [\n        "', '",\n        "', '"\n      ],\n      "prov": [', "]\n    }")
_PROV_PAD = "\n      "
_ITEM_PAD = _PROV_PAD + "  "
_COMPACT_LIST, _COMPACT_ENTRY = (tuple("".join(p.split()) for p in pieces)
                                 for pieces in (_LIST, _ENTRY))
_compact = partial(json.dumps, sort_keys=True, separators=(",", ":"))
# One entry as from_text matches it: canonical rationals, the prov's items up
# to the first "]" (a prov holding one is left to the tree), a separator if more.
_RATIONAL = "(-?[0-9]+)/([0-9]+)"
_DISK_ENTRY = re.compile(
    f"{re.escape(_ENTRY[0])}{_RATIONAL}{re.escape(_ENTRY[1])}{_RATIONAL}"
    f"{re.escape(_ENTRY[2])}([^\\]]*){re.escape(_ENTRY[3])}({re.escape(_LIST[1])})?")


def _positive_int(s: str, dens: Dict[str, int]) -> int:
    """The denominator the ASCII digits ``s`` spell, kept in ``dens``;
    ValueError unless positive, or past int's string-conversion digit limit."""
    q = int(s)
    if q <= 0:
        raise ValueError(f"denominator {s}")
    dens[s] = q
    return q


def _parse_rational(s, dens: Dict[str, int]) -> Tuple[int, int]:
    """Numerator and positive denominator of a JSON rational.

    The canonical spelling ``-?[0-9]+/[0-9]+`` (ASCII, non-zero
    denominator) is split with ``int``; ``dens`` maps the denominator
    spellings met so far to their values (:func:`_positive_int`), so
    coordinates over one denominator share one int.  Every other value goes
    through :func:`geometry.rational_from_str`, so which spellings are
    accepted and how the others are refused stay those of ``Fraction``."""
    if type(s) is str and s.isascii():
        num, _, den = s.partition("/")
        try:
            q = dens.get(den) or den.isdigit() and _positive_int(den, dens)
            if q and (num.isdigit() or (num[:1] == "-" and num[1:].isdigit())):
                return int(num), q
        except ValueError:    # zero, or past int's digit limit
            pass
    f = rational_from_str(s)
    return f.numerator, f.denominator


# ---------------------------------------------------------------------------
# intersection graph
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class UnitDiskGraph:
    """The intersection graph of ``n`` disks: ``adj[i]`` lists, ascending,
    the disks that meet disk i.  ``edges``, every pair (i, j) with i < j in
    ascending order, ``edge_index`` and ``triangles`` (:func:`filled_triangles`)
    are built on first read: flows, cut checks and component labels read only
    the lists.  Two graphs are equal when their ``n``, ``edges`` and ``adj`` are."""

    n: int
    adj: List[List[int]]
    # the cell-key grid the graph was built on, for later proximity queries
    index: "CenterIndex" = field(repr=False)

    @cached_property
    def edges(self) -> List[Tuple[int, int]]:
        return [(i, j) for i, a in enumerate(self.adj) for j in a if j > i]

    @cached_property
    def edge_index(self) -> Dict[Tuple[int, int], int]:
        """Each edge's position in ``edges``."""
        return {e: k for k, e in enumerate(self.edges)}

    @cached_property
    def triangles(self) -> List[Tuple[int, int, int]]:
        return filled_triangles(self)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, UnitDiskGraph):
            return NotImplemented
        return (self.n, self.edges, self.adj) == (other.n, other.edges, other.adj)


class IntCenters(NamedTuple):
    """Disk centres (xs[i] / den, ys[i] / den): integer numerators over one
    common denominator that is a multiple of the radius' denominator, so
    every distance test against the radius runs on Python ints.

    Tuples, not lists: the garbage collector stops tracking a tuple of ints,
    so a held instance adds nothing to every later full collection."""

    xs: Tuple[int, ...]
    ys: Tuple[int, ...]
    den: int


# Sound instances need about 46 bits (2160 * 2**34 at grid size 3); a file
# whose denominators fold to more than this is refused before any centre is
# scaled, so distinct hostile denominators cannot grow the work quadratically.
MAX_DENOMINATOR_BITS = 4096
# A disk file holds at most this many disks, refused before any is read; sound
# synthesis emits fewer than 2 * gadgets.MAX_WALL_DISKS.
MAX_DISKS = 4_000_000


def _over_common_denominator(
    xn: Sequence[int], xd: Sequence[int], yn: Sequence[int], yd: Sequence[int], r: Fraction
) -> IntCenters:
    """Integer centres (xn[i] / xd[i], yn[i] / yd[i]) over the least common
    denominator of ``r`` and every coordinate; the fractions need not be in
    lowest terms.  Raises :class:`Malformed` when the denominators
    as given fold to more than ``MAX_DENOMINATOR_BITS`` bits."""
    dens = set(xd)
    dens.update(yd)
    den = r.denominator
    for q in dens:
        den = math.lcm(den, q)
        if den.bit_length() > MAX_DENOMINATOR_BITS:
            raise Malformed(
                f"coordinate denominators need more than {MAX_DENOMINATOR_BITS} bits "
                "in common")
    factor = {q: den // q for q in dens}
    xs = [n * factor[q] for n, q in zip(xn, xd)]
    ys = [n * factor[q] for n, q in zip(yn, yd)]
    # a common factor is left only by fractions not in lowest terms
    g = math.gcd(den, r.numerator * (den // r.denominator), *xs, *ys)
    if g > 1:
        den //= g
        xs = [x // g for x in xs]
        ys = [y // g for y in ys]
    return IntCenters(tuple(xs), tuple(ys), den)


# A column of the index is SUB_CELLS square sub-cells wide, so a sub-cell's
# side is about 2r/64: an mc->udmc bundle (copies moved by at most 16r/1000)
# fills a few sub-cells, which unit_disk_graph decides as boxes, while
# sound instances keep one disk per sub-cell, and random layouts nearly so.
SUB_CELLS = 64

# The edge meter's allowance; reduction targets have at most 22.4 edges a disk.
EDGES_PER_DISK = 32
EDGE_SLACK = 2 ** 16


class CenterIndex:
    """Exact proximity queries on integer centres.

    Centres are binned in square sub-cells of side ``sub``: sub-cell (u, v)
    holds the centres with x // sub == u and y // sub == v.  SUB_CELLS
    sub-columns make a column at least one unit wider than a disk
    diameter, so every centre within 2r of a point lies in the point's
    column or one beside it, at most SUB_CELLS rows above or below; an
    integer distance test decides.  Sub-cell (u, v) in column
    c = u // SUB_CELLS has key ``(c * width + v) * SUB_CELLS + u % SUB_CELLS``:
    keys run column by column, then row by row, then across the row.
    ``width``, the span of the occupied rows plus 2 * SUB_CELLS + 2, keeps
    the SUB_CELLS + 1 rows either side of an occupied row inside its
    column.  The disks of one sub-cell sit next to each other in key
    order.  The ids sorted by key (ties by id), and their keys, are tuples.

    Where 2r + 1 is under SUB_CELLS² units, keys are taken on the centres
    times ``scale``, and ``sub`` counts scaled units; either way a column
    is over 2r and at most (2r + 1)(1 + 1/SUB_CELLS) wide.  A sub-cell's
    side, sub / scale units, is at most 2r / SUB_CELLS + (2r + 1) /
    SUB_CELLS², under 2r/√2 even at 2r = 1: the centres of one sub-cell
    pairwise meet.
    """

    def __init__(self, sc: IntCenters, r: Fraction):
        two_r = 2 * r * sc.den
        assert two_r.denominator == 1
        two_r = int(two_r)
        self.sc, self.r = sc, r
        self.four_r2 = two_r ** 2
        d = SUB_CELLS
        self.scale = m = -(-d * d // (two_r + 1))
        self.sub = sub = -(-(m * two_r + 1) // d)
        xs, ys = sc.xs, sc.ys
        if m > 1:
            xs, ys = [x * m for x in xs], [y * m for y in ys]
        self.width = width = max(ys, default=0) // sub - min(ys, default=0) // sub + 2 * d + 2
        c_step = (width - 1) * d  # (c * width + v) * d + u % d == c * c_step + v * d + u
        keys = [(u := x // sub) // d * c_step + y // sub * d + u for x, y in zip(xs, ys)]
        self.ids = ids = tuple(sorted(range(len(keys)), key=keys.__getitem__))
        self.keys = tuple(map(keys.__getitem__, ids))

    def within(self, p: Point, rho: Fraction) -> List[int]:
        """Indices, ascending, of the centres at distance at most ``rho``
        from ``p``; ``rho`` must not exceed 2r.  Three bisected key ranges
        hold the rows within SUB_CELLS of p's, in p's column and the two
        beside it, and, for a far p, other sub-cells."""
        xs, ys, den = self.sc
        q = math.lcm(p[0].denominator, p[1].denominator)
        # p and the centres scaled by den * q, the bound squared likewise
        px = p[0].numerator * (q // p[0].denominator) * den
        py = p[1].numerator * (q // p[1].denominator) * den
        lim = (rho.numerator * den * q) ** 2
        k = rho.denominator ** 2
        d, width, keys, step = SUB_CELLS, self.width, self.keys, self.sub * q
        row = (px * self.scale // step // d - 1) * width + py * self.scale // step - d
        out = []
        for low in (row, row + width, row + 2 * width):
            for s in range(bisect_left(keys, low * d), bisect_left(keys, (low + 2 * d + 1) * d)):
                i = self.ids[s]
                ex = xs[i] * q - px
                ey = ys[i] * q - py
                if (ex * ex + ey * ey) * k <= lim:
                    out.append(i)
        out.sort()
        return out


def unit_disk_graph(sc: IntCenters, r: Fraction) -> UnitDiskGraph:
    """Intersection graph of equal closed disks (tangency included).

    One sweep in :class:`CenterIndex` key order takes each centre, key k,
    to the later centres with keys below k + d(d + 1), its column up to d
    rows above, and from k + d(width - d - 1) + 1 below k + d(width + d + 1),
    the next column up to d rows above or below (d = SUB_CELLS).  These two
    spans hold every later centre within 2r, and a little more, which the
    distance test turns away; their mirror holds the earlier ones.  They
    are disjoint as width >= 2d + 2, they never split a sub-cell, and they
    ascend along the sweep, so forward-only cursors find them.

    A sub-cell with one disk tests it against each centre of its spans.  A
    sub-cell with several, spotted by one comparison of neighbouring keys,
    is a box: the bounding box of its centres.  Its own disks all meet, as
    a sub-cell's side is under 2r/√2.  Each later sub-cell of its spans is
    a box too, and the pair of boxes decides on integers.  Two centres, one
    in each box, are no farther apart than the boxes' largest distance and
    no nearer than their smallest, each taken axis by axis.  So if the
    largest squared distance is at most 4r², every pair meets and the
    member lists are joined whole; if the smallest is over 4r², none does;
    only boxes in between are tested pair by pair.  On sound instances
    every sub-cell holds one disk; a bundle of near-coincident copies costs
    one box test per pair of sub-cells, not one test per pair of disks.

    An edge :class:`~disklab.base.Meter` of ``EDGES_PER_DISK * n + EDGE_SLACK``
    is charged each whole join before it is made; pair-by-pair contacts are checked per step.
    """
    index = CenterIndex(sc, r)
    ids, keys, width, four_r2 = index.ids, index.keys, index.width, index.four_r2
    xs, ys = list(map(sc.xs.__getitem__, ids)), list(map(sc.ys.__getitem__, ids))  # key order
    adj: List[List[int]] = [[] for _ in ids]
    meter = Meter("edge", EDGES_PER_DISK * len(ids) + EDGE_SLACK)
    found, room = 0, meter.allowance    # contacts not yet charged, and room for them
    d = SUB_CELLS
    up_to, next_from, next_to = d * (d + 1), d * (width - d - 1) + 1, d * (width + d + 1)
    ks = keys + (keys[-1] + next_to,) if ids else ()  # a last key stops the cursors
    up = lo = hi = 0
    sweep = zip(count(), keys, ks[1:], xs, ys)
    for s, k, k_next, x, y in sweep:
        while ks[up] < k + up_to:
            up += 1
        while ks[lo] < k + next_from:
            lo += 1
        if hi < lo:
            hi = lo
        while ks[hi] < k + next_to:
            hi += 1
        if k_next != k:
            for t in range(lo, hi) if up == s + 1 else chain(range(s + 1, up), range(lo, hi)):
                dx = x - xs[t]
                dy = y - ys[t]
                if dx * dx + dy * dy <= four_r2:
                    i, j = ids[s], ids[t]
                    adj[i].append(j)
                    adj[j].append(i)
                    found += 1
            if found > room:
                meter.charge(found)
        else:
            meter.charge(found)
            end = _join_sub_cell(s, up, lo, hi, ids, ks, xs, ys, four_r2, adj, meter)
            found, room = 0, meter.allowance - meter.spent
            next(islice(sweep, end - s - 1, end - s - 1), None)  # the sub-cell's other disks
    for a in adj:
        a.sort()
    return UnitDiskGraph(len(ids), adj, index)


def _join_sub_cell(s: int, up: int, lo: int, hi: int, ids: Sequence[int], ks: Sequence[int],
                   xs: Sequence[int], ys: Sequence[int], four_r2: int,
                   adj: List[List[int]], meter: Meter) -> int:
    """Join the several disks of the sub-cell from key-order position ``s``
    to each other and to the later sub-cells from its end to ``up`` and
    from ``lo`` to ``hi``, box by box, charging ``meter`` (see
    :func:`unit_disk_graph`); returns the position past its last disk."""

    def box(t: int) -> Tuple[int, int, int, int, int]:
        end, k = t + 1, ks[t]
        while ks[end] == k:
            end += 1
        bx, by = xs[t:end], ys[t:end]
        return end, min(bx), max(bx), min(by), max(by)

    def pair_by_pair(a: range, b: range) -> None:
        for u in a:
            x, y = xs[u], ys[u]
            found = 0
            for t in b:
                dx = x - xs[t]
                dy = y - ys[t]
                if dx * dx + dy * dy <= four_r2:
                    i, j = ids[u], ids[t]
                    adj[i].append(j)
                    adj[j].append(i)
                    found += 1
            meter.charge(found)

    stop, x0, x1, y0, y1 = box(s)
    own = ids[s:stop]
    meter.charge(len(own) * (len(own) - 1) // 2)
    for m, i in enumerate(own):
        adj[i] += own[:m]
        adj[i] += own[m + 1:]
    for t, last in ((stop, up), (lo, hi)):
        while t < last:
            end, bx0, bx1, by0, by1 = box(t)
            far_x, far_y = max(x1 - bx0, bx1 - x0), max(y1 - by0, by1 - y0)
            if far_x * far_x + far_y * far_y <= four_r2:
                other = ids[t:end]
                meter.charge(len(own) * len(other))
                for i in own:
                    adj[i] += other
                for j in other:
                    adj[j] += own
            else:
                near_x, near_y = max(bx0 - x1, x0 - bx1, 0), max(by0 - y1, y0 - by1, 0)
                if near_x * near_x + near_y * near_y <= four_r2:
                    pair_by_pair(range(s, stop), range(t, end))
            t = end
    return stop


class Chain(NamedTuple):
    """A path between junctions ``a`` and ``b`` (equal for a loop) whose
    ``inner`` disks, listed from ``a``, are not junctions; its length is
    ``len(inner)`` and ``sig`` is the XOR of its edges' crossing masks."""

    a: int
    b: int
    inner: Tuple[int, ...]
    sig: int


class Kernel(NamedTuple):
    junctions: List[int]
    chains: List[Chain]


def contract(udg: UnitDiskGraph, masks: Sequence[int]) -> Kernel:
    """The chain-contracted kernel of ``udg``, with ``masks`` in
    ``udg.edges`` order (see :func:`edge_crossing_parities`).

    The junctions are every disk of degree other than two, every degree-2
    disk whose neighbours touch (so filled triangles keep their corners)
    and the smallest id of each cycle without either.  A cycle through any
    other disk uses its two edges, hence its whole chain.  So contraction
    is exact: every edge lies on one chain, and a cycle is a cyclic
    sequence of whole chains, as long in disks as the sum of their
    ``len(inner) + 1``, with the XOR of their ``sig`` as its crossing mask.
    """
    adj = udg.adj
    junction = [len(a) != 2 or a[1] in adj[a[0]] for a in adj]
    chain_of = [-1] * udg.n  # the chain a non-junction disk is inner to
    ends: List[Tuple[int, int, Tuple[int, ...]]] = []
    direct: Dict[Tuple[int, int], int] = {}  # junction pair -> chain without inner disks

    def walk(j: int, w: int) -> None:
        prev, cur, inner = j, w, []
        while not junction[cur]:
            chain_of[cur] = len(ends)
            inner.append(cur)
            x, y = adj[cur]
            prev, cur = cur, (y if x == prev else x)
        if not inner:
            direct[(j, w)] = len(ends)
        ends.append((j, cur, tuple(inner)))

    for j in [i for i, x in enumerate(junction) if x]:
        for w in adj[j]:
            if chain_of[w] < 0 and (w > j or not junction[w]):
                walk(j, w)
    for i in range(udg.n):
        if chain_of[i] < 0 and not junction[i]:
            junction[i] = True  # the smallest id of a cycle without junctions
            walk(i, adj[i][0])
    sigs = [0] * len(ends)
    for (i, j), m in zip(udg.edges, masks):
        if m:
            k = chain_of[i] if chain_of[i] >= 0 else chain_of[j]
            sigs[k if k >= 0 else direct[(i, j)]] ^= m
    chains = [Chain(a, b, inner, sig) for (a, b, inner), sig in zip(ends, sigs)]
    return Kernel([i for i in range(udg.n) if junction[i]], chains)


def kernel_separation(kernel: Kernel, ids: Sequence[str],
                      dropped: Iterable[int] = ()) -> Dict[Tuple[str, str], bool]:
    """For each pair of the sorted ``ids`` (bit t of the masks is ``ids[t]``),
    in :func:`separation`'s order: whether the union less ``dropped``
    separates its points.  A chain with a dropped inner disk or end junction
    lies on no cycle of what stays, so an XOR-potential forest over the
    other chains gives every cycle's crossing mask."""
    drop = set(dropped)
    adj: Dict[int, List[Tuple[int, int]]] = {j: [] for j in kernel.junctions if j not in drop}
    for c in kernel.chains:
        if c.a in adj and c.b in adj and drop.isdisjoint(c.inner):
            adj[c.a].append((c.b, c.sig))
            adj[c.b].append((c.a, c.sig))
    pot: Dict[int, int] = {}
    cycles = set()  # the crossing masks of the cycles the kept chains close
    for root in adj:
        if root not in pot:
            pot[root], stack = 0, [root]
            while stack:
                v = stack.pop()
                for w, m in adj[v]:
                    if w in pot:
                        cycles.add(pot[v] ^ pot[w] ^ m)
                    else:
                        pot[w] = pot[v] ^ m
                        stack.append(w)
    return {(ids[x], ids[y]): any((s >> x ^ s >> y) & 1 for s in cycles)
            for x in range(len(ids)) for y in range(x + 1, len(ids))}


def fence_kernel(instance: DiskInstance) -> Tuple[UnitDiskGraph, List[int], Kernel]:
    """The graph of every disk, charged to its edge meter first; then the
    refusal of a covered marked point, on that graph's own grid; then the
    masks against the points by sorted id, and the graph's kernel."""
    sc, r, points = instance.centers, instance.radius, instance.points
    udg = unit_disk_graph(sc, r)
    for pid, p in points.items():
        hit = udg.index.within(p, r)
        if hit:
            raise Malformed(f"marked point {pid!r} is covered by disk {hit[0]}")
    masks = edge_crossing_parities(sc, udg, [points[a] for a in sorted(points)])
    return udg, masks, contract(udg, masks)


# ---------------------------------------------------------------------------
# complement topology via the intersection complex
# ---------------------------------------------------------------------------

@dataclass
class RegionSummary:
    union_components: int
    bounded_complement_regions: int   # first Betti number of the union
    nerve_triangles: int


def filled_triangles(udg: UnitDiskGraph) -> List[Tuple[int, int, int]]:
    """Triples of pairwise-intersecting disks of ``udg`` with a common point."""
    (xs, ys, den), r = udg.index.sc, udg.index.r
    two_r, rem = divmod(2 * r.numerator * den, r.denominator)
    assert rem == 0
    out = []
    adjset = [set(a) for a in udg.adj]
    for i, j in udg.edges:
        for k in sorted(adjset[i] & adjset[j]):
            if k > j and triple_intersection_nonempty(
                    (xs[i], ys[i]), (xs[j], ys[j]), (xs[k], ys[k]), two_r):
                out.append((i, j, k))
    return out


def _gf2_rank(masks: Iterable[int]) -> int:
    pivots: Dict[int, int] = {}
    for m in masks:
        while m:
            p = m.bit_length() - 1
            if p in pivots:
                m ^= pivots[p]
            else:
                pivots[p] = m
                break
    return len(pivots)


def complement_regions(udg: UnitDiskGraph, dropped: Iterable[int] = ()) -> RegionSummary:
    """Connected components of the union of ``udg``'s disks less the ids in
    ``dropped``, and the number of bounded holes in its complement: the cycle
    rank of the graph less them (:func:`~disklab.graphs.betti_numbers`) less
    the GF(2) rank of the boundaries of the filled triangles with no dropped
    corner, the kept disks' own (``udg.triangles``), each made as it is read."""
    drop = set(dropped)
    comps, cycles = betti_numbers(udg.n, udg.edges, drop)
    eidx = udg.edge_index
    tris = [t for t in udg.triangles if drop.isdisjoint(t)]
    rank = _gf2_rank(1 << eidx[i, j] | 1 << eidx[i, k] | 1 << eidx[j, k] for i, j, k in tris)
    return RegionSummary(comps, cycles - rank, len(tris))


# ---------------------------------------------------------------------------
# separation of points by a disk union
# ---------------------------------------------------------------------------

@dataclass
class SeparationResult:
    separated: bool
    witness_cycle: Optional[List[int]] = None  # disk ids, consecutive ones intersect


def _with_points(
    sc: IntCenters, pts: Sequence[Point]
) -> Tuple[IntCenters, List[Tuple[int, int]]]:
    """The centres and the rational points ``pts`` as integers in one unit:
    1/den, refined only when some point's denominator does not divide den.
    Scaling by a positive integer keeps the sign of every comparison,
    difference and product the ray test makes."""
    q = math.lcm(*(c.denominator for pt in pts for c in pt))
    q //= math.gcd(q, sc.den)
    if q > 1:
        sc = IntCenters(tuple([x * q for x in sc.xs]), tuple([y * q for y in sc.ys]),
                        sc.den * q)
    den = sc.den
    return sc, [
        (pt[0].numerator * (den // pt[0].denominator),
         pt[1].numerator * (den // pt[1].denominator))
        for pt in pts
    ]


def edge_crossing_parities(
    sc: IntCenters, udg: UnitDiskGraph, points: Sequence[Point]
) -> List[int]:
    """One crossing mask per center-graph edge, in ``udg.edges`` order: bit
    t is the parity of the edge's crossing with the half-open horizontal
    ray from the rational point ``points[t]`` (see
    :func:`geometry.ray_crossing`), decided on integers.  Only the rays
    whose line an edge's y-span reaches can cross it, and bisecting the
    points sorted by y finds those."""
    sc, ipts = _with_points(sc, points)
    xs, ys = sc.xs, sc.ys
    order = sorted(range(len(ipts)), key=lambda t: ipts[t][1])
    pys = [ipts[t][1] for t in order]
    masks = []
    for (i, j) in udg.edges:
        ci, cj = (xs[i], ys[i]), (xs[j], ys[j])
        lo, hi = (ci[1], cj[1]) if ci[1] <= cj[1] else (cj[1], ci[1])
        m = 0
        for s in range(bisect_left(pys, lo), bisect_left(pys, hi)):
            t = order[s]
            if ray_crossing(ci, cj, ipts[t]):
                m |= 1 << t
        masks.append(m)
    return masks


def separation(
    sc: IntCenters, udg: UnitDiskGraph, points: Dict[str, Point]
) -> Dict[Tuple[str, str], SeparationResult]:
    """Decide, for every pair of ids a < b in sorted order, whether the
    union separates ``points[a]`` from ``points[b]``.

    One crossing pass masks every center-graph edge (bit t for the t-th
    id), and one spanning forest carries k-bit potentials.  A non-tree
    edge's signature, its mask XOR its endpoints' potentials, is the
    crossing mask of the cycle it closes, so (a, b) is separated exactly
    when some signature differs at their two bits.  The witness is that
    cycle for the first such edge in ``udg.edges`` order; neither the
    forest nor the order depends on the pair, so it is the cycle a sweep
    of the pair alone would return.
    """
    ids = sorted(points)
    masks = edge_crossing_parities(sc, udg, [points[a] for a in ids])
    mask_of = dict(zip(udg.edges, masks))
    pot = [-1] * udg.n
    parent: List[Optional[int]] = [None] * udg.n
    depth = [0] * udg.n
    for s in range(udg.n):
        if pot[s] != -1:
            continue
        pot[s] = 0
        stack = [s]
        while stack:
            v = stack.pop()
            for w in udg.adj[v]:
                if pot[w] == -1:
                    pot[w] = pot[v] ^ mask_of[(v, w) if v < w else (w, v)]
                    parent[w] = v
                    depth[w] = depth[v] + 1
                    stack.append(w)
    pairs = [(x, y) for x in range(len(ids)) for y in range(x + 1, len(ids))]
    found: Dict[Tuple[int, int], List[int]] = {}
    for (i, j), m in zip(udg.edges, masks):
        if len(found) == len(pairs):
            break
        sig = pot[i] ^ pot[j] ^ m
        if not sig:
            continue  # every tree edge
        hit = [xy for xy in pairs if xy not in found and (sig >> xy[0] ^ sig >> xy[1]) & 1]
        if hit:
            cycle = _tree_cycle(parent, depth, i, j)
            for xy in hit:
                found[xy] = list(cycle)
    return {
        (ids[x], ids[y]): SeparationResult((x, y) in found, found.get((x, y)))
        for x, y in pairs
    }


def _tree_cycle(parent: List[Optional[int]], depth: List[int], i: int, j: int) -> List[int]:
    """The tree path from i up to where it meets j's, then down to j: both
    ends climb, the deeper first, until they meet."""
    up_i: List[int] = []
    up_j: List[int] = []
    while depth[i] > depth[j]:
        up_i.append(i)
        i = parent[i]
    while depth[j] > depth[i]:
        up_j.append(j)
        j = parent[j]
    while i != j:
        up_i.append(i)
        up_j.append(j)
        i, j = parent[i], parent[j]
    return up_i + [i] + up_j[::-1]


# ---------------------------------------------------------------------------
# certificate verifiers
# ---------------------------------------------------------------------------

def check_ids(ids: Iterable[int], n: int, what: str) -> List[int]:
    """``ids`` sorted and deduplicated, refused unless each is a JSON
    integer in ``range(n)``."""
    out = sorted(set(json_ints(ids, f"{what} ids")))
    if out and (out[0] < 0 or out[-1] >= n):
        raise Malformed(f"{what} contains out-of-range ids")
    return out


def verify_isolation(
    instance: DiskInstance,
    chosen_ids: Iterable[int],
    budget: Optional[int] = None,
) -> Verdict:
    """Check that the chosen disks separate every pair of marked points:
    the instance's kernel (:func:`fence_kernel`) less every disk not
    chosen, by :func:`kernel_separation`.

    Malformed input (bad ids, covered marked points) raises
    :class:`Malformed`; a well-formed certificate that fails to
    separate — or overshoots the budget — yields ``ok=False`` with reasons.
    """
    if len(instance.points) < 2:
        raise Malformed("isolation needs at least two marked points")
    n = len(instance.centers.xs)
    chosen = check_ids(chosen_ids, n, "certificate")
    kernel = fence_kernel(instance)[2]
    flags = kernel_separation(kernel, sorted(instance.points), set(range(n)).difference(chosen))
    lines = [f"chosen disks: {len(chosen)}"] + [
        f"{'ok  ' if sep else 'FAIL'} {a} | {b} separated: {sep}" for (a, b), sep in flags.items()]
    over = budget is not None and len(chosen) > budget
    if over:
        lines.append(f"budget: certificate uses {len(chosen)} disks, cap {budget}")
    return Verdict(all(flags.values()) and not over, lines)


def verify_acc(
    instance: DiskInstance,
    removed_ids: Iterable[int],
    budget: Optional[int] = None,
) -> Verdict:
    """Check that deleting the given disks leaves a union with no bounded
    complement region (an acyclic disk collection), on the graph of every
    disk (:func:`complement_regions`): refused past the edge allowance."""
    removed = check_ids(removed_ids, len(instance.centers.xs), "certificate")
    udg = unit_disk_graph(instance.centers, instance.radius)
    holes = complement_regions(udg, removed).bounded_complement_regions
    over = budget is not None and len(removed) > budget
    ok = holes == 0 and not over
    lines = [f"removed disks: {len(removed)}",
             f"{'ok  ' if ok else 'FAIL'} remaining union has {holes} bounded complement region(s)"]
    if over:
        lines.append(f"budget: certificate removes {len(removed)} disks, cap {budget}")
    return Verdict(ok, lines)


def normalize_edge_list(pairs: Iterable) -> List[Tuple[int, int]]:
    """Canonical (min, max) pairs, deduplicated and sorted."""
    out = set()
    for p in pairs:
        seq = tuple(json_ints(p, "certificate ids")) if isinstance(p, (list, tuple)) else ()
        if len(seq) != 2 or seq[0] == seq[1]:
            raise Malformed(f"not an edge: {p!r}")
        out.add((min(seq), max(seq)))
    return sorted(out)


def verify_multiterminal_cut(
    instance: DiskInstance,
    removed_edges: Iterable,
    budget: Optional[int] = None,
) -> Verdict:
    """Check that deleting the given intersection-graph edges leaves all
    terminal disks in pairwise distinct components.

    ``removed_edges`` is a collection of disk-id pairs; each pair must name
    an actual edge of the instance's intersection graph (the problem deletes
    graph edges, never disks).  Over-budget certificates are rejected, not
    errored.
    """
    terminals = instance.meta.get("terminal_disks", [])
    if len(terminals) < 2:
        raise Malformed("cut instances need at least two terminal disks")
    removed = normalize_edge_list(removed_edges)
    udg = unit_disk_graph(instance.centers, instance.radius)
    for i, j in removed:
        # adj[i] is sorted; a negative i would read a row from the end
        row = udg.adj[i] if 0 <= i < udg.n else ()
        k = bisect_left(row, j)
        if k == len(row) or row[k] != j:
            raise Malformed(f"certificate removes {(i, j)}, which is not an intersection edge")
    reasons = []
    if budget is not None and len(removed) > budget:
        reasons.append(f"budget: certificate removes {len(removed)} edges, cap {budget}")
    comp = component_labels(udg.adj, removed)
    groups = len({comp[t] for t in terminals})    # the terminals are distinct
    if groups != len(terminals):
        reasons.append("two terminal disks stay connected")
    ok = not reasons
    return Verdict(ok, [
        f"removed intersection edges: {len(removed)}",
        f"{'ok  ' if ok else 'FAIL'} {len(terminals)} terminals in {groups} component(s)",
        *reasons,
    ])
