"""What every layer shares: the exit-code exceptions, the work meter, the
verdict every verifier returns, the checks that read JSON input and the
indented JSON every file is written in.

:class:`Malformed` is exit 2, :class:`Rejected` and :class:`Refused` exit 1.
The ``json_*`` helpers refuse input that is not the JSON type they expect,
where ``list()``, ``dict()`` or ``int()`` would read it some other way.  This
module imports nothing of the package, so the report commands load it
without the graph layer.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii
from typing import Dict, Hashable, Iterable, List, NamedTuple, Tuple

Vertex = Hashable
Dart = Tuple[int, int]


class Malformed(ValueError):
    """Input that no verb can read, raised where it is parsed: exit 2."""


class Rejected(RuntimeError):
    """Well-formed input that fails a restriction or a verification, or has
    no solution."""


class Refused(RuntimeError):
    """Well-formed input that needs more work than a :class:`Meter` allows."""


class Meter:
    """Units of work, charged where the work is done; :meth:`charge` raises
    :class:`Refused` once more than ``allowance`` units are spent."""

    def __init__(self, what: str, allowance: int):
        self.what, self.allowance, self.spent = what, allowance, 0

    def charge(self, units: int) -> None:
        self.spent += units
        if self.spent > self.allowance:
            raise Refused(f"the {self.what} meter's allowance of {self.allowance} is spent: "
                          f"{self.spent} charged")


class Verdict(NamedTuple):
    """A verifier's finding on a well-formed certificate: accepted or not,
    and the lines ``verify`` prints (``lift`` joins them into a rejection)."""
    ok: bool
    lines: List[str]


def indented_json(obj, pad: str = "\n") -> str:
    """``json.dumps(obj, sort_keys=True, indent=2)``, ``pad`` opening each of
    its lines, by one module function: json's indenting encoder is a nest of
    closures that reach one another, a reference cycle on every call."""
    if type(obj) is str:
        return encode_basestring_ascii(obj)
    if type(obj) is int:
        return int.__repr__(obj)
    if not obj or not isinstance(obj, (dict, list, tuple)):
        return json.dumps(obj)
    inner = pad + "  "
    if isinstance(obj, dict):
        items = (f"{encode_basestring_ascii(k if isinstance(k, str) else json.dumps(k))}: "
                 f"{indented_json(v, inner)}" for k, v in sorted(obj.items()))
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    if type(obj[0]) is int and set(map(type, obj)) == {int}:    # ids: no call per id
        return "[" + inner + ("," + inner).join(map(int.__repr__, obj)) + pad + "]"
    return "[" + inner + ("," + inner).join(indented_json(v, inner) for v in obj) + pad + "]"


def json_ints(values: Iterable, what: str) -> list:
    """``values`` as a list, refused unless each is an ``int``, what a JSON
    integer parses to (``int()`` would truncate a float and read ``true`` as 1)."""
    out = list(values)
    if any(type(v) is not int for v in out):
        raise Malformed(f"{what} must be JSON integers")
    return out


def json_key(d: dict, key: str, what: str):
    """``d[key]``, refused unless ``d`` (``what``) is a JSON object with ``key``."""
    if key not in json_object(d, what):
        raise Malformed(f'{what} needs a "{key}" key')
    return d[key]


def json_list(value, what: str) -> list:
    """``value``, refused unless a JSON list (``list()`` takes a string)."""
    if type(value) is not list:
        raise Malformed(f"{what} must be a JSON list")
    return value


def json_int_list(value, what: str) -> list:
    """``value``, refused unless a JSON list of integers."""
    return json_ints(json_list(value, what), what)


def json_edge_key(key, what: str) -> int:
    """The edge id an object key spells, refused unless in canonical decimal: one
    spelling per id, so "00", " 0", "+0", "0_0" or a non-ASCII digit cannot alias 0."""
    if type(key) is not str or not key.isdecimal() or str(int(key)) != key:
        raise Malformed(f"{what} {key!r} is not an edge id in decimal")
    return int(key)


def json_object(value, what: str) -> dict:
    """``value``, refused unless a JSON object (``dict()`` takes pairs)."""
    if type(value) is not dict:
        raise Malformed(f"{what} must be a JSON object")
    return value


def json_coords(value, what: str) -> Dict[str, Tuple[int, int]]:
    """A ``coords`` object: each vertex name mapped to a JSON list of two
    integers; ``what`` names the integers."""
    coords = json_object(value, "coords")
    if any(type(xy) is not list or len(xy) != 2 for xy in coords.values()):
        raise Malformed("each coords value must be a JSON list of two integers")
    json_ints([c for xy in coords.values() for c in xy], what)
    return {k: (x, y) for k, (x, y) in coords.items()}


def json_by_vertex(obj: dict, by_name: Dict[str, Vertex], what: str) -> dict:
    """The JSON object ``obj`` keyed by the vertices its keys name in ``by_name``."""
    for k in json_object(obj, what):
        if k not in by_name:
            raise Malformed(f"{what} names an unknown vertex {k!r}")
    return {by_name[k]: v for k, v in obj.items()}


def json_graph(d: dict) -> Tuple[List[Vertex], List[Tuple[Vertex, Vertex]], Dict[str, Vertex]]:
    """A graph source's ``vertices`` (distinct JSON scalars with distinct
    ``str`` names), ``edges`` (JSON lists of two of them) and vertices by name."""
    vertices = json_list(json_key(d, "vertices", "a graph"), "vertices")
    if any(type(v) in (list, dict) for v in vertices):    # unhashable
        raise Malformed("a vertex id must be a JSON string, number, boolean or null")
    vset = set(vertices)
    if len(vset) != len(vertices):  # also ids equal in Python: 0 and false, 1 and 1.0
        raise Malformed("duplicate vertex ids")
    by_name = {str(v): v for v in vertices}
    if len(by_name) != len(vertices):
        raise Malformed("vertex names collide after string coercion")
    edges = json_list(json_key(d, "edges", "a graph"), "edges")
    if any(type(e) is not list or len(e) != 2 for e in edges):
        raise Malformed("an edge must be a JSON list of two vertex ids")
    for eid, e in enumerate(edges):
        if not all(type(v) not in (list, dict) and v in vset for v in e):
            raise Malformed(f"edge {eid} uses an unknown vertex")
    return vertices, [(u, w) for u, w in edges], by_name
