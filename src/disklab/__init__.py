"""Exact-arithmetic toolkit for unit-disk separation reductions.

Its modules cover the exit-code exceptions, work meter, verdict type and
JSON input checks every layer shares (:mod:`base`), parameter schedules and
grid oracles (:mod:`geometry`), rotation-system graphs and duals
(:mod:`graphs`), straight-line grid drawing (:mod:`gridembed`), disk/segment
arrangements and certificate verification (:mod:`arrangements`), instance
synthesis (:mod:`gadgets`), brute-force reference solvers (:mod:`solvers`),
seeded random corpora (:mod:`corpus`), SVG rendering (:mod:`render`), and
the command-line pipeline (:mod:`pipeline`).
"""

__all__ = [
    "base",
    "geometry",
    "graphs",
    "gridembed",
    "arrangements",
    "gadgets",
    "solvers",
    "render",
    "pipeline",
]

__version__ = "0.1.0"
