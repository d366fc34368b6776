"""Exact-arithmetic toolkit for unit-disk separation reductions.

Subpackages cover the exit-code exceptions, work meter and JSON input
checks every layer shares (:mod:`base`), parameter schedules and grid
oracles (:mod:`geometry`), rotation-system graphs and duals (:mod:`graphs`),
straight-line grid drawing (:mod:`gridembed`), disk/segment arrangements and
certificate verification (:mod:`arrangements`), instance synthesis
(:mod:`gadgets`), brute-force reference solvers (:mod:`solvers`), and the
command-line pipeline (:mod:`pipeline`).
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
