"""Command-line front end.

Usage:
    python -m disklab reduce pmc->subdivision in.json --out target.json
    python -m disklab verify isolation inst.json cert.json
    python -m disklab solve mc inst.json --out optimum.json
    python -m disklab lift --record r.json --solution s.json \
        --source-instance a.json --target-instance b.json --out lifted.json
    python -m disklab render inst.json --out picture.svg
    python -m disklab check-params --n 2 --params sound
    python -m disklab lemma-oracle --n 3

``reduce`` and ``check-params`` take ``--params sound|toy`` and the
rational overrides ``--r``, ``--h``, ``--s`` and ``--a``; a reduction
refuses one it does not read.  No verb has a work option: a meter refuses
past any of three allowances, the ``EDGES_PER_DISK * n + EDGE_SLACK`` edges
of an n-disk intersection graph (``disklab.arrangements``), the
``SEARCH_ALLOWANCE`` units of a search and the ``CHECK_PAIRS`` pairs of a
drawing check (``disklab.gridembed``).

Exit codes: 0 accepted/succeeded, 1 rejected/refused (an instance with no
solution included), 2 malformed input, 3 a failure not of the input (an
internal fault or a failed write, reported with its traceback).
Diagnostics go to stderr as JSON lines; result payloads go to --out files
(or stdout for the report commands).
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path
from typing import Dict, List, Optional

from .base import Malformed
from .geometry import cli_check_params, cli_lemma_oracle, rational_from_str


def _diag(level: str, lines: List[str]) -> None:
    for line in lines:
        print(json.dumps({"level": level, "msg": line}, sort_keys=True),
              file=sys.stderr)


OVERRIDES = ("r", "h", "s", "a")


def _override_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--params", choices=["sound", "toy"], default="sound",
                        help="parameter regime for synthesis")
    for name in OVERRIDES:
        parser.add_argument(f"--{name}", default=None, metavar="P/Q",
                            help=f"override parameter {name} (rational)")


def _collect_overrides(args) -> Dict[str, Fraction]:
    return {name: rational_from_str(val) for name in OVERRIDES
            if (val := getattr(args, name, None)) is not None}


class _PipelineNames:
    """The choices ``names(pipeline)``, read only when argparse checks a
    value (``in`` falls back to ``__iter__``) or prints them, so the reports
    never import :mod:`pipeline`.  Set after ``add_argument``, whose metavar
    check would read them at once."""

    def __init__(self, names):
        self.names = names

    def __iter__(self):
        from . import pipeline
        return iter(self.names(pipeline))


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="disklab", description=__doc__,
                                  formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("reduce", help="compile an instance into a harder one")
    p.add_argument("kind").choices = _PipelineNames(lambda pl: pl.REDUCTIONS)
    p.add_argument("input")
    p.add_argument("--out", required=True, help="target path; the record goes to OUT.record.json")
    _override_flags(p)

    p = sub.add_parser("verify", help="check a certificate against an instance")
    p.add_argument("problem").choices = _PipelineNames(lambda pl: pl.problems_with("verify"))
    p.add_argument("instance")
    p.add_argument("certificate")

    p = sub.add_parser("solve", help="ground-truth optimum (may refuse)")
    p.add_argument("problem").choices = _PipelineNames(lambda pl: pl.problems_with("solve"))
    p.add_argument("instance")
    p.add_argument("--out", required=True)

    p = sub.add_parser("lift", help="map a target solution back to the source")
    p.add_argument("--record", required=True)
    p.add_argument("--solution", required=True)
    p.add_argument("--source-instance", required=True)
    p.add_argument("--target-instance", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("render", help="deterministic SVG of an instance/drawing")
    p.add_argument("input")
    p.add_argument("--out", required=True)
    p.add_argument("--guides", action="store_true", help="draw grid guide lines")

    p = sub.add_parser("check-params", help="constraint report for one grid size")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", default=None)
    _override_flags(p)

    p = sub.add_parser("lemma-oracle", help="exhaustive grid distance/angle facts")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", default=None)

    return top


# command -> call on the parsed arguments and ``overrides``: the file verbs, given
# the pipeline, return (exit code, diagnostic lines); the reports (exit code, payload).
VERBS = {
    "reduce": lambda pl, a: pl.cli_reduce(
        a.kind, a.input, a.out, mode=a.params, overrides=a.overrides),
    "verify": lambda pl, a: pl.cli_verify(a.problem, a.instance, a.certificate),
    "solve": lambda pl, a: pl.cli_solve(a.problem, a.instance, a.out),
    "lift": lambda pl, a: pl.cli_lift(
        a.record, a.solution, a.source_instance, a.target_instance, a.out),
    "render": lambda pl, a: pl.cli_render(a.input, a.out, guides=a.guides),
}
REPORTS = {
    "check-params": lambda a: cli_check_params(a.n, a.params, a.overrides),
    "lemma-oracle": lambda a: (0, cli_lemma_oracle(a.n)),
}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:    # the file verbs map their own input's exceptions, not a fault
        args.overrides = _collect_overrides(args)
        if args.command in VERBS:
            from . import pipeline
            code, lines = VERBS[args.command](pipeline, args)
            _diag("info" if code == 0 else "error", lines)
            return code
        code, payload = REPORTS[args.command](args)
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
        if args.out:
            Path(args.out).parent.mkdir(parents=True, exist_ok=True)
            Path(args.out).write_text(text, encoding="utf-8")
        else:
            sys.stdout.write(text)
        return code
    except Malformed as exc:
        _diag("error", [f"malformed: {exc}"])
        return 2
    except Exception:    # a fault or a failed write
        import traceback    # here, not at start-up, which it would slow by 5 ms
        _diag("error", ["failed: " + traceback.format_exc()])
        return 3


if __name__ == "__main__":
    sys.exit(main())
