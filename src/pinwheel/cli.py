"""Command-line front end: enumeration, translation, actions and verification.

All input and output is JSON (or DOT where requested), 1-based and
byte-deterministic for fixed inputs and flags.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Callable, Sequence

from .chains import Chain, act_on_chain, chain_dimension, enumerate_chains
from .cosets import chain_to_coset, coset_elements
from .cyclo import YPoint, _check_nonnegative
from .faces import DeltaFace, face_product_decomposition, hasse_dot
from .group import GenPerm, act_on_tuple
from .strata import chain_to_stratum, dual_graph_dot
from .verify import _MAX_GROUP_ORDER, SUITES, CapExceeded

__all__ = ["main"]


def _emit(data) -> None:
    print(json.dumps(data, separators=(",", ":"), sort_keys=False))


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object hook that refuses a repeated key instead of keeping the last value."""
    data = {}
    for key, value in pairs:
        if key in data:
            raise ValueError(f"repeated key {key!r}")
        data[key] = value
    return data


def _load(path: str, what: str, parse: Callable):
    """Read a JSON file and parse it; any failure becomes a one-line exit message."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            data = json.load(fh, object_pairs_hook=_unique_keys)
    except (OSError, RecursionError, ValueError) as exc:
        raise SystemExit(f"cannot read JSON from {path}: {exc}")
    if not isinstance(data, dict):
        raise SystemExit(f"malformed {what} in {path}: expected a JSON object")
    try:
        return parse(data)
    except (KeyError, TypeError, ValueError) as exc:
        raise SystemExit(f"malformed {what} in {path}: {exc}")


def _sorted_elements(elements) -> list[dict]:
    return [g.to_json() for g in sorted(elements, key=lambda g: g.sort_key())]


def _cmd_chains(args) -> int:
    dim = None if args.dim is None else _check_nonnegative("--dim", args.dim)
    chains = enumerate_chains(args.r, args.n)
    if dim is not None:
        chains = tuple(c for c in chains if chain_dimension(c) == dim)
    if args.table:
        print(f"{'dim':>3}  {'len':>3}  sets / decoration")
        for c in chains:
            sets = " < ".join("{" + ",".join(map(str, s)) + "}" for s in c.sets) or "(empty)"
            dec = " ".join(f"{i}:{e}" for i, e in c.decoration)
            print(f"{chain_dimension(c):>3}  {c.length:>3}  {sets}   {dec}")
    else:
        _emit([c.to_json() for c in chains])
    return 0


def _cmd_coset(args) -> int:
    chain = _load(args.chain, "chain", Chain.from_json)
    handle = chain_to_coset(chain)
    data = handle.to_json()
    if args.elements:
        data["elements"] = _sorted_elements(coset_elements(handle))
    _emit(data)
    return 0


def _cmd_face(args) -> int:
    chain = _load(args.chain, "chain", Chain.from_json)
    data: dict = {"chain": chain.to_json(), "dimension": chain_dimension(chain)}
    if args.vertices:
        data["vertices"] = DeltaFace.from_chain(chain).to_json()["vertices"]
    if args.factors:
        data["factors"] = [f.to_json() for f in face_product_decomposition(chain)]
    _emit(data)
    return 0


def _cmd_stratum(args) -> int:
    chain = _load(args.chain, "chain", Chain.from_json)
    stratum = chain_to_stratum(chain)
    if args.dot:
        sys.stdout.write(dual_graph_dot(stratum))
    else:
        _emit(stratum.to_json())
    return 0


def _cmd_hasse(args) -> int:
    sys.stdout.write(hasse_dot(args.r, args.n))
    return 0


def _cmd_act(args) -> int:
    matrix = _load(args.matrix, "matrix", GenPerm.from_json)
    if args.chain:
        chain = _load(args.chain, "chain", Chain.from_json)
        _emit(act_on_chain(chain, matrix).to_json())
    else:
        moved = _load(
            args.vertex, "vertex", lambda data: act_on_tuple(YPoint.from_json(data, matrix.r), matrix)
        )
        _emit(moved.to_json())
    return 0


def _cmd_verify(args) -> int:
    cap = _check_nonnegative("--max-group-order", args.max_group_order)
    suites = SUITES.values() if args.suite == "all" else [SUITES[args.suite]]
    try:
        reports = [suite(args.r, args.n, cap) for suite in suites]
    except CapExceeded as exc:
        raise SystemExit(f"size cap exceeded: {exc}")
    _emit([rep.to_json() for rep in reports])
    return 0 if all(rep.ok for rep in reports) else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pinwheel",
        description="Exact chain / coset / face / stratum combinatorics",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    rn = argparse.ArgumentParser(add_help=False)
    rn.add_argument("--r", type=int, required=True)
    rn.add_argument("--n", type=int, required=True)

    p = sub.add_parser("chains", parents=[rn], help="enumerate decorated nested chains")
    p.add_argument("--dim", type=int, default=None, help="keep only this dimension")
    p.add_argument("--table", action="store_true")
    p.set_defaults(func=_cmd_chains)

    p = sub.add_parser("coset", help="chain to coset handle")
    p.add_argument("--chain", required=True, metavar="FILE")
    p.add_argument("--elements", action="store_true", help="list the full coset")
    p.set_defaults(func=_cmd_coset)

    p = sub.add_parser("face", help="chain to face data")
    p.add_argument("--chain", required=True, metavar="FILE")
    p.add_argument("--vertices", action="store_true")
    p.add_argument("--factors", action="store_true")
    p.set_defaults(func=_cmd_face)

    p = sub.add_parser("stratum", help="chain to pinwheel stratum")
    p.add_argument("--chain", required=True, metavar="FILE")
    p.add_argument("--dot", action="store_true", help="emit the dual graph as DOT")
    p.set_defaults(func=_cmd_stratum)

    p = sub.add_parser("hasse", parents=[rn], help="refinement poset covering relations")
    p.set_defaults(func=_cmd_hasse)

    p = sub.add_parser("act", help="apply a group element")
    p.add_argument("--matrix", required=True, metavar="FILE")
    target = p.add_mutually_exclusive_group(required=True)
    target.add_argument("--chain", metavar="FILE")
    target.add_argument("--vertex", metavar="FILE")
    p.set_defaults(func=_cmd_act)

    p = sub.add_parser("verify", parents=[rn], help="run a verification suite")
    p.add_argument(
        "--suite",
        required=True,
        choices=sorted(SUITES) + ["all"],
    )
    p.add_argument("--max-group-order", type=int, default=_MAX_GROUP_ORDER)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")


if __name__ == "__main__":
    sys.exit(main())
