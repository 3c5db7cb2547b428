"""Command-line front end.

Subcommands: eval, tree check, search-mono, delta3 witness, pi3 witness,
apartness extract, verify.  Exit codes: 0 success/verified, 1 a claimed
property failed to verify or a witness search came up empty, 2 usage,
configuration or guard errors, or memory run out.  search-mono exits 0
whether it finds a set or exhausts its bound; the report records which.

argv's leading words name a command, and that command's own parser reads
the rest.  The root and group parsers only hand the rest on unchanged, so
the result is the full parser's; argv naming no command, or a command
leaving arguments unread, goes to the full parser for its exact errors.
"""

from __future__ import annotations

import argparse
import functools
import re
import sys
from typing import Optional

from . import harness
from .errors import FixtureError, GuardError, VerificationError, WitnessSearchError


def _add_guard_flags(parser, *names):
    """A --guard-* flag for each named Guards field, the ones the command reads."""
    group = parser.add_argument_group("guard overrides")
    for name in names:
        group.add_argument("--guard-%s" % name.replace("_", "-"), type=int, default=None)


def _guards(args) -> harness.Guards:
    return harness.Guards(**{
        name: value for name in harness.Guards.__dataclass_fields__
        if (value := getattr(args, "guard_%s" % name, None)) is not None
    })


def _coloring_spec(args) -> dict:
    spec = {"id": args.coloring}
    if args.coloring in ("tree-default", "tree-random"):
        spec["modulus"] = str(args.modulus)
    if args.coloring == "tree-random":
        spec["seed"] = str(args.seed)
    if args.coloring in ("delta3", "pi3", "delta3-product", "pi3-product"):
        spec["config"] = _config(args, "delta3" if args.coloring.startswith("delta3") else "pi3")
    return spec


def _config(args, catalog) -> dict:
    if getattr(args, "config", None):
        return harness.load_config(args.config)
    return harness.default_config(catalog, getattr(args, "variant", "instant"))


def build_parser(leaves: Optional[dict] = None) -> argparse.ArgumentParser:
    """The full parser.  leaves, if given, gets each command's parser under
    the words naming it, e.g. ("pi3", "witness"), with the attributes they set."""
    parser = argparse.ArgumentParser(
        prog="fscoloring",
        description="recursive colorings of positive integers and their witness harness",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    def command(*words, help, sub=commands):
        leaf = sub.add_parser(words[-1], help=help)
        if leaves is not None:
            leaves[words] = leaf, dict(zip(("command", "%s_command" % words[0]), words))
        return leaf

    def group(name, help):
        return commands.add_parser(name, help=help).add_subparsers(
            dest="%s_command" % name, required=True)

    coloring_ids = (
        "popcount", "tree-default", "tree-random", "killer",
        "delta3", "pi3", "delta3-product", "pi3-product",
    )

    p_eval = command("eval", help="print coloring values over a range")
    p_eval.add_argument("--coloring", choices=coloring_ids, required=True)
    p_eval.add_argument("--start", type=int, default=1)
    p_eval.add_argument("--end", type=int, required=True)
    p_eval.add_argument("--modulus", type=int, default=2)
    p_eval.add_argument("--seed", type=int, default=0)
    p_eval.add_argument("--config")
    p_eval.add_argument("--variant", default="instant")
    p_eval.add_argument("--out")

    p_tree_check = command("tree", "check", help="validate structure and contract",
                           sub=group("tree", "request-tree checks"))
    p_tree_check.add_argument("--max-exponent", type=int, default=8)
    p_tree_check.add_argument("--functions", type=int, default=20)
    p_tree_check.add_argument("--seed", type=int, default=7)
    p_tree_check.add_argument("--moduli", default="2,3")
    p_tree_check.add_argument("--no-contract", action="store_true")
    p_tree_check.add_argument("--out")
    _add_guard_flags(p_tree_check, "tree_exponent")

    p_search = command("search-mono", help="exhaustive monochromatic-set search")
    p_search.add_argument("--coloring", choices=coloring_ids, required=True)
    p_search.add_argument("--max-terms", type=int, default=None)
    p_search.add_argument("--bound", type=int, required=True)
    p_search.add_argument("--size", type=int, required=True)
    p_search.add_argument("--modulus", type=int, default=2)
    p_search.add_argument("--seed", type=int, default=0)
    p_search.add_argument("--config")
    p_search.add_argument("--variant", default="instant")
    p_search.add_argument("--out")
    _add_guard_flags(p_search, "search_combinations")

    witness_guards = {
        "delta3": ("blind_bound", "horizon"),
        "pi3": ("request_exponent", "chain_bits", "horizon"),
    }
    for name, guard_names in witness_guards.items():
        p_witness = command(name, "witness", help="find and verify a fixture kill",
                            sub=group(name, "%s construction runs" % name))
        p_witness.add_argument("--index", type=int, required=True)
        p_witness.add_argument("--config")
        p_witness.add_argument("--variant", default="instant")
        p_witness.add_argument("--blind", action="store_true")
        p_witness.add_argument("--product", action="store_true",
                               help="kill under the product with the pair coloring")
        p_witness.add_argument("--out")
        _add_guard_flags(p_witness, *guard_names)

    p_extract = command("apartness", "extract", help="thin a stream to an apart sequence",
                        sub=group("apartness", "apartness extraction"))
    p_extract.add_argument("--stream", default="naturals",
                           help="'naturals' or 'arith:START:STEP'")
    p_extract.add_argument("--count", type=int, default=10)
    p_extract.add_argument("--out")
    _add_guard_flags(p_extract, "extract_bits")

    p_verify = command("verify", help="recompute every claim in a report file")
    p_verify.add_argument("report")
    _add_guard_flags(p_verify, "tree_exponent", "chain_bits", "search_combinations",
                     "extract_bits")

    return parser


@functools.lru_cache(maxsize=1)
def _parsers() -> tuple:
    """The full parser and its leaves, built once per process: parse_args
    leaves a parser as it found it."""
    leaves = {}
    return build_parser(leaves), leaves


def _parse(argv) -> argparse.Namespace:
    """argv parsed exactly as the full parser parses it.  Where argv's
    leading words name a command, that command's parser parses the rest."""
    parser, leaves = _parsers()
    for depth in (1, 2):
        if (found := leaves.get(tuple(argv[:depth]))) is not None:
            leaf, dests = found
            args, extras = leaf.parse_known_args(argv[depth:], argparse.Namespace(**dests))
            if not extras:
                return args
    return parser.parse_args(argv)


def _stream_spec(text: str) -> dict:
    if text == "naturals":
        return {"kind": "naturals"}
    arithmetic = re.fullmatch(r"arith:(-?[0-9]+):(-?[0-9]+)", text)
    if arithmetic:
        return {"kind": "arithmetic", "start": arithmetic[1], "step": arithmetic[2]}
    raise FixtureError(
        "unknown stream %r: expected 'naturals' or 'arith:START:STEP' with integer "
        "START and STEP" % (text,))


def _run(args) -> int:
    guards = _guards(args)
    if args.command == "eval":
        payload = harness.eval_table(_coloring_spec(args), args.start, args.end, out=args.out)
        print("\n".join(["# coloring=%s arity=%s" % (args.coloring, payload["arity"])] + [
            "%s\t%s" % (entry["w"], ",".join(entry["color"])) for entry in payload["values"]]))
        return 0

    if args.command == "tree":
        moduli = [int(m) for m in args.moduli.split(",") if m]
        payload = harness.tree_check_report(
            args.max_exponent, args.functions, args.seed, moduli,
            contract=not args.no_contract, guards=guards, out=args.out,
        )
        for row in payload["results"]:
            print(
                "exponent %s: edge failures %s, contract failures %s"
                % (row["exponent"], row["edge_failures"], row["contract_failures"])
            )
        print("tree check %s" % ("OK" if payload["ok"] else "FAILED"))
        return 0 if payload["ok"] else 1

    if args.command == "search-mono":
        payload = harness.search_report(
            _coloring_spec(args), args.max_terms, args.bound, args.size,
            guards=guards, out=args.out,
        )
        if payload["outcome"] == "found":
            print("found: {%s}" % ", ".join(payload["found"]))
        else:
            print("exhausted: no monochromatic set of size %s below %s"
                  % (payload["size"], payload["bound"]))
        return 0

    if args.command in ("delta3", "pi3"):
        config = _config(args, args.command)
        mode = "blind" if args.blind else "oracle"
        run, summary = {
            "product": (harness.run_product_kill,
                        "killed fixture {index} via {branch} branch: colors of {u} and {v} differ"),
            "delta3": (harness.run_delta3,
                       "witness x={x} w1={w1} w2={w2}: colors {color_sum} vs {color_sum_with_x}"),
            "pi3": (harness.run_pi3,
                    "witness n={block_exponent} x={x} w={w}: colors {color_w} vs {color_w_plus_x}"),
        }["product" if args.product else args.command]
        payload = run(config, args.index, mode=mode, guards=guards, out=args.out)
        print(summary.format(**payload))
        if not args.out:
            print(harness.render_report(payload), end="")
        return 0

    if args.command == "apartness":
        payload = harness.run_extraction(
            _stream_spec(args.stream), args.count, guards=guards, out=args.out
        )
        for entry in payload["outputs"]:
            print(
                "%s = sum of {%s} (stream offset %s)"
                % (entry["value"], ", ".join(entry["block"]), entry["first_index"])
            )
        return 0

    if args.command == "verify":
        payload = harness.load_report(args.report)
        ok, details = harness.verify_report(payload, guards)
        for line in details:
            print(line)
        print("VERIFIED" if ok else "VERIFICATION FAILED")
        return 0 if ok else 1

    raise AssertionError("unhandled command %r" % (args.command,))


def main(argv=None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    try:
        return _run(args)
    except (GuardError, FixtureError, ValueError, OSError) as failure:
        print("error: %s" % failure, file=sys.stderr)
        return 2
    except (VerificationError, WitnessSearchError) as failure:
        print("error: %s" % failure, file=sys.stderr)
        return 1
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
