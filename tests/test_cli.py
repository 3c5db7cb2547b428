"""cli.main parses a command with that command's own parser; the result
must match the full parser's on every argv, output and exit code included."""

import contextlib
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fscoloring import cli

# the words of every command, of each group, and words no parser knows
COMMAND_WORDS = [
    ("eval",), ("tree", "check"), ("search-mono",), ("delta3", "witness"), ("pi3", "witness"),
    ("apartness", "extract"), ("verify",), ("tree",), ("delta3",), ("pi3",), ("apartness",),
    ("bogus",), ("pi3", "bogus"), ("tree", "check", "check"),
]

# every option of every command
OPTIONS = [
    "--coloring", "--start", "--end", "--modulus", "--seed", "--config", "--variant", "--out",
    "--max-exponent", "--functions", "--moduli", "--no-contract", "--max-terms", "--bound",
    "--size", "--index", "--blind", "--product", "--stream", "--count",
    "--guard-tree-exponent", "--guard-search-combinations", "--guard-blind-bound",
    "--guard-horizon", "--guard-request-exponent", "--guard-chain-bits", "--guard-extract-bits",
]
VALUES = ["0", "7", "-1", "", "x", "tree-random", "popcount", "arith:1:3", "2,3", "r.json"]
FLAGS = ["-h", "--help", "--", "--bogus", "-x", "--h", "--g", "--guard", "-hx", "-"]


@st.composite
def argvs(draw):
    """Command words, whole, cut short or misspelt, then options (whole or
    abbreviated, alone or with =value), values and stray flags."""
    words = list(draw(st.sampled_from(COMMAND_WORDS)))
    if words and draw(st.booleans()):
        cut = draw(st.integers(0, len(words[-1])))
        words[-1] = words[-1][:cut]
    tokens = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["option", "option=", "value", "flag"]))
        if kind.startswith("option"):
            option = draw(st.sampled_from(OPTIONS))
            option = option[:draw(st.integers(3, len(option)))]
            tokens.append(option + "=" + draw(st.sampled_from(VALUES)) if kind == "option="
                          else option)
        else:
            tokens.append(draw(st.sampled_from(VALUES if kind == "value" else FLAGS)))
    return words + tokens


def outcome(parse, argv):
    """(namespace as a dict or None, exit code or None, stdout, stderr) of
    parse(argv)."""
    out, err = io.StringIO(), io.StringIO()
    namespace, code = None, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            namespace = vars(parse(argv))
        except SystemExit as exit_:
            code = exit_.code
    return namespace, code, out.getvalue(), err.getvalue()


def assert_same_parse(argv):
    full = cli.build_parser()
    assert outcome(cli._parse, argv) == outcome(full.parse_args, argv)


@settings(max_examples=400, deadline=None)
@given(argvs())
def test_parse_matches_full_parser(argv):
    assert_same_parse(argv)


@pytest.mark.parametrize("argv", [
    # every command, parsed by its own parser
    ["eval", "--coloring", "tree-random", "--seed", "5", "--end", "40"],
    ["tree", "check", "--max-exponent", "5", "--no-contract", "--guard-tree-exponent=9"],
    ["search-mono", "--coloring", "pi3", "--max-terms", "3", "--bound", "48", "--size", "5"],
    ["delta3", "witness", "--index", "0", "--blind", "--guard-blind-bound", "16"],
    ["pi3", "witness", "--index", "1", "--config", "c", "--product", "--out", "r"],
    ["apartness", "extract", "--stream", "arith:1:3", "--count", "12"],
    ["verify", "r.json", "--guard-chain-bits", "90"],
    # abbreviations, = forms, -- and negative values
    ["pi3", "witness", "--ind", "-3", "--prod", "--guard-ch=5"],
    ["verify", "--", "--index"],
    ["eval", "--coloring=killer", "--end=-4", "--start", "-9"],
    # the leaf's own errors and help
    ["pi3", "witness"],
    ["pi3", "witness", "--index", "x"],
    ["delta3", "witness", "--index", "0", "--guard-ho"],
    ["verify", "--help"],
    ["eval", "--coloring", "bogus", "--end", "3"],
    # the full parser: argv names no command, or the command leaves arguments
    [], ["--help"], ["pi3"], ["pi3", "--help"], ["pi3", "bogus"], ["bogus"],
    ["-h", "eval"], ["--", "verify", "r.json"],
    ["pi3", "witness", "--index", "0", "--bogus"],
    ["verify", "a.json", "b.json"],
    ["eval", "--coloring", "killer", "--end", "3", "extra"],
    ["tree", "check", "check"],
])
def test_parse_cases(argv):
    assert_same_parse(argv)


def test_each_command_has_its_own_parser():
    _parser, leaves = cli._parsers()
    assert sorted(leaves) == sorted(words for words in COMMAND_WORDS[:7])
    for words, (leaf, dests) in leaves.items():
        assert leaf.prog == " ".join(("fscoloring",) + words)
        assert list(dests.values()) == list(words)
