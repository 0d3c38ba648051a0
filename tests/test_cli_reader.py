"""The plain-form reader against argparse, the reference for the grammar.

`main()` reads a plain command line with `_read_plain`, from the same
table, GRAMMAR, that `build_parser()` hands to argparse, and gives every
other command line to argparse.  Command lines are drawn here from the
grammar's own words: command words, every option spelling, abbreviations,
`--opt=value`, `-ofile`, and values argparse reads in more than one way.
Whenever the reader reads one, argparse reads the same attributes;
whenever argparse refuses one, usage errors and --help included, the
reader returns None.
"""

import contextlib
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sympref import cli

# each command's option spellings, and -h
OWN = {
    command: [
        "-h", *(name for names, _ in arguments for name in names if name.startswith("-"))
    ]
    for command, (_, _, arguments) in cli.GRAMMAR.items()
}
SPELLINGS = sorted({name for names in OWN.values() for name in names})
LONG = [name for name in SPELLINGS if name.startswith("--")]
VALUES = ["0", "-3", "abc", "nan", "1e-3", "1_0", "", "-", "--", "5", " 7", "x.json"]
TOKENS = sorted({
    *(word for command in cli.GRAMMAR for word in command.split()),
    "frob", "--help",
    *SPELLINGS,
    *(name[:n] for name in LONG for n in range(3, len(name))),
    *("%s=%s" % (name, value) for name in LONG for value in ("5", "x")),
    "-ofile",
    *VALUES,
})


@st.composite
def argvs(draw):
    """A command's words, or none or the wrong ones, then either tokens
    drawn from its own option spellings, from values and from every
    word, or its positionals and some options in any order, each option
    with a value if it takes one, and perhaps one token more."""
    command = draw(st.sampled_from([*cli.GRAMMAR, "", "catalog", "frob"]))
    words = command.split()
    if command not in cli.GRAMMAR or draw(st.booleans()):
        token = st.one_of(
            st.sampled_from(OWN.get(command, ["-h"])),
            st.sampled_from(VALUES),
            st.sampled_from(TOKENS),
        )
        return words + draw(st.lists(token, max_size=6))
    parts = []
    for names, keywords in cli.GRAMMAR[command][2]:
        if not names[0].startswith("-"):
            parts.append([draw(st.sampled_from(VALUES))])
        elif draw(st.booleans()):
            option = [draw(st.sampled_from(names))]
            if keywords.get("action") != "store_true":
                option.append(draw(st.sampled_from(VALUES)))
            parts.append(option)
    tail = [token for part in draw(st.permutations(parts)) for token in part]
    if draw(st.booleans()):
        tail.insert(draw(st.integers(0, len(tail))), draw(st.sampled_from(TOKENS)))
    return words + tail


def argparse_reads(argv):
    """The attributes argparse reads from argv, or None if it exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(cli.build_parser().parse_args(argv))
        except SystemExit:
            return None


def same(mine, theirs):
    # compared by repr, so that a nan tolerance equals itself
    return mine.keys() == theirs.keys() and all(
        repr(mine[key]) == repr(theirs[key]) for key in mine
    )


@settings(max_examples=800, derandomize=True, deadline=None)
@given(argvs())
def test_the_reader_reads_what_argparse_reads_or_leaves_it(argv):
    plain = cli._read_plain(list(argv))
    theirs = argparse_reads(argv)
    if theirs is None:
        assert plain is None
    elif plain is not None:
        assert same(vars(plain), theirs)


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "s.json"],
        ["analyze", "--strata", "s.json", "--json", "--json"],
        ["analyze", "s.json", "--max-order", "1_0"],
        ["analyze", "s.json", "--max-order", " 7", "--max-order", "5"],
        ["semismall", "s.json", "--max-order", "5", "f.json"],
        ["double", "-o", "out.json", "s.json"],
        ["double", "s.json", "--output", ""],
        ["catalog", "list"],
        ["catalog", "emit", "list", "-o", "x"],
        ["spectrum", "", "--pair-tol", "nan", "--input-tol", "1e-3"],
    ],
)
def test_the_reader_reads_the_plain_form(argv):
    plain = cli._read_plain(argv)
    assert plain is not None
    assert same(vars(plain), argparse_reads(argv))


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "--str", "s.json"],
        ["analyze", "--max-order=5", "s.json"],
        ["double", "-oout.json", "s.json"],
        ["analyze", "--", "s.json"],
        ["spectrum", "t.json", "--pair-tol", "-3"],
        ["analyze", "-"],
        ["catalog", "emit", "-3"],
    ],
)
def test_argparse_reads_what_is_not_plain(argv):
    assert argparse_reads(argv) is not None
    assert cli._read_plain(argv) is None
