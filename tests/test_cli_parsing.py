"""In-process checks of how `cli.main` parses its arguments.

`main` builds only the parser of the command it is given and leaves
every other case to the full parser of `build_parser`; these tests pin
that it builds one parser for a valid call and that what it parses,
prints and exits with is what the full parser alone gives.
"""

import argparse

import pytest

from conelab import cli

VALID = [
    ["verify-ssc", "--n", "16"],
    ["verify-ssc", "--n", "8", "--samples", "300", "--seed", "-3"],
    ["solve", "--n", "8", "--h", "0.1"],
    ["solve", "--method", "brute", "--n", "20", "--h", "1"],
    ["solve", "--method", "pgd", "--n=3", "--h=-0", "--tol", "1e-20", "--max-iter", "2"],
    ["solve", "--me", "bangbang", "--n", "65", "--h", "1e-13"],
    ["solve", "--n", "8", "--h", "0.1", "--n", "9"],
    ["sweep", "--n-list", "4,8", "--h-list", "-0,0.1,1", "--out", "rows.csv"],
    ["sweep", "--method", "brute", "--format", "json", "--out", "r.json",
     "--h-list=0.1", "--n-list", "8,,4"],
    ["growth", "--n", "16", "--samples", "500", "--epsilon", "0.5", "--seed", "2"],
    ["stability", "--n", "16", "--h", "0.1", "--delta", "0.5"],
    ["stability", "--h", "0", "--n", "4"],
]
HELP = [["--help"], ["-h"], ["--help", "solve"], ["solve", "-h"],
        *([name, "--help"] for name in cli._COMMANDS)]
USAGE_ERRORS = [
    [],
    # an unknown command
    ["no-such-command"],
    ["solv", "--n", "8", "--h", "1"],
    ["--n", "8"],
    # an unknown flag
    ["solve", "--no-such-flag"],
    ["solve", "--n", "8", "--h", "1", "--no-such-flag"],
    ["growth", "--n", "8", "--no-such-flag=3"],
    ["solve", "-x", "--n", "8", "--h", "1"],
    # an extra positional
    ["solve", "--n", "8", "--h", "0.1", "extra"],
    ["solve", "extra", "--n", "8", "--h", "0.1"],
    ["sweep", "--n-list", "4", "--h-list", "0.1", "--out", "r.csv", "x", "y"],
    ["solve", "--n", "8", "--h", "0.1", "--"],
    ["solve", "--", "--n", "8", "--h", "0.1"],
    # a missing required option, or a missing value
    ["solve"],
    ["solve", "--n", "8"],
    ["sweep", "--n-list", "4", "--h-list", "0.1"],
    ["stability", "--h", "0.1"],
    ["solve", "--h", "0.1", "--n"],
    # bad type and range values, some starting with "-"
    ["solve", "--n", "0", "--h", "1"],
    ["solve", "--n", "x", "--h", "1"],
    ["solve", "--n", "8", "--h", "-1e-5"],
    ["solve", "--n", "8", "--h", "nan"],
    ["solve", "--n", "8", "--h", "1", "--tol", "-1e-5"],
    ["solve", "--n", "8", "--h", "1", "--tol", "inf"],
    ["solve", "--n", "8", "--h", "1", "--max-iter", "0"],
    ["solve", "--n", "8", "--h", "1", "--method", "newton"],
    ["sweep", "--n-list", "-4,8", "--h-list", "0.1", "--out", "r.csv"],
    ["sweep", "--n-list", "4", "--h-list", "0.1,-1", "--out", "r.csv"],
    ["sweep", "--n-list", "4", "--h-list", "0.1", "--out", "r.csv", "--format", "xml"],
    ["growth", "--n", "8", "--epsilon", "-1e-3"],
    ["growth", "--n", "8", "--samples", "-5"],
    ["stability", "--n", "8", "--h", "0.1", "--delta", "-1e-3"],
    ["verify-ssc", "--n", "8", "--seed", "x"],
    # a bad value and an unrecognized argument: the value error comes first
    ["solve", "--n", "0", "--h", "1", "extra"],
]


@pytest.fixture
def recorded(monkeypatch):
    """Each command's handler only records the namespace it is given."""
    seen = []

    def record(args):
        seen.append(args)
        return 0

    for name, (help_text, _, specs) in cli._COMMANDS.items():
        monkeypatch.setitem(cli._COMMANDS, name, (help_text, record, specs))
    return seen


@pytest.fixture
def parsers(monkeypatch):
    """The prog of every ArgumentParser constructed."""
    progs = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        init(self, *args, **kwargs)
        progs.append(self.prog)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    return progs


def _outcome(call, argv, capsys):
    try:
        code = call(list(argv))
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def _full_parser_main(argv):
    args = cli.build_parser().parse_args(cli._attach_values(argv))
    return args.func(args)


@pytest.mark.parametrize("argv", VALID, ids=" ".join)
def test_a_valid_call_builds_one_parser(argv, recorded, parsers):
    assert cli.main(argv) == 0
    assert parsers == [f"conelab {argv[0]}"]
    assert len(recorded) == 1


@pytest.mark.parametrize("argv", HELP + USAGE_ERRORS, ids=" ".join)
def test_help_and_usage_errors_may_build_the_full_parser(argv, recorded, parsers):
    with pytest.raises(SystemExit):
        cli.main(argv)
    assert not recorded
    # a command's own parser, then at most one full parser
    own = [f"conelab {argv[0]}"] if argv and argv[0] in cli._COMMANDS else []
    full = ["conelab", *(f"conelab {name}" for name in cli._COMMANDS)]
    assert parsers[: len(own)] == own
    assert parsers[len(own):] in ([], full)


@pytest.mark.parametrize("argv", VALID, ids=" ".join)
def test_a_valid_call_parses_as_the_full_parser_does(argv, recorded, capsys):
    assert _outcome(cli.main, argv, capsys) == (0, "", "")
    assert _outcome(_full_parser_main, argv, capsys) == (0, "", "")
    ours, full = recorded
    assert ours == full
    assert ours.command == argv[0]


@pytest.mark.parametrize("argv", HELP + USAGE_ERRORS, ids=" ".join)
def test_help_and_usage_errors_match_the_full_parser(argv, recorded, capsys):
    ours = _outcome(cli.main, argv, capsys)
    assert ours == _outcome(_full_parser_main, argv, capsys)
    assert ours[0] == (0 if argv in HELP else 2)
    assert ours[1 if argv in HELP else 2].startswith("usage: conelab")
    assert not recorded
