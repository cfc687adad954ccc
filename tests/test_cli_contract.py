"""The command-line contract as a property.

Every argv built from ``build_parser()``'s own subcommands, flags and choices
must end in a documented exit code: ``main`` returns it, or argparse refuses
the argv with ``SystemExit(2)``.  No other exception may escape.  Each
example stays cheap: one worker, small expansions and small ranges, and
files only under ``tmp_path``.
"""

import argparse

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from zonalkit import cli

EXIT_CODES = {"expand": {0, 2, 3}, "eval": {0, 2, 3}, "coeff": {0, 2, 3}, "table": {0, 2, 3},
              "verify": {0, 1, 2, 3, 4}}

# empty, not a number, a zero denominator, non-finite, beyond the float range, a rational
MALFORMED = st.sampled_from(("", "x", "1/0", "nan", "inf", "1e400", "-1/2"))

# stands for the example's tmp_path until the argv is run
TMP = "{tmp}"


def _mostly(good: st.SearchStrategy[str]) -> st.SearchStrategy[str]:
    """``good`` seven times in eight and malformed text otherwise, so that most
    examples get past the parser to the command."""
    return st.integers(0, 7).flatmap(lambda i: MALFORMED if i == 0 else good)


def _capped(top: int) -> st.SearchStrategy[str]:
    return _mostly(st.integers(-2, top).map(str))


VALUE = _capped(5)
RATIONAL = _mostly(st.one_of(st.integers(-2, 5).map(str),
                             st.sampled_from(("1/2", "3/2", "-1/4", "0.3", "0.5", "-0.5"))))
TERMS = st.one_of(_capped(5), st.just("1000"))


# (command, dest) -> the values a flag may take, where VALUE would be too costly or
# would write outside tmp_path; the flags in FORCED are always passed, so that no
# example starts a pool or runs a default range
LIMITS = {
    ("verify", "threads"): st.just("1"),
    ("verify", "nmax"): _capped(3),
    ("verify", "kmax"): _capped(3),
    ("verify", "mmax"): _capped(3),
    ("verify", "samples"): st.one_of(_capped(5), st.just("100")),
    ("verify", "json"): st.sampled_from((f"{TMP}/report.json", f"{TMP}/missing/report.json",
                                         "-")),
    ("table", "kmax"): _capped(3),
    ("table", "out"): st.sampled_from((f"{TMP}/table.csv", f"{TMP}/missing/table.csv")),
    ("table", "max_terms"): TERMS,
    ("expand", "max_terms"): TERMS,
    ("eval", "max_terms"): TERMS,
}
FORCED = {("verify", "threads"), ("verify", "nmax"), ("verify", "kmax"), ("verify", "mmax"),
          ("verify", "samples"), ("expand", "max_terms"), ("eval", "max_terms")}

PARSER = cli.build_parser()
COMMANDS = next(action.choices for action in PARSER._actions
                if isinstance(action, argparse._SubParsersAction))


def _values(command: str, action: argparse.Action, dim: int) -> st.SearchStrategy[str]:
    if action.dest in ("x", "y"):  # eval's points, both with dim coordinates
        return st.lists(RATIONAL, min_size=dim, max_size=dim).map(",".join)
    if command == "eval" and action.dest == "n":  # often the points' R^(n+1)
        return st.one_of(st.just(str(dim - 1)), VALUE)
    if (command, action.dest) in LIMITS:
        return LIMITS[command, action.dest]
    if action.choices is not None:
        return _mostly(st.sampled_from(tuple(action.choices)))
    return RATIONAL if action.type in (None, float) else VALUE


@st.composite
def argvs(draw) -> list[str]:
    command = draw(st.sampled_from(sorted(COMMANDS)))
    argv = [command]
    dim = draw(st.integers(0, 6))
    for action in COMMANDS[command]._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        if not action.option_strings:  # a positional: the coefficient or the table kind
            argv.append(draw(_values(command, action, dim)))
            continue
        flag = action.option_strings[0]
        # a required flag is left out one time in ten; an optional one half the time
        keep = st.integers(0, 9).map(bool) if action.required else st.booleans()
        if (command, action.dest) not in FORCED and not draw(keep):
            continue
        argv.append(flag if action.nargs == 0 else f"{flag}={draw(_values(command, action, dim))}")
    return argv


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=argvs())
@example(argv=["coeff", "betaTilde", "--m=0", "--k=0"])  # the printed form divides by 0
@example(argv=["coeff", "beta", "--m=1", "--k=0", "--lambda=1e400"])  # beyond float range
def test_every_argv_exits_with_a_documented_code(tmp_path, argv):
    argv = [arg.replace(TMP, str(tmp_path)) for arg in argv]
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse refused the argv
        assert exc.code == 2, argv
        return
    assert code in EXIT_CODES[argv[0]], argv
