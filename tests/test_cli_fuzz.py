"""Property test of the whole command line, ``cli.main``, on the default metric.

Every argument vector, valid or not, ends in an exit code from 0 to 3: a
usage or configuration error is 2 with one message, never a traceback and
never an internal error.  Valid orders stay at 8 or below to keep each run
short.
"""

import contextlib
import io

from hypothesis import example, given, settings
from hypothesis import strategies as st

from admflux import analysis, cli

JUNK = st.text(max_size=4)
NUMBER = st.one_of(st.integers(-3, 10**5).map(str), st.floats().map(repr))
#: Orders out of range, or in range and at most 8: higher valid orders only cost time.
ORDER = st.one_of(
    st.integers(2, 8), st.integers(-5, 8), st.integers(analysis.MAX_ORDER + 1, 120)
).map(str) | JUNK
#: Increasing schedules outside the default metric's inner radius, or anything.
RADII = st.one_of(
    st.lists(st.integers(2, 10**4), min_size=4, max_size=6, unique=True).map(sorted),
    st.lists(st.one_of(NUMBER, NUMBER, JUNK), max_size=6),
).map(lambda entries: ",".join(map(str, entries)))
FORMAT = st.sampled_from(["csv", "json"]) | JUNK


@settings(max_examples=100, deadline=None)
@given(
    command=st.sampled_from(sorted(cli.SUBCOMMAND_FUNCTIONALS)),
    order=ORDER,
    radii=st.none() | RADII,
    fmt=st.none() | FORMAT,
    out=st.sampled_from(["fresh", "fresh", "file", "under a file"]),
)
@example(command="decay", order="4", radii=None, fmt=None, out="file")
@example(command="decay", order="4", radii=None, fmt=None, out="under a file")
def test_every_command_line_exits_zero_to_three(tmp_path_factory, command, order, radii, fmt, out):
    root = tmp_path_factory.mktemp("cli")
    taken = root / "taken"
    taken.write_text("", encoding="utf-8")
    out_dir = {"fresh": root / "out", "file": taken, "under a file": taken / "sub"}[out]
    argv = [command, f"--order={order}", f"--out={out_dir}"]
    if radii is not None:
        argv.append(f"--radii={radii}")
    if fmt is not None:
        argv.append(f"--format={fmt}")
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejected the command line
            code = exc.code
    assert code in (0, 1, 2, 3), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue() and "internal error" not in err.getvalue(), argv
