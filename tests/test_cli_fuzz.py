"""CLI fuzz property: every argv the parser accepts ends in a documented exit
code, a failure is one `error:` line on stderr, and a JSON report parses
strictly.

`main()` runs in-process, so the pytest setting `error::RuntimeWarning`
turns a leaked numpy warning into an internal error (exit 5), which the
property then reports.
"""

import contextlib
import io
import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from implicitreg.cli import EXIT_DEGENERATE, EXIT_DOMAIN, EXIT_INPUT, EXIT_OK, main

SIM_KINDS = {"line": 2, "circle": 3, "ellipse": 5, "normal": 2, "uniform": 2}   # parameters


def mix(plain, odd):
    """Draws mostly from plain, sometimes from odd."""
    return st.sampled_from(plain * 3 + odd)


PLAIN_TOKENS = ["x", "y", "xy", "x2", "y2"]
PLAIN_CELLS = ["0", "1", "-1", "2.5", "-3.75", "4", "0.125", "7"]
MODELS = mix(["nonresponse", "standard", "univariate", "rotation:x", "rotation:y"],
             ["rotation:xy", "rotation:", "rotation:1", "bogus"])
TOKENS = mix(PLAIN_TOKENS, ["1", "x^0.5", "y^-1", "x^99999", "", "x^3", "x*y^2"])
NUMBERS = mix(["0", "1", "-2.5", "3", "0.5", "2"],
              ["nan", "inf", "-inf", "1e308", "-1e308", "1e-308", "1e-320", ""])
CELLS = mix(PLAIN_CELLS, ["1e200", "-1e200", "1e-200", "nan", "inf", "", "abc"])
HEADERS = mix(["x,y", "y,x", "x,y,z"], ["x", "a,b", "x,x"])


@st.composite
def term_lists(draw):
    """A comma-separated term list: possibly one term, an empty token or a
    repeat."""
    return ",".join(draw(st.lists(TOKENS, min_size=1, max_size=5)))


@st.composite
def number_lists(draw, size=None):
    """Comma-separated numbers: mostly size of them, else any count from one
    (so also a single empty value)."""
    if size is None or draw(st.integers(0, 4)) == 0:
        return ",".join(draw(st.lists(NUMBERS, min_size=1, max_size=6)))
    return ",".join(draw(st.lists(NUMBERS, min_size=size, max_size=size)))


@st.composite
def csv_bodies(draw):
    """Small CSV files: empty, header only, 1-4 rows with constant or
    collinear columns, values near 1e+-200 and nan cells, bytes that are not
    UTF-8, or an open quote."""
    kind = draw(st.sampled_from(["rows"] * 6 + ["empty", "header", "latin1", "quote"]))
    if kind == "empty":
        return b""
    if kind == "latin1":
        return b"x,y\n1,2\n5,\xe96\n"
    if kind == "quote":
        return b'x,y\n1,2\n"3,4\n'
    header = draw(HEADERS)
    if kind == "header":
        return (header + "\n").encode()
    width = len(header.split(","))
    n = draw(st.integers(1, 4))
    shape = draw(st.sampled_from(["free", "free", "constant", "collinear"]))
    rows = []
    for i in range(n):
        cells = draw(st.lists(CELLS, min_size=width, max_size=width))
        if shape == "constant":
            cells[-1] = "5"
        elif shape == "collinear" and width > 1:
            cells[0], cells[1] = str(i + 1), str(2 * (i + 1))
        rows.append(",".join(cells))
    return (header + "\n" + "\n".join(rows) + "\n").encode()


@st.composite
def clean_requests(draw, command):
    """(request flags, CSV body) of a request that reaches its fit: a model
    with its own flags, distinct plain terms with a rotation's pivot among
    them, and an x,y file of plain cells, at least two rows more than terms."""
    models = {"fit": ["nonresponse", "rotation", "standard", "univariate"],
              "diagnose": ["nonresponse", "rotation", "standard"], "rotate-all": [None]}
    model = draw(st.sampled_from(models[command]))
    term_list = draw(st.lists(st.sampled_from(PLAIN_TOKENS), min_size=2, max_size=5,
                              unique=True))
    if model in ("standard", "univariate"):
        flags = [f"--model={model}"]
    else:
        flags = [f"--terms={','.join(term_list)}"]
        if model is not None:
            pivot = draw(st.sampled_from(term_list))
            flags.append(f"--model={model}" + (f":{pivot}" if model == "rotation" else ""))
    n = len(term_list) + draw(st.integers(2, 6))
    rows = [",".join(draw(st.lists(st.sampled_from(PLAIN_CELLS), min_size=2, max_size=2)))
            for _ in range(n)]
    return flags, ("x,y\n" + "\n".join(rows) + "\n").encode()


@st.composite
def argvs(draw):
    """(argv, CSV body, output format, whether the report goes to --out-file)."""
    command = draw(st.sampled_from(["fit", "diagnose", "rotate-all", "simulate", "convert"]))
    output = draw(st.sampled_from(["text", "json"]))
    body = None
    if command == "simulate":
        kind = draw(st.sampled_from(sorted(SIM_KINDS)))
        argv = ["simulate", "--kind", kind, f"--params={draw(number_lists(SIM_KINDS[kind]))}",
                f"--n={draw(st.integers(-1, 200))}",
                f"--seed={draw(st.integers(-1, 3))}",
                f"--noise={draw(st.sampled_from(['0', '0.05', '1e308']))}"]
        output = "text"
    elif command == "convert":
        argv = ["convert", "--direction",
                draw(st.sampled_from(["beta-from-alpha", "alpha-from-beta"])),
                f"--values={draw(number_lists())}", "--output", output]
    elif draw(st.booleans()):
        flags, body = draw(clean_requests(command))
        argv = [command, "--input", "{dir}/in.csv", "--output", output, *flags]
    else:
        argv = [command, "--input", "{dir}/in.csv", "--output", output]
        model = None if command == "rotate-all" else draw(MODELS)
        # A term model sometimes goes without --terms (and reads x,y).  A
        # model refuses a flag it does not read, a request error tested
        # apart, so each gets only its own flags and reaches its fit:
        # standard reads --response-col, the others --y-col.
        if model is None or model not in ("standard", "univariate") and draw(st.integers(0, 4)):
            argv.append(f"--terms={draw(term_lists())}")
        if model is not None:
            argv.append(f"--model={model}")
        column = "--response-col" if model == "standard" else "--y-col"
        argv.append(f"{column}={draw(st.sampled_from(['y'] * 4 + ['z', 'x']))}")
    to_file = draw(st.booleans())
    return argv, body if body is not None else draw(csv_bodies()), output, to_file


def strict(text):
    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")
    return json.loads(text, parse_constant=reject)


@settings(derandomize=True, deadline=None, max_examples=1000,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=argvs())
def test_cli_exits_cleanly(tmp_path, case):
    argv, body, output, to_file = case
    (tmp_path / "in.csv").write_bytes(body)
    out_file = tmp_path / "out.txt"
    out_file.unlink(missing_ok=True)
    missing = [a.replace("in.csv", "missing.csv").format(dir=tmp_path) for a in argv]
    argv = [a.format(dir=tmp_path) for a in argv]
    if to_file:
        argv += ["--out-file", str(out_file)]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    err = stderr.getvalue()
    if argv[0] in ("fit", "diagnose", "rotate-all"):
        # A request refused without its input is refused the same with it.
        stderr_missing = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr_missing):
            code_missing = main(missing)
        if "No such file or directory" not in stderr_missing.getvalue():
            assert (code, err) == (code_missing, stderr_missing.getvalue()), argv
    assert code in {EXIT_OK, EXIT_INPUT, EXIT_DEGENERATE, EXIT_DOMAIN}, (argv, err)
    assert "Traceback" not in err
    if code != EXIT_OK:
        assert err.startswith("error:") and len(err.splitlines()) == 1, (argv, err)
        return
    assert err == "", (argv, err)
    text = out_file.read_text() if to_file else stdout.getvalue()
    if output == "json":
        strict(text)
