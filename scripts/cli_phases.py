"""Where a CLI run's wall time goes: interpreter start, import, main and exit.

    python scripts/cli_phases.py                      # diagnose on 2e5 simulated rows
    python scripts/cli_phases.py --rows 2000 --reps 3
    python scripts/cli_phases.py --input d.csv --reps 21 fit --model nonresponse

Runs the CLI argv (default: a conic diagnose with JSON output) REPS times,
each in a fresh interpreter of the package under this checkout's src/,
through a launcher like the benchmark's.  The launcher stamps the wall clock
on its first line, after importing implicitreg.cli and after main returns;
the parent stamps it before the spawn and after reaping the child.  The
phases are the gaps between those stamps:

    start   spawn to the launcher's first line (interpreter start-up)
    import  `from implicitreg.cli import main`
    main    main(argv): read, fit, report
    exit    main's return to the child being reaped (interpreter teardown)

With no --input the bench ellipse, Ellipse(3, -2, 2, 1, 0.5) with noise
0.05, is simulated by the CLI to a temporary CSV of --rows rows.  Medians
and quartiles are printed in milliseconds; no timing is asserted.
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
DEFAULT_ARGV = ["diagnose", "--model", "nonresponse", "--terms", "x,y,xy,x2,y2",
                "--output", "json"]
PHASES = ("start", "import", "main", "exit")

# The child's stamps go to the file named by argv[1] once main has returned,
# so writing them is part of the exit phase.
LAUNCHER = """\
import time
t_start = time.time()
import sys
from implicitreg.cli import main
t_import = time.time()
try:
    code = main(sys.argv[2:])
finally:
    t_main = time.time()
    with open(sys.argv[1], "w") as fh:
        fh.write(f"{t_start!r} {t_import!r} {t_main!r}")
sys.exit(code)
"""


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")])))


def simulate(path: str, rows: int) -> None:
    subprocess.run([sys.executable, "-m", "implicitreg.cli", "simulate", "--kind", "ellipse",
                    "--params", "3,-2,2,1,0.5", "--n", str(rows), "--noise", "0.05",
                    "--seed", "1", "--out-file", path], env=child_env(), check=True)


def one_run(argv: list[str], workdir: str) -> dict[str, float]:
    """The four phases of one fresh CLI process, in seconds."""
    stamps, out = os.path.join(workdir, "stamps"), os.path.join(workdir, "stdout")
    with open(out, "w") as fh:
        t_spawn = time.time()
        proc = subprocess.run([sys.executable, "-c", LAUNCHER, stamps] + argv, stdout=fh,
                              stderr=subprocess.PIPE, env=child_env())
        t_reaped = time.time()
    if proc.returncode:
        sys.exit(f"cli_phases: the CLI exited {proc.returncode}: {proc.stderr.decode()}")
    with open(stamps) as fh:
        t_start, t_import, t_main = map(float, fh.read().split())
    return {"start": t_start - t_spawn, "import": t_import - t_start,
            "main": t_main - t_import, "exit": t_reaped - t_main}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--input", help="CSV to pass as --input; default: simulate one")
    parser.add_argument("--rows", type=int, default=200_000,
                        help="rows of the simulated CSV (default 200000)")
    parser.add_argument("--reps", type=int, default=21, help="fresh processes (default 21)")
    parser.add_argument("cli", nargs=argparse.REMAINDER,
                        help="CLI argv without --input (default: %(default)s)")
    args = parser.parse_args(argv)
    if args.reps < 1 or args.rows < 1:
        parser.error("--reps and --rows must be at least 1")
    cli = args.cli or DEFAULT_ARGV
    with tempfile.TemporaryDirectory() as workdir:
        path = args.input
        if path is None:
            path = os.path.join(workdir, "ellipse.csv")
            simulate(path, args.rows)
        runs = [one_run(cli + ["--input", path], workdir) for _ in range(args.reps)]
    print(f"implicitreg {' '.join(cli)} --input {args.input or f'<{args.rows} simulated rows>'}")
    print(f"{args.reps} fresh processes, Python {sys.version.split()[0]}; milliseconds")
    print(f"{'phase':>8} {'median':>9} {'q1':>9} {'q3':>9}")
    for name in PHASES + ("total",):
        values = [sum(r.values()) if name == "total" else r[name] for r in runs]
        q1, med, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                       else [values[0]] * 3)
        print(f"{name:>8} {1e3 * med:9.1f} {1e3 * q1:9.1f} {1e3 * q3:9.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
