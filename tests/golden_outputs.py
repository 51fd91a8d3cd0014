"""The record: the committed bytes of every command, and the point ledger.

    PYTHONPATH=src python tests/golden_outputs.py --diff    # what moved, in every command
    PYTHONPATH=src python tests/golden_outputs.py --write   # rewrite the record and the ledger

Each command of COMMANDS runs through ``photongas.cli.main`` in this process.
Every file it writes, and its stdout where it prints one, is kept under
tests/golden_outputs/ by the name that COMMANDS gives it.  Each file a command
writes holds FILLER, longer than any output, before the command runs, so the
record goes through the writer's rewrite in place, and a tail of the old bytes
left past the new end shows in it.  The point ledger, tests/golden_cells.csv,
keeps what ``point --format csv`` prints at a fixed grid of states
(tests/golden_cells.py).  A Tier-1 test compares each.

``--diff`` prints what moved: for a CSV, per column, how many cells moved, the
largest relative move and the x of its row; for any other file, the first
line that differs; every file missing or extra; and the ledger's own diff.  It
prints nothing, and exits 0, when nothing moved; else it exits 1.  A change
that moves bytes on purpose rewrites the record with ``--write``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import os
import sys
import tempfile
from pathlib import Path

from photongas.cli import main

import golden_cells

DIR = Path(__file__).resolve().with_suffix("")

# Each argv, with the file its stdout is kept in, or None where it prints
# nothing.  The argument after --out or --svg names a file the command writes,
# and is kept under that name.  The x sweep crosses every band of the series
# route; each point format is kept once, csv through --out.
COMMANDS = (
    (("sweep", "--mass", "1eV", "--variable", "x", "--x-min", "1e-6", "--x-max", "100",
      "--points", "60", "--spacing", "log", "--out", "sweep_x.csv"), None),
    (("sweep", "--mass", "1eV", "--variable", "temperature"), "sweep_temperature.csv"),
    (("point", "--mass", "1eV", "--temp", "5800"), "point.txt"),
    (("point", "--mass", "1eV", "--temp", "5800", "--format", "csv", "--out", "point.csv"), None),
    (("point", "--mass", "1eV", "--temp", "5800", "--format", "json"), "point.json"),
    (("figure", "mean-speed", "--out", "mean_speed.csv", "--svg", "mean_speed.svg"), None),
    (("figure", "radiance"), "radiance.csv"),
    (("validate",), "validate.txt"),
)
FILLER = b"0" * 65536


def outputs() -> dict[str, bytes]:
    """The bytes of every output of COMMANDS, by file name."""
    files = {}
    with tempfile.TemporaryDirectory() as scratch:
        for argv, stdout_name in COMMANDS:
            argv = [os.path.join(scratch, arg) if flag in ("--out", "--svg") else arg
                    for flag, arg in zip(("", *argv), argv)]
            for flag, path in zip(argv, argv[1:]):
                if flag in ("--out", "--svg"):
                    Path(path).write_bytes(FILLER)
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main(argv)
            if code != 0:
                raise RuntimeError(f"photongas {' '.join(argv)} exited {code}")
            if stdout_name is not None:
                files[stdout_name] = out.getvalue().encode()
            elif out.getvalue():
                raise RuntimeError(f"photongas {' '.join(argv)} printed to stdout")
        for name in sorted(os.listdir(scratch)):
            files[name] = Path(scratch, name).read_bytes()
    return files


def read() -> dict[str, bytes]:
    """The committed bytes, by file name."""
    return {path.name: path.read_bytes() for path in sorted(DIR.iterdir())}


def write() -> None:
    """Rewrite tests/golden_outputs/ and the ledger."""
    files = outputs()
    for name, data in files.items():
        if len(data) >= len(FILLER):  # a tail of it left, or an output it no longer covers
            raise RuntimeError(f"{name} is no shorter than the filler written before it")
    DIR.mkdir(exist_ok=True)
    for path in DIR.iterdir():
        path.unlink()
    for name, data in files.items():
        (DIR / name).write_bytes(data)
    golden_cells.write()


def _moved(name: str, old: bytes, new: bytes) -> list[str]:
    """Lines that say what moved in the file name, whose bytes old and new differ."""
    if name.endswith(".csv"):
        (old_header, *old_rows), (new_header, *new_rows) = (
            [line.split(",") for line in data.decode().splitlines()] for data in (old, new))
        if old_header == new_header and len(old_rows) == len(new_rows):
            moved = golden_cells.cells_moved(new_header, zip(old_rows, new_rows), len(new_rows))
            if moved:
                return moved
    lines = (data.decode().splitlines(keepends=True) for data in (old, new))
    for number, (was, now) in enumerate(itertools.zip_longest(*lines), 1):
        if was != now:
            return [f"line {number} was {was!r}, is now {now!r}"]
    return []


def diff(committed: dict[str, bytes], now: dict[str, bytes]) -> list[str]:
    """Lines that say what moved from the committed bytes to now's, file by file."""
    lines = [f"{name}: committed, but no command writes it" for name in committed
             if name not in now]
    lines += [f"{name}: written, but not committed" for name in now if name not in committed]
    for name in sorted(committed.keys() & now.keys()):
        if committed[name] != now[name]:
            lines += [f"{name}: {line}" for line in _moved(name, committed[name], now[name])]
    return lines


def main_script() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    action = parser.add_mutually_exclusive_group(required=True)
    action.add_argument("--diff", action="store_true", help="print what moved; exit 1 if any")
    action.add_argument("--write", action="store_true",
                        help=f"rewrite {DIR.name}/ and {golden_cells.PATH.name}")
    if parser.parse_args().write:
        write()
        return 0
    lines = diff(read(), outputs())
    lines += [f"{golden_cells.PATH.name}: {line}"
              for line in golden_cells.diff(golden_cells.read())]
    print("\n".join(lines), end="\n" if lines else "")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main_script())
