"""The committed bytes of the commands whose output is more than one point:
both figures with their default flags, and validate.

    PYTHONPATH=src python tests/golden_outputs.py --write   # rewrite tests/golden_outputs/

Each command runs through ``photongas.cli.main`` in this process.  Every file
it writes, and its stdout where it prints one, is kept under
tests/golden_outputs/ by the name that COMMANDS gives it; a Tier-1 test
compares every file byte for byte.  A change that moves bytes on purpose
rewrites them with ``--write``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import sys
import tempfile
from pathlib import Path

from photongas.cli import main

DIR = Path(__file__).resolve().with_suffix("")

# Each argv, with the file its stdout is kept in, or None where it prints
# nothing.  An argument that ends in .csv or .svg names a file the command
# writes, and is kept under that name.
COMMANDS = (
    (("figure", "mean-speed", "--out", "mean_speed.csv", "--svg", "mean_speed.svg"), None),
    (("figure", "radiance"), "radiance.csv"),
    (("validate",), "validate.txt"),
)


def outputs() -> dict[str, bytes]:
    """The bytes of every output of COMMANDS, by file name."""
    files = {}
    with tempfile.TemporaryDirectory() as scratch:
        for argv, stdout_name in COMMANDS:
            argv = [os.path.join(scratch, arg) if arg.endswith((".csv", ".svg")) else arg
                    for arg in argv]
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
    DIR.mkdir(exist_ok=True)
    for path in DIR.iterdir():
        path.unlink()
    for name, data in outputs().items():
        (DIR / name).write_bytes(data)


def main_script() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write", action="store_true", required=True,
                        help=f"rewrite {DIR.name}/")
    parser.parse_args()
    write()
    return 0


if __name__ == "__main__":
    sys.exit(main_script())
