"""Check that two qhodge source trees give byte-identical outputs.

    python scripts/compare_outputs.py PARENT_SRC CHANGE_SRC

Each argument is a directory that holds the `qhodge` package, such as the
`src` directory of a checkout.  The script writes seeded kmax-2 transgression
targets with PARENT_SRC, then runs every command in COMMANDS on each tree in
a fresh interpreter and its own empty directory.  It compares stdout, stderr,
the exit code and every file a command writes (its --out) byte for byte.  It
exits 0 when the trees agree and 1 at the first difference, which it names.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path

THETA = "0.13,0.71,0.29,0.9"

# seeded targets: d of a real field, d d_J of one and d d_I d_J d_K of a real 0-form
TARGETS = """
import numpy as np
from qhodge import random_field
from qhodge.operators import exterior_d, twisted_d
from qhodge.transgression import quartic_differential
rng = np.random.default_rng(2024)
exterior_d(random_field(2, rng, real=True)).save("order1.json")
exterior_d(twisted_d(random_field(2, rng, real=True), "J")).save("order2.json")
quartic_differential(random_field(2, rng, degree=0, real=True)).save("order4.json")
"""

COMMANDS = [
    ["verify", "--seed", "3", "--theta", THETA],
    ["verify", "--kmax", "2", "--fields", "1", "--seed", "11"],
    ["torsion"],
    ["torsion", "--theta", "0.5,0,0,0"],
    ["torsion", "--theta", THETA],
    ["lapl-constant"],
    ["transgress", "--order", "1", "--input", "{targets}/order1.json", "--out", "out.json"],
    ["transgress", "--order", "2", "--structure", "J", "--input", "{targets}/order2.json",
     "--out", "out.json"],
    ["transgress", "--order", "4", "--input", "{targets}/order4.json", "--out", "out.json"],
    ["transgress", "--order", "3", "--input", "{targets}/order1.json", "--out", "out.json"],
    ["transgress", "--order", "2", "--structure", "X", "--input", "{targets}/order2.json",
     "--out", "out.json"],
    ["--help"],
    ["verify", "--help"],
    ["transgress", "--help"],
    ["torsion", "--help"],
    ["lapl-constant", "--help"],
]


def _env(src: Path) -> dict:
    return dict(os.environ, PYTHONPATH=str(src))


def run(src: Path, argv: list[str], cwd: Path) -> dict:
    """stdout, stderr, exit code and the bytes of each file written, for argv on src."""
    proc = subprocess.run([sys.executable, "-m", "qhodge.cli", *argv], cwd=cwd, env=_env(src),
                          capture_output=True, timeout=600)
    files = {p.name: p.read_bytes() for p in sorted(cwd.iterdir())}
    return {"exit code": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr,
            **{f"file {name}": data for name, data in files.items()}}


def first_difference(parent: dict, change: dict) -> str | None:
    for key in sorted(set(parent) | set(change)):
        if parent.get(key) != change.get(key):
            return key
    return None


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print("usage: python scripts/compare_outputs.py PARENT_SRC CHANGE_SRC", file=sys.stderr)
        return 2
    parent, change = (Path(a).resolve() for a in args)
    with tempfile.TemporaryDirectory() as tmp:
        targets = Path(tmp, "targets")
        targets.mkdir()
        subprocess.run([sys.executable, "-c", TARGETS], cwd=targets, env=_env(parent),
                       check=True, timeout=600)
        for i, template in enumerate(COMMANDS):
            command = [a.format(targets=targets) for a in template]
            outputs = []
            for side, src in (("parent", parent), ("change", change)):
                cwd = Path(tmp, f"{i}-{side}")
                cwd.mkdir()
                outputs.append(run(src, command, cwd))
            label = " ".join(template).replace("{targets}/", "")
            key = first_difference(*outputs)
            if key is not None:
                print(f"differ: qhodge {label}: {key}", file=sys.stderr)
                return 1
            print(f"same: qhodge {label}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
