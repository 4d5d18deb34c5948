"""Check that two qhodge source trees give byte-identical outputs.

    python scripts/compare_outputs.py PARENT_SRC CHANGE_SRC

Each argument is a directory that holds the `qhodge` package, such as the `src` directory
of a checkout.  Every entry of RUNS in tests/reference_runs.py, a pinned one with --out
naming its file, and a `transgress --order 1` on a dense target written with PARENT_SRC,
runs on each tree in a fresh interpreter and its own empty directory.  Each run must exit
with the code RUNS declares for it (0 for the dense one), and stdout, stderr, the exit code
and every file written are compared byte for byte.  Every run is reported: a `same:` line on
stdout, or a `differ:` line naming the first differing output on stderr, after an `exit code`
line on stderr for each tree whose code is not the declared one.  The script exits 0 when
every run gives its declared code and the trees agree, and 1 after the last run otherwise.
"""

import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))

from reference_runs import RUNS, label, run_python  # noqa: E402

# d of a real kmax-2 field: its 8704 entries cross the form writer's 4096-entry
# chunk boundary, which the committed two-mode targets never reach
DENSE_TARGET = ("import numpy as np; from qhodge import random_field; "
                "from qhodge.operators import exterior_d; "
                "field = random_field(2, np.random.default_rng(2024), real=True); "
                "exterior_d(field).save('dense.json')")


def outputs(src: Path, argv: list[str], cwd: Path) -> dict:
    """stdout, stderr, exit code and the bytes of each file written, for argv on src."""
    cwd.mkdir()
    proc = run_python(src, ["-m", "qhodge.cli", *argv], cwd)
    return {"exit code": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr,
            **{f"file {p.name}": p.read_bytes() for p in sorted(cwd.iterdir())}}


def first_difference(parent: dict, change: dict) -> str | None:
    return next((k for k in sorted({*parent, *change}) if parent.get(k) != change.get(k)), None)


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print("usage: python scripts/compare_outputs.py PARENT_SRC CHANGE_SRC", file=sys.stderr)
        return 2
    parent, change = (Path(a).resolve() for a in args)
    with tempfile.TemporaryDirectory() as tmp:
        proc = run_python(parent, ["-c", DENSE_TARGET], tmp)
        if proc.returncode != 0:
            sys.exit(f"cannot write the dense target:\n{proc.stderr.decode()}")
        dense = (["transgress", "--order", "1", "--input", f"{tmp}/dense.json"], 0, "out.json")
        failed = False
        for i, (command, code, name) in enumerate([*RUNS, dense]):
            if name is not None:
                command = [*command, "--out", name]
            runs = {side: outputs(src, command, Path(tmp, f"{i}-{side}"))
                    for side, src in (("parent", parent), ("change", change))}
            for side, out in runs.items():
                if out["exit code"] != code:
                    print(f"exit code {out['exit code']}, not {code}, on {side}: {label(command)}",
                          file=sys.stderr)
                    failed = True
            key = first_difference(*runs.values())
            if key is not None:
                print(f"differ: {label(command)}: {key}", file=sys.stderr)
                failed = True
            else:
                print(f"same: {label(command)}")
    return int(failed)


if __name__ == "__main__":
    sys.exit(main())
