"""Byte-identity digest of the command line over a fixed set of commands.

Usage, from any directory:

    python3 tests/cli_digest.py > digest.txt

It writes the seeded models of every benchmark workload (``perfbench``'s
``write_models``, seeds 1-3) and zheng3 with its couplings times 2^40 to a
temporary directory and runs the bundled zheng3 fixture and each of those
models through ``secres.cli.main`` of this checkout, in one process.  Each
command prints one line: a label without paths, the exit code, and the
sha256 of its stdout and of its stderr.  Two checkouts whose outputs are
byte-identical print identical files, so a diff of two runs lists every
command whose output changed.
``tests/golden/cli_digest.txt`` holds the digest of the committed code, and
CI diffs a fresh run against it.  The file name keeps
pytest from collecting it; a run takes about 20 s.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
sys.dont_write_bytecode = True  # leave no cache files in perfbench/

import workloads  # noqa: E402
from secres.cli import bundled_model_path, main  # noqa: E402

SEEDS = (1, 2, 3)
PER_MODEL = (
    ("validate",),
    ("series", "--order", "30"),
    ("charpoly",),
    ("reconstruct", "--order", "12"),
    ("reconstruct", "--order", "30"),
    ("sweep", "--orders", "2,4,6,8,10", "--steps", "1001"),
    ("sweep", "--orders", "2,6,20", "--steps", "301",
     "--lambda-min", "-0.8", "--lambda-max", "0.8"),
    ("ep", "--orders", "6,20,40", "--exact"),
    ("ep", "--orders", "20"),
    ("ep", "--orders", "40"),
    ("ep", "--orders", "10,20,30,40"),
    ("table1",),
)
# the resummed columns overflow past the first coupling: the grid failure
# text; then malformed --orders values, which exit 2 naming the flag
ZHENG3_ONLY = (
    ("sweep", "--orders", "2,10", "--lambda-min", "0", "--lambda-max", "1e200",
     "--steps", "3"),
    ("ep", "--orders", "6,"),
    ("ep", "--orders", "4,4"),
    ("sweep", "--orders", "4,4"),
    ("sweep", "--orders", "2,x"),
)
# zheng3 with every coupling times 2^40, which scales every EP by 2^-40
# exactly: its EPs print far below 1 and must keep their partner groups
COUPLING_SCALE = 2.0 ** 40
SCALED_ONLY = (
    ("ep", "--orders", "6,10", "--exact"),
    ("table1",),
)


def digest(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out_sha, err_sha = (hashlib.sha256(text.getvalue().encode()).hexdigest()
                        for text in (out, err))
    return code, out_sha, err_sha


def main_digest() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        models = [("zheng3", bundled_model_path(), PER_MODEL + ZHENG3_ONLY)]
        data = json.loads(bundled_model_path().read_text())
        data["interaction"] = [[i, j, COUPLING_SCALE * v] for i, j, v in data["interaction"]]
        scaled = Path(tmp) / "zheng3-coupling2^40.json"
        scaled.write_text(json.dumps(data))
        models.append((scaled.stem, scaled, SCALED_ONLY))
        for workload in workloads.WORKLOADS:
            for seed in SEEDS:
                directory = Path(tmp) / f"{workload}-s{seed}"
                for path in workloads.write_models(workload, seed, directory):
                    models.append((f"{directory.name}-{path.stem}", path, PER_MODEL))
        for name, path, commands in models:
            for command in commands:
                code, out, err = digest([command[0], "--model", str(path), *command[1:]])
                print(f"{name} {' '.join(command)}  exit={code} out={out} err={err}")


if __name__ == "__main__":
    main_digest()
