"""Print one hash of the CLI output of each benchmark workload at seeds 1-3.

    python3 tools/perfbench_hashes.py [WORKLOAD ...]

For each workload of ``perfbench/workloads.py`` (all of them when none
is named) and each seed from 1 to 3, every problem of one pass runs in
this process through ``slicegb.cli.main``, and the line printed holds
the first 16 hex digits of the sha256 over ``name\\0exit\\0stdout\\0`` of
the problems in order.  Equal lines at two commits mean that every
problem kept its exit code and its stdout.  The inputs go to a temporary
directory; ``perfbench/`` is only read.
"""

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout

import workloads  # noqa: E402
from slicegb import cli  # noqa: E402

SEEDS = (1, 2, 3)


def output_hash(workload: str, seed: int) -> str:
    digest = hashlib.sha256()
    with tempfile.TemporaryDirectory() as directory:
        for problem in workloads.WORKLOADS[workload](seed, Path(directory)):
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(problem.argv)
            digest.update(f"{problem.name}\0{code}\0{out.getvalue()}\0".encode())
    return digest.hexdigest()[:16]


def main(names) -> None:
    for name in names or workloads.WORKLOADS:
        print(name, *(output_hash(name, seed) for seed in SEEDS))


if __name__ == "__main__":
    main(sys.argv[1:])
