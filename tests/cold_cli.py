"""Run every pinned output of golden.py against an installed orbigenus, as cold processes.

    python tests/cold_cli.py BIN

BIN is the orbigenus executable to test, e.g. the console script of a fresh
``pip install .``.  Each command runs once, from a temporary directory outside
the checkout that also holds the psi tables, and must exit 0 with empty stderr
and stdout of the pinned SHA-256.  Prints one FAIL line per command that does
not, and exits 1 if there is one, else 0; exits 2 if BIN is not an executable.
Standard library only.
"""
import hashlib
import os
import shutil
import subprocess
import sys
import tempfile

from golden import GOLDEN, argv, write_tables


def main(args: list) -> int:
    exe = shutil.which(args[0]) if len(args) == 1 else None
    if exe is None:
        print("usage: python tests/cold_cli.py BIN, BIN an orbigenus executable", file=sys.stderr)
        return 2
    exe = os.path.abspath(exe)
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        paths = write_tables(tmp)
        for command, digest in GOLDEN.items():
            run = subprocess.run([exe, *argv(command, paths)], cwd=tmp, capture_output=True)
            got = hashlib.sha256(run.stdout).hexdigest()
            wrong = [f"exit {run.returncode}"] if run.returncode else []
            if run.stderr:
                wrong.append(f"stderr {run.stderr.decode(errors='replace')!r}")
            if got != digest:
                wrong.append(f"sha256 {got}, pinned {digest}")
            if wrong:
                failed += 1
                print(f"FAIL {command}: {'; '.join(wrong)}")
    print(f"{len(GOLDEN) - failed} of {len(GOLDEN)} pinned outputs match")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
