"""Record the golden output digests the benchmark checks every run against.

    PYTHONPATH=src python3 perfbench/record_golden.py

Writes perfbench/golden.json: the sha256 of each verify workload's stdout
and the digest of the response to every json-queries pool request.  Run it
only when the program's output is meant to change.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import queries
from workloads import CLI, VERIFY_ARGS


def main() -> None:
    golden: dict = {}
    for name, args in VERIFY_ARGS.items():
        done = subprocess.run([sys.executable, *CLI, "verify", *args], capture_output=True, check=True)
        golden[name] = hashlib.sha256(done.stdout).hexdigest()
        print(name, done.stdout.decode().strip(), file=sys.stderr)
    serve = queries.make_server()
    golden["json-queries"] = [queries.digest(serve(text)) for text in queries.make_pool()]
    path = Path(__file__).with_name("golden.json")
    path.write_text(json.dumps(golden, indent=0) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
