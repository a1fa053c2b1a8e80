#!/usr/bin/env python3
"""Record the output digests that the benchmark's checks compare against.

    python3 perfbench/record_digests.py

Runs the CLI on the proxy product and on every stack of the box-stack pool,
and writes the SHA-256 of each output file to ``digests.json``. Outputs
must stay byte-identical from commit to commit, so re-record only in a
change that means to alter what ``plan`` or ``matrices`` write, and say so
in that change.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
import time
from pathlib import Path

from run import HARD_LIMIT_S, ROOT, Runner
from workloads import DIGESTS_PATH, NO_DIGEST, PROXY_SEQUENCES, STACK_POOL, BoxStack, Proxy, sha256


def main() -> int:
    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="digests-", dir=work_root))
    digests = {"proxy": {}, "box_stack": {}}
    try:
        runner = Runner(work, time.monotonic() + 100 * HARD_LIMIT_S)

        def output(op) -> str:
            runner.run_op(op)
            return sha256(op.out.read_bytes())

        proxy = Proxy(work, 0, runner.cli)
        proxy.generate()
        for i, sequence in enumerate(PROXY_SEQUENCES):
            digests["proxy"][f"plan {sequence}"] = output(proxy.op(i))
        stacks = BoxStack(work, 0, runner.cli)
        for index in range(STACK_POOL):
            digests["box_stack"][str(index)] = output(stacks.op(index))
            print(f"stack {index}: {digests['box_stack'][str(index)]}", flush=True)
        for problem in runner.failures:
            if NO_DIGEST not in problem:
                print(f"check failed: {problem}", file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    DIGESTS_PATH.write_text(json.dumps(digests, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
