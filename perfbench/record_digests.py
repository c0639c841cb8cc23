"""Record the stdout digest of every command any seed can issue.

    python3 perfbench/record_digests.py

Run at the commit whose outputs are the reference; writes digests.json.
Each output must also pass the independent checks, or nothing is written.
"""

import json
import shutil
import sys
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from prefixcode import cli  # noqa: E402

import workloads  # noqa: E402


def main() -> int:
    digests = {}
    work = HERE / "out" / "record"
    shutil.rmtree(work, ignore_errors=True)
    try:
        for name in workloads.WORKLOADS:
            plan = workloads.universe(name)
            workloads.write_inputs(plan, work)
            checker = workloads.Checker(plan)
            for op in plan.ops:
                out = StringIO()
                with redirect_stdout(out):
                    code = cli.run([a.replace(workloads.WORK, str(work)) for a in op.argv])
                stdout = out.getvalue()
                problem = (f"exit {code}" if code else
                           checker(op, json.loads(stdout)["results"]))
                if problem:
                    print(f"{op.key}: {problem}", file=sys.stderr)
                    return 1
                digests[op.key] = workloads.output_digest(stdout, work, op.output)
            print(f"{name}: {len(plan.ops)} commands", file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    (HERE / "digests.json").write_text(json.dumps(digests, indent=0, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
