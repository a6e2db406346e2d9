"""Write reference.json: the sha256 of every benchmark invocation's stdout.

    python3 perfbench/record_reference.py

Run it from a source checkout at a commit whose outputs are known good.  It
runs each distinct invocation of every workload once, for every value the
seed can pick, and refuses to record a nonzero exit.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
import time
from pathlib import Path

import run


def main() -> int:
    reference: dict[str, str] = {}
    run.OUT_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="record-", dir=run.OUT_DIR))
    try:
        for name, spec in run.WORKLOADS.items():
            templates = (*spec["first"], *spec["shuffled"])
            uses_n = any("{n}" in arg for template in templates for arg in template)
            for n in run.F_PARAMS if uses_n else run.F_PARAMS[:1]:
                (work / f"{name}-{n}").mkdir()
                runner = run.Runner(name, 0, work / f"{name}-{n}", {}, time.perf_counter() + 3600)
                runner.n = n
                pass_dir = runner.new_pass_dir()
                for template in templates:
                    key, proc, _ = runner.execute(template, pass_dir)
                    if proc.code != 0:
                        print(f"error: {key}: exit code {proc.code}", file=sys.stderr)
                        return 1
                    digest = run.output_digest(proc.stdout)
                    if reference.setdefault(key, digest) != digest:
                        print(f"error: {key}: output differs between runs", file=sys.stderr)
                        return 1
                    print(f"{proc.wall_s:7.2f}s  {key}", file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    text = json.dumps(reference, indent=1, sort_keys=True) + "\n"
    (run.HERE / "reference.json").write_text(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
