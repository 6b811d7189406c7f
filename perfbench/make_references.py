"""Record the reference ``results`` of every pool op of every workload and data seed.

Run from the root of a checkout of the commit the references should come
from:

    python3 perfbench/make_references.py

It rewrites perfbench/references.json as a whole, so the commit the file
names is the one every entry came from.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import run
import workloads


def main() -> int:
    sys.path.insert(0, str(run.ROOT / "src"))
    from secwire import cli

    ops = {}
    run.OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="references-", dir=run.OUT_DIR))
    try:
        for data_seed in workloads.DATA_SEEDS:
            for wl in workloads.WORKLOADS.values():
                for cls, variant in wl.pool_ops():
                    argv = workloads.write_op(workdir, wl, cls, variant, data_seed)
                    _, code, text = run.run_op(cli, argv)
                    key = run.reference_key(data_seed, wl, cls, variant)
                    if code != 0:
                        raise SystemExit(f"{key} exited with {code}")
                    ops[key] = run.reference_form(run.results_part(argv, text))
                    shutil.rmtree(workdir / cls.name)
                sys.stderr.write(f"{wl.name} data seed {data_seed}: done\n")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    # one op a line keeps the file readable and its diffs small
    body = ",\n".join(f"{json.dumps(k)}: {json.dumps(v, sort_keys=True)}" for k, v in sorted(ops.items()))
    (run.HERE / "references.json").write_text(f'{{"commit": {json.dumps(run.git_commit())}, "ops": {{\n{body}\n}}}}\n')
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
