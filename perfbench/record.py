#!/usr/bin/env python3
"""Pin the outputs the benchmark checks against into perfbench/recorded.json.

    python3 perfbench/record.py

Run once at the commit that defines the benchmark, from the root of a
checkout. It records, from the program as it stands:

* ``wide``: the sha256 of the simulated move log of the wide debate, for
  k = 16 and k = 8 and seeds 0-31;
* ``docs``: what parse, validate, measure and the kernel report for each
  proof fixture;
* ``cli``: exit code and stdout sha256 of every light CLI command whose
  arguments do not depend on a free seed;
* ``mc_seeds``: Monte Carlo seeds at which ``verify-mc --sigma2 30`` passes
  at both 1e6 and 1e7 draws. verify-mc is a 3-standard-error test over ten
  rows, so some seeds fail by chance alone; the benchmark times the command,
  it does not re-test the closed forms.
"""

import contextlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from sprig.scenarios import PROTOCOL_FIXTURES  # noqa: E402

WIDE_SEEDS = range(32)
MC_CANDIDATES = range(24)


def main() -> int:
    out: dict = {"wide": {}, "docs": {}, "cli": {}, "mc_seeds": []}
    for k in (16, 8):
        out["wide"][str(k)] = {
            str(seed): workloads.sha256(
                "\n".join(workloads.run_scenario(workloads.wide_config(k, seed)).move_lines)
            )
            for seed in WIDE_SEEDS
        }
    for name, data in workloads.proof_documents().items():
        out["docs"][name] = workloads.doc_summary(data)

    commands = [workloads.validate_argv(name) for name in workloads.proof_documents()]
    commands += [workloads.run_argv(log) for log in sorted(PROTOCOL_FIXTURES)]
    commands += [["solve", "--sigma2", str(s)] for s in range(1, 60)]
    commands.append(workloads.SWEEP_ARGV)
    with contextlib.chdir(ROOT):
        for argv in commands:
            code, stdout = workloads.in_process(argv)
            out["cli"][" ".join(argv)] = [code, workloads.sha256(stdout)]
        for seed in MC_CANDIDATES:
            verdicts = []
            for n in (10**6, 10**7):
                code, stdout = workloads.in_process(
                    ["verify-mc", "--sigma2", "30", "--n", str(n), "--seed", str(seed)])
                verdicts.append(code == 0 and json.loads(stdout)["verdict"] == "pass")
            if all(verdicts):
                out["mc_seeds"].append(seed)
    workloads.RECORDED_PATH.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print(f"wrote {workloads.RECORDED_PATH.relative_to(ROOT)}: "
          f"{len(out['mc_seeds'])} of {len(MC_CANDIDATES)} Monte Carlo seeds pass")
    return 0


if __name__ == "__main__":
    sys.exit(main())
