"""Record perfbench/reference.json from the program as it stands.

    python3 perfbench/record_reference.py

References are taken on the default seed: the helix-large and sweep-small
grand matrices and steady-state lambdas, the fall-long final state with its
error bound, and the SHA-256 of each workload's generated configs.

The fall-long bound is derived from RK4 error estimates. At the workload's
step h the truncation error is below roundoff, so it is estimated at a
coarser step and scaled: with d(a, b) = max|y_a - y_b| over the final
state, E(8h) = d(8h, 4h) * 16/15 (Richardson, order 4) and
E(h) = E(8h) / 8^4. The ratio d(8h, 4h) / d(4h, 2h) is recorded: at 16 or
above the error falls at least as fast as h^4, so the scaled E(h) is an
upper estimate. R = d(h, h/2) measures the roundoff that two equally valid
runs accumulate. A fourth-order run within E(h) + R of the exact solution
differs from the recorded one by at most 2 (E(h) + R): that is the bound.
"""

import copy
import json
import os
import shutil
import sys

import run

def main():
    os.environ.update(run.blas_vars(run.nproc()))
    import numpy as np

    import workloads
    cli = run.import_program()["cli"]
    out = run.WORK / "record"
    out.mkdir(parents=True, exist_ok=True)

    def report_of(raw, mode):
        status = cli.run(cli.parse_config(raw), mode, out)
        if status != 0:
            raise SystemExit(f"{mode} run exited with status {status}")
        with open(out / "report.json") as fh:
            return json.load(fh)

    seed = workloads.DEFAULT_SEED
    ref = {"seed": seed,
           "config_sha256": {w: workloads.configs_sha256(workloads.make_configs(w, seed))
                             for w in workloads.WORKLOADS}}
    try:
        helix = workloads.make_configs("helix-large", seed)[0]
        ref["helix-large"] = workloads.steady_summary(report_of(helix, "steady"))
        ref["sweep-small"] = {"bodies": [
            workloads.steady_summary(report_of(raw, "steady"))
            for raw in workloads.make_configs("sweep-small", seed)]}

        fall = workloads.make_configs("fall-long", seed)[0]
        finals = {}
        for k in (8, 4, 2, 1, 0.5):
            raw = copy.deepcopy(fall)
            raw["dynamics"]["dt"] *= k
            raw["dynamics"]["stride"] = 10 ** 9        # sample the final state only
            report_of(raw, "fall")
            finals[k] = np.array(workloads.fall_final_state(
                workloads.read_trajectory(out / "trajectory.csv")))

        def d(a, b):
            return float(np.max(np.abs(finals[a] - finals[b])))

        trunc = d(8, 4) * 16.0 / 15.0 / 8.0 ** 4
        roundoff = d(1, 0.5)
        bound = 2.0 * (trunc + roundoff)
        ref["fall-long"] = {"final": finals[1].tolist(), "bound": bound,
                            "error_estimate": {"dt": fall["dynamics"]["dt"],
                                               "truncation": trunc,
                                               "roundoff": roundoff,
                                               "order_ratio": d(8, 4) / d(4, 2)}}
    finally:
        shutil.rmtree(out, ignore_errors=True)
    with open(workloads.REFERENCE_PATH, "w") as fh:
        json.dump(ref, fh, indent=1)
        fh.write("\n")
    print(f"wrote {workloads.REFERENCE_PATH}: fall-long bound {bound:.3e}",
          ref["fall-long"]["error_estimate"])


if __name__ == "__main__":
    sys.exit(main())
