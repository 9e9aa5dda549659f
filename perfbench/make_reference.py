"""Record reference.json: the correctness gate's summary of every pool
scene of every workload, plus the digests of the generated inputs.

Run it only at a commit whose outputs are trusted; a commit that changes
results within the oracle tolerances keeps the old reference.

    python3 perfbench/make_reference.py [WORKLOAD ...]
"""

import json
import shutil
import sys

from run import OUT, REFERENCE, load_program


def main(names):
    load_program()
    import gate
    from sfkit.pipeline import load_pipeline_weights
    from workloads import WORKLOADS, operation

    data = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {"workloads": {}}
    data["rtol"] = gate.RTOL
    data["projections"] = gate.N_PROJECTIONS
    workdir = OUT / "reference"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        for name in names or sorted(WORKLOADS):
            workload = WORKLOADS[name]
            config = workload.run_config()
            weights_path = workdir / "weights.sfwt"
            scene_path, flow_path = workdir / "scene.sfsc", workdir / "flow.sffl"
            entry = {"weights_sha256": workload.write_weights(weights_path), "scenes": []}
            weights = load_pipeline_weights(weights_path, config)
            for index in range(workload.pool):
                digest = workload.write_scene(index, scene_path)
                out = operation(scene_path, flow_path, weights, config)
                summary = gate.summarize(out.flow, out.report, out.adaptive, out.three_bucket)
                entry["scenes"].append({"index": index, "scene_seed": workload.scene_seed(index),
                                        "scene_sha256": digest, **summary})
                print(f"{name} scene {index}: {summary['points']} points", flush=True)
            data["workloads"][name] = entry
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    REFERENCE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
