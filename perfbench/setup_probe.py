"""Time one cold set-up in a fresh interpreter: import sfkit, build the
RunConfig and load the SFWT weights.  Prints the seconds taken.

    python3 setup_probe.py SRC_DIR WEIGHTS.sfwt CONFIG_JSON
"""

import json
import sys
import time


def main(argv):
    src, weights_path, config_json = argv
    start = time.perf_counter()
    sys.path.insert(0, src)
    from sfkit import pipeline

    config = pipeline.RunConfig.from_mapping(json.loads(config_json))
    pipeline.load_pipeline_weights(weights_path, config)
    print(repr(time.perf_counter() - start))


if __name__ == "__main__":
    main(sys.argv[1:])
