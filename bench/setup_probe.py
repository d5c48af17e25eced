"""Time the set-up a fresh CLI process pays before any work: import, config, verifier load.

Usage: python3 setup_probe.py SRC_DIR CONFIG_JSON
Prints the elapsed seconds. The verifier is loaded only when the config names
a parameter file, as `specverify run` and `sweep` do and `train` does not.
"""
import json
import sys
import time


def main() -> None:
    src, config = sys.argv[1], json.loads(sys.argv[2])
    start = time.perf_counter()
    sys.path.insert(0, src)
    import specverify.cli  # noqa: F401  (the module a CLI call imports)
    from specverify import harness

    cfg = harness.config_from_dict(config)
    if cfg.verifier.params_path:
        harness.build_verifier(cfg)
    print(repr(time.perf_counter() - start))


if __name__ == "__main__":
    main()
