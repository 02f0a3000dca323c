"""``serve-results`` under the stack sampler (the traced ``serve_mix`` run).

``python3 perfbench/traced_server.py <layers.json> serve-results ...`` runs
the CLI in this process with a :class:`tracing.Sampler` on its main thread
and writes the per-layer self times to ``layers.json`` when the server
stops (SIGINT).
"""

import sys
import threading

import common
import tracing


def main(argv) -> int:
    out, args = argv[0], argv[1:]
    common.import_repro()
    from repro.harness.cli import main as cli_main

    sampler = tracing.Sampler(threading.get_ident())
    sampler.start()
    try:
        return cli_main(args)
    finally:
        sampler.stop()
        common.write_json(out, {"layers": sampler.totals,
                                "samples": sampler.samples})


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
