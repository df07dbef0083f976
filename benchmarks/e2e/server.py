"""The ``http_serving`` workload's server process.

Builds the benchmark table and serves it exactly as ``python -m repro.serve``
serves its demo warehouse -- ``AquaSystem(telemetry=True)``,
``QueryService(ServiceConfig())``, ``serve_http`` -- then takes the
harness's commands on stdin, one JSON line in, one JSON line out:

``{"cmd": "cache_counts"}``     reply the served system's cache counters
``{"cmd": "stop"}``             shut down, reply the process's peak RSS
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))

from repro.serve import QueryService, ServiceConfig, serve_http  # noqa: E402

import workloads  # noqa: E402


class Served:
    """System, service and bound HTTP server, serving on a thread."""

    def __init__(self) -> None:
        self.system = workloads.set_up(telemetry=True)
        self.service = QueryService(self.system, ServiceConfig())
        self.server = serve_http(self.service, port=0)
        self._thread = threading.Thread(target=self.server.serve_forever)
        self._thread.start()

    def close(self) -> None:
        self.server.shutdown()
        self._thread.join()
        self.server.server_close()
        self.service.close()


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--setup-repeats", type=int, default=1)
    args = parser.parse_args()

    setup_s, served = [], None
    for __ in range(args.setup_repeats):
        if served is not None:
            served.close()
        start = time.perf_counter()
        served = Served()
        setup_s.append(time.perf_counter() - start)

    def reply(payload: dict) -> None:
        sys.stdout.write(json.dumps(payload) + "\n")
        sys.stdout.flush()

    try:
        reply({"port": served.server.server_address[1], "setup_s": setup_s})
        for line in sys.stdin:
            request = json.loads(line)
            if request["cmd"] == "stop":
                break
            if request["cmd"] == "cache_counts":
                reply(workloads.cache_counts(served.system))
            else:
                reply({"error": "UnknownCommand"})
    finally:
        served.close()
    reply({"ru_maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss})
    return 0


if __name__ == "__main__":
    sys.exit(main())
