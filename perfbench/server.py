"""Child process: serve one directory with ``transport.serve`` until stdin closes.

Run as ``python3 perfbench/server.py WEB_ROOT CPU[,CPU...]``; the server runs
on the CPUs named. The first line on stdout is the server's base URL.
Running the server in its own process keeps its threads off the benchmark
client's interpreter lock, as with a real source host.
"""

import os
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main() -> int:
    sys.path.insert(0, str(SRC))
    from sitemapsync import transport

    os.sched_setaffinity(0, {int(cpu) for cpu in sys.argv[2].split(",")})

    handle = transport.serve(Path(sys.argv[1]), "127.0.0.1:0")
    print(handle.url, flush=True)
    sys.stdin.read()  # the benchmark closes our stdin to stop us
    # No handle.stop(): it waits out serve_forever's 0.5 s poll, while exiting
    # ends the server's daemon threads and closes its socket at once.
    return 0


if __name__ == "__main__":
    sys.exit(main())
