"""Run one verify daemon in its own process for the benchmark.

    python perfbench/launcher.py --store-dir DIR --ready-file FILE [--trace-dir DIR]

The daemon runs the shipped ``VerifyServer`` defaults on an ephemeral port
with a fixed two-worker prover farm.  Once it is listening, ``on_ready``
writes the bound port to ``--ready-file``.  With ``--trace-dir`` the span
wrappers are installed first, and every process of the daemon writes its
spans there when it exits (after a ``shutdown`` request).  The daemon exits
on its own if the benchmark process that started it dies.
"""

from __future__ import annotations

import argparse
import os
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _exit_with_parent(parent: int) -> None:
    while os.getppid() == parent:
        time.sleep(1.0)
    os._exit(1)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--store-dir", required=True)
    parser.add_argument("--ready-file", required=True)
    parser.add_argument("--trace-dir", default=None)
    args = parser.parse_args()
    sys.path.insert(0, str(HERE.parent / "src"))
    sys.path.insert(0, str(HERE))
    from inputs import FARM_WORKERS

    recorder = None
    if args.trace_dir:
        import spans

        recorder = spans.SpanRecorder(Path(args.trace_dir), "daemon")
        spans.install_daemon(recorder)

    from repro.server import VerifyServer

    ready = Path(args.ready_file)

    def announce(server: VerifyServer) -> None:
        staging = ready.with_suffix(".tmp")
        staging.write_text(str(server.port))
        os.replace(staging, ready)

    server = VerifyServer(
        port=0,
        store_dir=args.store_dir,
        workers=FARM_WORKERS,
        on_ready=announce,
    )
    threading.Thread(target=_exit_with_parent, args=(os.getppid(),), daemon=True).start()
    server.run_forever()
    if recorder is not None:
        recorder.flush()


if __name__ == "__main__":
    main()
