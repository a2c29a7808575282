"""Start, drive and stop a benchmark daemon (``launcher.py``) and fill its store."""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional

from inputs import PROVER_OPTIONS, PROVERS, MethodInput
from measure import tree_peak_rss_mb

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE_DIR = HERE / ".state"


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


class Daemon:
    """One ``launcher.py`` process serving a store directory."""

    def __init__(self, run_dir: Path, store_dir: Path, trace_dir: Optional[Path] = None) -> None:
        self.run_dir = run_dir
        self.store_dir = store_dir
        self.trace_dir = trace_dir
        self.process: Optional[subprocess.Popen] = None
        self.port: Optional[int] = None
        self._log = None

    def start(self, timeout: float = 60.0) -> int:
        self.run_dir.mkdir(parents=True, exist_ok=True)
        ready = self.run_dir / "daemon.port"
        if ready.exists():
            ready.unlink()
        command = [
            sys.executable, str(HERE / "launcher.py"),
            "--store-dir", str(self.store_dir), "--ready-file", str(ready),
        ]
        if self.trace_dir is not None:
            command += ["--trace-dir", str(self.trace_dir)]
        self._log = (self.run_dir / "daemon.log").open("ab")
        self.process = subprocess.Popen(
            command, cwd=str(ROOT), env=child_env(),
            stdin=subprocess.DEVNULL, stdout=self._log, stderr=subprocess.STDOUT,
        )
        deadline = time.monotonic() + timeout
        while not ready.exists():
            if self.process.poll() is not None:
                raise RuntimeError(f"daemon exited with {self.process.returncode}; see {self._log.name}")
            if time.monotonic() > deadline:
                raise RuntimeError("daemon did not become ready")
            time.sleep(0.005)
        self.port = int(ready.read_text())
        return self.port

    def client(self):
        from repro.server import VerifyClient

        return VerifyClient(port=self.port, timeout=120.0)

    def stats(self) -> dict:
        with self.client() as client:
            return client.stats()

    def peak_rss_mb(self) -> float:
        return tree_peak_rss_mb(self.process.pid) if self.process is not None else 0.0

    def stop(self, timeout: float = 60.0) -> None:
        if self.process is None:
            return
        try:
            if self.process.poll() is None:
                with self.client() as client:
                    client.shutdown()
            self.process.wait(timeout)
        except Exception:  # noqa: BLE001 - never leave the daemon behind
            self.process.kill()
            self.process.wait(timeout)
            raise
        finally:
            if self._log is not None:
                self._log.close()
            self.process = None


def verify_request(client, item: MethodInput):
    return client.verify_method(
        item.source, item.method, class_name=item.class_name,
        provers=PROVERS, prover_options=PROVER_OPTIONS,
    )


# -- the pre-filled store -----------------------------------------------------


def code_key() -> str:
    """Digest of the verifier sources and the benchmark inputs: a filled
    store is reused only by the code that filled it."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")) + [HERE / "expected.json", HERE / "inputs.py"]:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def filled_store(methods: List[MethodInput], connections: int) -> Path:
    """A store holding the verdicts of every suite method, filled once per
    checkout (a cold pass through a daemon) and reused by later runs."""
    final = STATE_DIR / f"store-{code_key()}"
    if (final / "fill.json").exists():
        return final
    staging = STATE_DIR / f"staging-{os.getpid()}"
    shutil.rmtree(staging, ignore_errors=True)
    daemon = Daemon(staging, staging / "store")
    started = time.perf_counter()
    daemon.start()
    errors: List[str] = []
    try:
        queue = list(methods)
        lock = threading.Lock()

        def worker() -> None:
            with daemon.client() as client:
                while True:
                    with lock:
                        if not queue:
                            return
                        item = queue.pop()
                    try:
                        verify_request(client, item)
                    except Exception as exc:  # noqa: BLE001 - reported below
                        errors.append(f"{item.label}: {exc}")

        threads = [threading.Thread(target=worker) for _ in range(connections)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        daemon.stop()
    if errors:
        raise RuntimeError(f"store fill failed: {errors}")
    (staging / "store" / "fill.json").write_text(
        json.dumps({"fill_s": time.perf_counter() - started})
    )
    if final.exists():  # a concurrent run got there first
        shutil.rmtree(staging, ignore_errors=True)
        return final
    os.replace(staging / "store", final)
    shutil.rmtree(staging, ignore_errors=True)
    return final
