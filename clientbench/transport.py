"""How requests reach the server: in process, or over loopback HTTP.

:class:`InProcessClient` does the JSON round trip a transport would
(encode, decode, :meth:`ServeApp.handle`, encode, decode) in the calling
thread.  :class:`HttpClient` is a plain :mod:`http.client` keep-alive
connection to a ``repro serve`` subprocess (:class:`ServerProcess`),
which is started with CLI defaults on a free port, sets no socket option
and is patched in no way, except that a traced run starts it through
``launcher.py``, which installs the span wrappers first.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import select
import signal
import subprocess
import sys
import time
from typing import Optional, Tuple

BANNER = re.compile(r"listening on http://([\d.]+):(\d+)/api")
BOOT_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 30.0


def peak_rss_mb(pid="self") -> float:
    """A process's peak resident set (VmHWM), in MiB."""
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM not reported")


def reset_peak_rss() -> None:
    """Lower this process's VmHWM to its current resident set."""
    with open("/proc/self/clear_refs", "w") as refs:
        refs.write("5")


class InProcessClient:
    """One client thread calling a :class:`ServeApp` directly."""

    def __init__(self, app, tracer=None):
        self.app = app
        self.tracer = tracer

    def call(self, request: dict, rid: Optional[str] = None
             ) -> Tuple[dict, dict]:
        tracer = self.tracer
        if tracer is None:
            response = json.loads(json.dumps(self.app.handle(json.loads(
                json.dumps(request)))))
            return response, {}
        with tracer.span("client.encode"):
            data = json.dumps(request)
        with tracer.span("serve.protocol.decode"):
            decoded = json.loads(data)
        result = self.app.handle(decoded)
        with tracer.span("serve.protocol.encode"):
            encoded = json.dumps(result)
        with tracer.span("client.decode"):
            response = json.loads(encoded)
        return response, {"response_bytes": len(encoded)}


class HttpClient:
    """A keep-alive HTTP/1.1 connection, as any client would open it."""

    def __init__(self, port: int):
        self.connection = http.client.HTTPConnection("127.0.0.1", port,
                                                     timeout=60)

    def call(self, request: dict, rid: Optional[str] = None
             ) -> Tuple[dict, dict]:
        body = json.dumps(request).encode("utf-8")
        headers = {"Content-Type": "application/json"}
        if rid is not None:
            headers["X-Request-Id"] = rid
        start = time.perf_counter_ns()
        try:
            self.connection.request("POST", "/api", body=body,
                                    headers=headers)
            reply = self.connection.getresponse()
            first_byte = time.perf_counter_ns()
            data = reply.read()
        except (OSError, http.client.HTTPException):
            # Drop the broken connection; the next request reconnects.
            self.connection.close()
            raise
        response = json.loads(data)
        return response, {"ttfb_ms": (first_byte - start) / 1e6,
                          "request_bytes": len(body),
                          "response_bytes": len(data)}

    def close(self) -> None:
        self.connection.close()


class ServerProcess:
    """``python -m repro serve`` (or the traced launcher) on a free port."""

    def __init__(self, root, *, spans_path: Optional[str] = None):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(root / "src")
        env["PYTHONHASHSEED"] = os.environ.get("PYTHONHASHSEED", "0")
        # The banner carries the port picked by ``--port 0``; without
        # this it would sit in the pipe's buffer until exit.
        env["PYTHONUNBUFFERED"] = "1"
        if spans_path is None:
            command = [sys.executable, "-m", "repro", "serve", "--port", "0"]
        else:
            command = [sys.executable, str(root / "clientbench" /
                                           "launcher.py"),
                       "--spans", spans_path, "--", "--port", "0"]
        self.process = subprocess.Popen(
            command, cwd=str(root), env=env, stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT)
        self.output = []
        self.port = self._await_banner()
        self._await_health()

    def _await_banner(self) -> int:
        deadline = time.monotonic() + BOOT_TIMEOUT_S
        fd = self.process.stdout.fileno()
        text = ""
        while time.monotonic() < deadline:
            ready, _, _ = select.select([fd], [], [], 0.5)
            if not ready:
                if self.process.poll() is not None:
                    break
                continue
            chunk = os.read(fd, 4096)
            if not chunk:
                break
            text += chunk.decode("utf-8", "replace")
            match = BANNER.search(text)
            if match:
                self.output.append(text)
                return int(match.group(2))
        self.output.append(text)
        self.stop()
        raise RuntimeError("server did not start: " + "".join(self.output))

    def _await_health(self) -> None:
        deadline = time.monotonic() + BOOT_TIMEOUT_S
        while time.monotonic() < deadline:
            connection = http.client.HTTPConnection("127.0.0.1", self.port,
                                                    timeout=5)
            try:
                connection.request("GET", "/healthz")
                if connection.getresponse().status == 200:
                    return
            except OSError:
                pass
            finally:
                connection.close()
            time.sleep(0.02)
        self.stop()
        raise RuntimeError("server never became healthy")

    def peak_rss_mb(self) -> float:
        """The server's peak resident set, in MiB."""
        return peak_rss_mb(self.process.pid)

    def __enter__(self) -> "ServerProcess":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    def stop(self) -> int:
        """SIGTERM (graceful drain), then wait; kills on timeout."""
        if self.process.returncode is not None:
            return self.process.returncode
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
        try:
            rest, _ = self.process.communicate(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.process.kill()
            rest, _ = self.process.communicate()
        self.output.append((rest or b"").decode("utf-8", "replace"))
        return self.process.returncode
