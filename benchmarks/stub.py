"""Embedding stub for the lrmt benchmark: a one-thread stdlib HTTP server.

``POST /embed {"texts": [...]}`` answers ``{"vectors": [...], "dim": DIM,
"model_id": "bench-hash"}``, with each vector derived from a BLAKE2b hash of
its text, so the same text always gets the same vector. ``GET /stats``
answers the number of embed requests and texts served so far.

Run as ``python3 stub.py``: it binds 127.0.0.1 on a free port, prints
``port <n>`` on one line and serves until terminated.
"""

from __future__ import annotations

import hashlib
import json
import signal
import sys
from http.server import BaseHTTPRequestHandler, HTTPServer

DIM = 32


def vector(text: str) -> list[float]:
    """DIM components in [-1, 1) taken from the text's hash."""
    digest = hashlib.blake2b(text.encode("utf-8"), digest_size=2 * DIM).digest()
    return [int.from_bytes(digest[i : i + 2], "big", signed=True) / 32768.0 for i in range(0, 2 * DIM, 2)]


class _Handler(BaseHTTPRequestHandler):
    server: "StubServer"

    def do_POST(self) -> None:
        if self.path != "/embed":
            self.send_error(404)
            return
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        texts = body["texts"]
        self.server.requests += 1
        self.server.texts += len(texts)
        self._reply({"vectors": [vector(t) for t in texts], "dim": DIM, "model_id": "bench-hash"})

    def do_GET(self) -> None:
        if self.path != "/stats":
            self.send_error(404)
            return
        self._reply({"requests": self.server.requests, "texts": self.server.texts})

    def _reply(self, obj: dict) -> None:
        data = json.dumps(obj).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, format: str, *args) -> None:
        pass


class StubServer(HTTPServer):
    """Serves one request at a time and counts what it served."""

    def __init__(self) -> None:
        super().__init__(("127.0.0.1", 0), _Handler)
        self.requests = 0
        self.texts = 0


def main() -> None:
    server = StubServer()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(0))
    print(f"port {server.server_address[1]}", flush=True)
    try:
        server.serve_forever()
    finally:
        server.server_close()


if __name__ == "__main__":
    main()
