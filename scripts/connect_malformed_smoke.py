#!/usr/bin/env python3
"""Malformed-frame smoke for `tr_opt --connect`.

A fake daemon accepts one connection, reads the request frame and answers
with a terminal frame whose JSON lacks the members tr_opt reads. Each case
must end in exit 1 with a `tr_opt: error:` line, never a crash.
Usage: connect_malformed_smoke.py <tr_opt>
"""
import socket
import struct
import subprocess
import sys
import threading

CASES = [(b"E", b'{"type": "error"}'), (b"R", b'{"totals": {}}'), (b"E", b"[]")]


def read_exact(conn, n):
    data = b""
    while len(data) < n:
        chunk = conn.recv(n - len(data))
        if not chunk:
            raise ConnectionError("peer closed mid-frame")
        data += chunk
    return data


def serve_once(listener, frame_type, payload):
    conn, _ = listener.accept()
    with conn:
        length, _ = struct.unpack("<IB", read_exact(conn, 5))
        read_exact(conn, length)  # the request, answered regardless
        conn.sendall(struct.pack("<I", len(payload)) + frame_type + payload)


def main():
    tr_opt = sys.argv[1]
    failures = 0
    for frame_type, payload in CASES:
        with socket.socket() as listener:
            listener.bind(("127.0.0.1", 0))
            listener.listen(1)
            port = listener.getsockname()[1]
            peer = threading.Thread(target=serve_once,
                                    args=(listener, frame_type, payload))
            peer.start()
            run = subprocess.run(
                [tr_opt, "--connect", f"127.0.0.1:{port}", "c17"],
                capture_output=True, text=True, timeout=60)
            peer.join()
        case = f"{frame_type.decode()} {payload.decode()}"
        if run.returncode != 1 or "tr_opt: error:" not in run.stderr:
            print(f"{case}: exit {run.returncode}, stderr: {run.stderr!r}",
                  file=sys.stderr)
            failures += 1
        else:
            print(f"{case}: {run.stderr.strip()}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
