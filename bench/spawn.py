"""Process runner of the benchmark, kept in a small process of its own.

Linux starts a forked child's peak RSS from its parent's peak, and that
peak survives exec into the child's ru_maxrss. The harness holds numpy and
the generated campaign, so a child it spawned itself would report at least
the harness's peak. This process imports only the standard library and
spawns every timed child, so that each child's ru_maxrss is its own.

Protocol: one JSON request per line on stdin,
{"argv": [...], "keep_stdout": bool}; one JSON result per line on stdout.
Bytes travel as latin-1 strings. The process exits at the end of its input.
"""

import hashlib
import json
import os
import selectors
import subprocess
import sys
import time

CHILD_TIMEOUT_S = 60.0


def run_process(argv, keep_stdout=False):
    """Run one child. Wall time runs from spawn until stdout is drained and
    the child is reaped; CPU time and peak RSS come from its wait4 rusage."""
    digest, size, kept, err = hashlib.sha256(), 0, [], []
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    killed = False
    try:
        with selectors.DefaultSelector() as selector:
            selector.register(proc.stdout, selectors.EVENT_READ)
            selector.register(proc.stderr, selectors.EVENT_READ)
            while selector.get_map():
                left = start + CHILD_TIMEOUT_S - time.perf_counter()
                events = selector.select(None if killed else max(left, 0.0))
                if not events:
                    proc.kill()
                    killed = True
                    err.append(b"killed after %.0f s" % CHILD_TIMEOUT_S)
                for key, _ in events:
                    chunk = os.read(key.fd, 1 << 16)
                    if not chunk:
                        selector.unregister(key.fileobj)
                    elif key.fileobj is proc.stdout:
                        digest.update(chunk)
                        size += len(chunk)
                        if keep_stdout:
                            kept.append(chunk)
                    else:
                        err.append(chunk)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        if proc.returncode is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
        proc.stderr.close()
    return {
        "wall_s": time.perf_counter() - start,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_mib": usage.ru_maxrss / 1024.0,
        "code": proc.returncode,
        "stdout_sha256": digest.hexdigest(),
        "stdout_bytes": size,
        "stdout": b"".join(kept).decode("latin-1"),
        "stderr": b"".join(err).decode("latin-1"),
    }


def main():
    for line in sys.stdin:
        request = json.loads(line)
        result = run_process(request["argv"], request["keep_stdout"])
        sys.stdout.write(json.dumps(result) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
