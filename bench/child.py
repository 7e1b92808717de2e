"""Run one polycauchy2 CLI invocation in this fresh interpreter and report on it.

    python3 bench/child.py SRC_DIR TRACE SPANS_PATH CLI_ARG...

TRACE is "1" to wrap the package's public functions in timing spans, "0"
otherwise; SPANS_PATH is a file to write the spans to, or "-". The CLI's
stdout goes to a sink that hashes and counts the bytes without keeping them.
The last line this script prints is one JSON object: the monotonic clock
reading once ``polycauchy2.cli`` is imported, the time spent in
``cli.main``, the exit code, the stdout digest, size and last bytes, the
peak RSS and, when traced, the per-span aggregates.
"""

import sys
import time

src = sys.argv[1]
sys.path.insert(0, src)
import polycauchy2.cli as cli  # noqa: E402

imported = time.clock_gettime(time.CLOCK_MONOTONIC)

import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402


class HashSink(io.RawIOBase):
    """A writable stream that keeps only a SHA-256, a byte count and the last bytes."""

    TAIL = 256

    def __init__(self) -> None:
        super().__init__()
        self.sha256 = hashlib.sha256()
        self.size = 0
        self.tail = b""

    def writable(self) -> bool:
        return True

    def write(self, data) -> int:
        self.sha256.update(data)
        self.size += len(data)
        self.tail = (self.tail + bytes(data[-self.TAIL :]))[-self.TAIL :]
        return len(data)


def main() -> int:
    trace, spans_path, argv = sys.argv[2] == "1", sys.argv[3], sys.argv[4:]
    package_dir = os.path.realpath(os.path.join(src, "polycauchy2"))
    if os.path.dirname(os.path.realpath(cli.__file__)) != package_dir:
        print(f"polycauchy2 was imported from {cli.__file__}, not {package_dir}", file=sys.stderr)
        return 3
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    sink = HashSink()
    stdout = io.TextIOWrapper(io.BufferedWriter(sink, 1 << 16), encoding="utf-8")
    sys.stdout = stdout
    start = time.perf_counter()
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
    except Exception:
        traceback.print_exc()
        code = 1
    finally:
        stdout.flush()
        elapsed = time.perf_counter() - start
        sys.stdout = sys.__stdout__

    result = {
        "imported": imported,
        "main_s": elapsed,
        "exit": code,
        "sha256": sink.sha256.hexdigest(),
        "bytes": sink.size,
        "tail": sink.tail.decode("utf-8", "replace"),
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        result["trace"] = tracer.aggregate()
        if spans_path != "-":
            tracer.write_spans(spans_path)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
