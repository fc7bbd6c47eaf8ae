"""Calibration loop that measures how fast the vCPU it runs on is right now.

Usage: python3 calibrate.py

It prints "ready", then runs fixed chunks of dict work until SIGTERM, and
finally prints the number of chunks done and the CPU seconds they took. Run on
the same vCPU as the program, with the same priority, it gets time slices
interleaved with the program's, so chunks per CPU second measure the speed
that vCPU had while the program ran.
"""

import signal
import time

CHUNK_OPS = 2000

stop = False


def _stop(signum, frame):
    global stop
    stop = True


def main() -> None:
    signal.signal(signal.SIGTERM, _stop)
    table: dict[int, int] = {}
    chunks = 0
    print("ready", flush=True)
    start = time.process_time()
    while not stop:
        for i in range(CHUNK_OPS):
            table[(i * 7919) % 10007] = i
        chunks += 1
    print(chunks, time.process_time() - start, flush=True)


if __name__ == "__main__":
    main()
