"""Machine-speed reference for the benchmark's timings.

On a shared host a vCPU's speed changes by up to 1.7x from one second to the
next, with no steal time: the same code simply runs slower, and the two vCPUs
change independently. A timing taken with a clock therefore moves with the
neighbours. To cancel that, a measured run pins itself and all its children
to one CPU and starts a probe process there at low priority. The probe runs
a fixed loop and publishes, in a small shared file, how many steps it has
done and its own CPU time. Because the probe and the measured code take
turns on the same CPU every few milliseconds, they see the same speed. A
measured operation's CPU time, multiplied by the probe's steps per CPU second
during that operation and divided by REFERENCE_RATE, is the operation's time
at the reference speed: the time it would take on this CPU running steadily
at the speed where the probe makes REFERENCE_RATE steps per second.

    python3 perfbench/speed.py FILE      # the probe loop; start_probe runs it
"""

import mmap
import os
import struct
import subprocess
import sys
import time

STEP = 200  # loop iterations per published step
# Probe steps per CPU second that define the reference speed: a typical rate
# on a 2-vCPU Intel Xeon guest, so that there reference seconds are close to
# CPU seconds.
REFERENCE_RATE = 50000.0
PROBE_NICE = 10  # the probe takes about a tenth of the CPU it shares
MIN_WINDOW_NS = 5_000_000  # probe CPU time needed to rate one interval
_LAYOUT = struct.Struct("qqq")  # steps, probe CPU ns, probe CPU ns at step 0


def probe_loop(path):
    """Run the fixed loop until the parent process ends."""
    os.nice(PROBE_NICE)
    parent = os.getppid()
    with open(path, "r+b") as fh:
        shared = mmap.mmap(fh.fileno(), _LAYOUT.size)
    first = time.process_time_ns()
    table = {}
    steps = 0
    while True:
        acc = 0
        for i in range(STEP):
            acc += i * i % 7
            table[i & 63] = acc
        steps += 1
        shared[:] = _LAYOUT.pack(steps, time.process_time_ns(), first)
        if steps % 2000 == 0 and os.getppid() != parent:
            return


class Gauge:
    """Reads the probe's progress from its shared file."""

    def __init__(self, path):
        with open(path, "rb") as fh:
            self._shared = mmap.mmap(fh.fileno(), _LAYOUT.size, prot=mmap.PROT_READ)

    def snapshot(self):
        """(steps, probe CPU ns, probe CPU ns at step 0), read consistently."""
        while True:
            first = self._shared[:]
            if self._shared[:] == first:
                return _LAYOUT.unpack(first)

    def rate(self, start, end):
        """Probe steps per CPU second between two snapshots. A window with too
        little probe time is rated over the probe's whole life instead."""
        steps, cpu_ns, first_ns = end
        if cpu_ns - start[1] >= MIN_WINDOW_NS:
            return (steps - start[0]) / ((cpu_ns - start[1]) / 1e9)
        if cpu_ns > first_ns:
            return steps / ((cpu_ns - first_ns) / 1e9)
        raise RuntimeError("the speed probe has not run")

    def reference_s(self, cpu_s, start, end):
        """CPU seconds spent between two snapshots, at the reference speed."""
        return cpu_s * self.rate(start, end) / REFERENCE_RATE


def start_probe(path, timeout=30.0):
    """Start the probe on the caller's CPUs; (process, Gauge) once it runs."""
    with open(path, "wb") as fh:
        fh.write(bytes(_LAYOUT.size))
    proc = subprocess.Popen([sys.executable, os.path.abspath(__file__), path])
    try:
        gauge = Gauge(path)
        deadline = time.monotonic() + timeout
        while gauge.snapshot()[0] < 100:
            if proc.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError("the speed probe did not start")
            time.sleep(0.01)
    except BaseException:
        stop_probe(proc)
        raise
    return proc, gauge


def stop_probe(proc):
    if proc.poll() is None:
        proc.kill()
    proc.wait()


if __name__ == "__main__":
    probe_loop(sys.argv[1])
