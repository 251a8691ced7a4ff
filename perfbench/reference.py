"""Fixed numpy kernels that set the benchmark's speed scale.

The machine this benchmark was built on drifts in speed by up to ±25%
within minutes, and times of the same code move with it. The kernels call
nothing in stealthpath, so no change to the program can move them; they
floor, clip, gather and compare as the field builder does. Sampled next to
the program's own calls, a kernel tracks the drift: over 30 to 40 s
windows, the interquartile spread of a field build's time fell from 0.15 to
0.03 of its median when divided by the kernel's time, and that of a batch
of queries from 0.15 to 0.06. Reported times are multiplied by the kernel's
nominal time over its measured time, so they read as on a machine where the
kernel takes its nominal time.

Two kernels, because the machine's slow spells do not slow all code alike:
- "cache" works on arrays that stay in cache, as the planners' data does
- "memory" allocates and streams 32 MB arrays, as the field builder's
  chunks do
"""

import subprocess
import sys
import time

import numpy as np

# kind -> (elements per array, repeats, nominal seconds)
KERNELS = {"cache": (200_000, 16, 0.1), "memory": (4_000_000, 1, 0.12)}
_ELEV = np.random.default_rng(0).random(1600)


def kernel_seconds(kind: str = "cache") -> float:
    elements, repeats, _ = KERNELS[kind]
    t0 = time.perf_counter()
    for k in range(repeats):
        x = np.arange(1, elements + 1) * (0.25 + k * 1e-3)
        col = np.clip(np.floor(x / 10.0).astype(np.int64), 0, len(_ELEV) - 1)
        (_ELEV[col] > x % 1.0).any()
    return time.perf_counter() - t0


def nominal_seconds(kind: str = "cache") -> float:
    return KERNELS[kind][2]


class KernelProcess:
    """The "memory" kernel run on request in a process of its own, so that
    its arrays never count in the measuring process's peak RSS. The caller
    pins itself to one CPU first, so the kernel runs where the workload
    does. It waits on its pipe while the measuring process works, and ends
    when the pipe closes."""

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, __file__, "memory"],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.seconds()  # warm-up: the first run pays for fresh pages

    def seconds(self) -> float:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"reference kernel process exited with {self.proc.wait()}")
        return float(line)

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()


if __name__ == "__main__":
    for _ in sys.stdin:
        print(kernel_seconds(sys.argv[1]), flush=True)
