"""Machine-speed calibration for a shared, drifting machine.

On the two-core machine this benchmark was tuned on, the same code ran up
to 47% faster in one process than in another a minute earlier, and within
one process its speed wandered by 10-20% over seconds. So each run
interleaves repetitions of a fixed kernel with its work (between
operations, never inside a timed one) and scales its times to a reference
machine speed:

    time at reference speed = measured time * kernel rate / reference rate

with the kernel rate of the whole run: repetitions over seconds, all
samples pooled. Single samples track the machine poorly, but the pooled
rate tracks the program's throughput pooled in the same way (total work
over total time). On infer, in a phase where raw throughput spread by 28%
over six seeds, it spread by 4% scaled by the pooled rate and by 10%
scaled by the median rate.

The kernel is a frozen copy of the counting loop the miner had when this
benchmark was written (n-grams of length 1 to 6 with left and right
neighbour counts and document frequencies) over the first sentences of
the unrelabelled mining corpus. It never calls crossseg, so a change to the
program cannot change it. Interpreted Python building small dicts and
strings is what every workload here spends its time on, and this kernel
followed all three: sampled alongside 0.05-0.2 s operations in one
process, its speed over 15-sample windows correlated with that of infer
rounds (r = 0.66-0.89) and training steps (r = 0.79) and took out half
their variance. An earlier mixed kernel (dict counting plus small numpy
matrix products) did worse on train (r = 0.52) and overreacted on infer
(it moved 1.6 times as much), and scaled by it, the spread of five seeds
of mining throughput rose from 8% to 17%. With the large text sampled
between mine() calls, eight seeds of mining throughput spread by 5-6%
between quartiles instead of 13%.
"""
from __future__ import annotations

import functools
import time

from inputs import make_inputs

# (sentences of kernel text, repetitions per second on the reference
# machine in a fast phase: 2 cores, x86-64, Python 3.11).
SMALL = (25, 80.0)      # about 15 ms; between steps, rounds and set-ups
LARGE = (1500, 0.75)    # about 1.4 s; between mine() calls


@functools.lru_cache(maxsize=1)
def _corpus() -> tuple[str, ...]:
    return tuple(make_inputs(None).raw)


def ngram_kernel(text) -> None:
    """Count n-grams of length 1..6 with neighbours and document frequency,
    as the miner's statistics collection did."""
    counts: dict[str, int] = {}
    left: dict[str, dict[str, int]] = {}
    right: dict[str, dict[str, int]] = {}
    doc_freq: dict[str, int] = {}
    for sentence in text:
        seen: set[str] = set()
        m = len(sentence)
        for n in range(1, min(6, m) + 1):
            for i in range(m - n + 1):
                g = sentence[i:i + n]
                counts[g] = counts.get(g, 0) + 1
                seen.add(g)
                if i > 0:
                    d = left.get(g)
                    if d is None:
                        d = left[g] = {}
                    c = sentence[i - 1]
                    d[c] = d.get(c, 0) + 1
                if i + n < m:
                    d = right.get(g)
                    if d is None:
                        d = right[g] = {}
                    c = sentence[i + n]
                    d[c] = d.get(c, 0) + 1
        for g in seen:
            doc_freq[g] = doc_freq.get(g, 0) + 1


class Speed:
    """Kernel rates sampled between a run's operations, on the SMALL or
    the LARGE kernel text."""

    def __init__(self, size: tuple[int, float] = SMALL):
        self.text = _corpus()[:size[0]]
        self.reference = size[1]
        self.reps = 0
        self.seconds = 0.0

    def sample(self, reps: int) -> None:
        t = time.perf_counter()
        for _ in range(reps):
            ngram_kernel(self.text)
        self.seconds += time.perf_counter() - t
        self.reps += reps

    def rate(self) -> float:
        """Kernel repetitions per second over all samples."""
        return self.reps / self.seconds

    def to_reference(self, seconds: float) -> float:
        """A duration measured in this run, at reference machine speed."""
        return seconds * self.rate() / self.reference
