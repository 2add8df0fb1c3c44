"""A suspended noise stream keeps one packed batch of draws alive.

Every rank holds one :func:`~repro.machine.costmodel.lcg_uniforms`
stream (and a faulty run one more per fault kind), so what a stream
retains between draws is paid once per rank for the whole run.
"""

import gc
import tracemalloc

from repro.machine.costmodel import lcg_uniforms

#: 256 packed doubles are 2 KB; a list of boxed floats or a kept numpy
#: states array each add several KB more.
MAX_BYTES_PER_STREAM = 4096


def test_a_suspended_stream_retains_under_4kb():
    lcg_uniforms(1)()  # the process-wide jump tables are not per stream
    streams = []
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for seed in range(200):
            draw = lcg_uniforms(seed * 7919 + 3)
            draw()
            streams.append(draw)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    per_stream = retained / len(streams)
    assert per_stream < MAX_BYTES_PER_STREAM, per_stream
