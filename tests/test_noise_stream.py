"""The batched LCG stream draws bitwise what the scalar LCG draws.

Noise models and fault streams draw their uniforms from
:func:`repro.machine.costmodel.lcg_uniforms`, which computes them
``LCG_BATCH`` at a time with numpy ``uint64`` jump tables.  The scalar
recurrence below is the reference: every draw must equal its
``state / 2.0**64`` by ``float.hex``, across batch boundaries and for
states at or above 2**63, where numpy converts ``uint64`` to ``float64``
by another path than for smaller values.
"""

import pytest

from repro.faults import FaultRng
from repro.faults.injectors import _splitmix64
from repro.machine import CostSpec
from repro.machine.costmodel import LCG_BATCH, NoiseModel, lcg_uniforms

MULT = 6364136223846793005
INC = 1442695040888963407
MASK = (1 << 64) - 1

#: Draws compared per stream: three full batches and into a fourth.
DRAWS = 3 * LCG_BATCH + 7


def scalar_states(state, n):
    """The next ``n`` states of the scalar LCG after ``state``."""
    states = []
    for _ in range(n):
        state = (state * MULT + INC) & MASK
        states.append(state)
    return states


def assert_stream_matches(draw, state):
    states = scalar_states(state, DRAWS)
    # The comparison must cover both uint64 -> float64 conversion paths.
    assert any(s >= 1 << 63 for s in states)
    assert any(s < 1 << 63 for s in states)
    for i, s in enumerate(states):
        assert draw().hex() == (s / 2.0**64).hex(), (i, s)


def noise_seed(rank):
    return (rank * 2654435761 + 0x9E3779B97F4A7C15) & MASK


@pytest.mark.parametrize("rank", [0, 1, 31, 255])
def test_noise_model_stream_matches_scalar_lcg(rank):
    assert_stream_matches(NoiseModel(CostSpec(), rank)._draw, noise_seed(rank))


def test_fault_rng_stream_matches_scalar_lcg():
    tag = sum(ord(c) << (8 * i) for i, c in enumerate("jitter"))
    state = _splitmix64(_splitmix64(_splitmix64(5) ^ tag) ^ 3)
    assert_stream_matches(FaultRng(5, "jitter", 3).uniform, state)


@pytest.mark.parametrize("state", [0, (1 << 63) - 1, 1 << 63, MASK])
def test_stream_matches_scalar_lcg_at_edge_states(state):
    assert_stream_matches(lcg_uniforms(state), state)


def scalar_stretch(spec, rank):
    """``NoiseModel.stretch`` written over the scalar LCG (the reference)."""
    state = noise_seed(rank)

    def stretch(seconds):
        nonlocal state
        if seconds <= 0:
            return seconds
        extra = 0.0
        if spec.noise_amplitude > 0:
            state = (state * MULT + INC) & MASK
            extra += seconds * spec.noise_amplitude * (state / 2.0**64)
        if spec.noise_spike_rate > 0:
            p = min(seconds * spec.noise_spike_rate, 1.0)
            state = (state * MULT + INC) & MASK
            if state / 2.0**64 < p:
                extra += spec.noise_spike_time
        return seconds + extra

    return stretch


@pytest.mark.parametrize("spec", [
    CostSpec(),
    CostSpec(noise_amplitude=0.0),
    CostSpec(noise_spike_rate=0.0),
    CostSpec(noise_spike_rate=4000.0),
])
def test_stretch_matches_scalar_reference(spec):
    noise = NoiseModel(spec, 7)
    reference = scalar_stretch(spec, 7)
    charges = [0.0, -1.0, 1e-7, 3e-4, 0.02, 1.0]
    for i in range(3 * LCG_BATCH):
        seconds = charges[i % len(charges)]
        assert noise.stretch(seconds).hex() == reference(seconds).hex(), i
