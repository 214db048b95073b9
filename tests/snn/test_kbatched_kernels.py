"""Bitwise pins for the fused K-batched kernels on an untiled input.

``run_sequence_kbatched_fused`` (conv and recurrent layers; dense layers
splice their synapse faults instead) takes the module input
``(T, S, ...)`` shared by all K weight variants and broadcasts it over K
inside the matmul.  It replaced kernels that took a fault-major K-fold
tiled copy ``np.tile(seq, (1, K, ...))``; those tiled formulations are
kept below as the reference.  Spikes and the carried
:class:`LIFState` must match byte for byte, with and without an attached
:class:`EventDispatch`, on inputs with all-zero time slices, and the
dispatcher must count the cells and spikes of all K*S rows exactly as a
tiled call does.
"""

import numpy as np
import pytest

from repro.autograd import functional as F
from repro.snn.events import EventDispatch
from repro.snn.layers import ConvLIF, RecurrentLIF, event_dispatch_context
from repro.snn.neuron import LIFParameters

K, S, T, SPLIT = 3, 2, 9, 4
PARAMS = LIFParameters(leak=0.9, refractory_steps=1)


def _tile(seq, k):
    """Fault-major K-fold tile: row ``k*S + s`` is sample ``s``."""
    return np.tile(seq, (1, k) + (1,) * (seq.ndim - 2))


# -- the tiled reference kernels ----------------------------------------


def _conv_currents(module, tiled, stacks):
    (weight,) = stacks
    k = weight.shape[0]
    steps, batch = tiled.shape[:2]
    w_mats = weight.reshape(k, module.out_channels, -1)
    cols = module._im2col(tiled.reshape((-1,) + tiled.shape[2:]))
    cols = cols.reshape((steps, k, batch // k) + cols.shape[1:])
    currents = np.matmul(w_mats[None, :, None], cols)
    return currents.reshape((steps, batch) + module.neuron_shape)


def _scan_reference(currents_fn):
    def run(module, tiled, stacks, state, events):
        steps, batch = tiled.shape[:2]
        compute = lambda sub: currents_fn(module, sub, stacks)  # noqa: E731
        if events is None:
            currents = compute(tiled)
        else:
            currents = events.stacked_block(
                tiled,
                compute,
                (batch,) + module.neuron_shape,
                np.result_type(tiled.dtype, stacks[0].dtype),
                module.name,
            )
        return module._lif_scan(currents, state)

    return run


def _recurrent_fused_reference(module, tiled, stacks, state, events):
    w_in, w_rec = stacks
    k = w_in.shape[0]
    steps, batch = tiled.shape[:2]
    s = batch // k

    def compute(sub):
        ff = np.matmul(sub.reshape(sub.shape[0], k, s, -1), w_in)
        return ff.reshape(sub.shape[0], batch, -1)

    if events is None:
        ff = compute(tiled)
    else:
        ff = events.stacked_block(
            tiled, compute, (batch, module.out_features), tiled.dtype, module.name
        )
    ff = ff.reshape(steps, k, s, -1)
    out = np.empty((steps, batch, module.out_features))
    previous = np.asarray(state.last_spike).reshape(k, s, -1)
    for t in range(steps):
        current = ff[t] + np.matmul(previous, w_rec)
        spikes = module._lif_numpy(current.reshape(batch, -1), state)
        previous = spikes.reshape(k, s, -1)
        out[t] = spikes
    return out


REFERENCES = {
    "conv": _scan_reference(_conv_currents),
    "recurrent": _recurrent_fused_reference,
}


# -- cases ----------------------------------------------------------------


def _module(kind):
    rng = np.random.default_rng(11)
    if kind == "conv":
        module = ConvLIF(2, 3, (6, 5), kernel=3, params=PARAMS, padding=1, rng=rng)
    else:
        module = RecurrentLIF(12, 5, PARAMS, rng=rng, recurrent_scale=2.0)
    module.name = kind
    return module


def _case(kind):
    """Module, a sparse input with all-zero time slices, and K weight
    variants each with one perturbed entry."""
    module = _module(kind)
    rng = np.random.default_rng(5)
    in_shape = (12,) if kind != "conv" else (2, 6, 5)
    seq = (rng.random((T, S) + in_shape) < 0.3).astype(float)
    seq[[0, 3, 4, 8]] = 0.0  # all-zero slices, straddling the split
    stacks = [
        np.broadcast_to(p.data, (K,) + p.data.shape).copy() for p in module.parameters()
    ]
    for k in range(K):
        flat = stacks[k % len(stacks)][k].reshape(-1)
        flat[(7 * k) % flat.size] += 2.5
    return module, seq, stacks


def _assert_state_equal(actual, expected):
    for field in ("potential", "last_spike", "refractory"):
        a, e = np.asarray(getattr(actual, field)), np.asarray(getattr(expected, field))
        assert a.dtype == e.dtype and a.shape == e.shape
        assert a.tobytes() == e.tobytes(), field


def _run_split(fn, seq, state):
    """Two calls with the state carried across the split."""
    return np.concatenate([fn(seq[:SPLIT], state), fn(seq[SPLIT:], state)], axis=0)


@pytest.mark.parametrize(
    "dispatch", [False, True], ids=["fused-dense-path", "fused-dispatch"]
)
@pytest.mark.parametrize("kind", ["conv", "recurrent"])
def test_untiled_kernels_equal_tiled_reference(kind, dispatch):
    module, seq, stacks = _case(kind)
    tiled = _tile(seq, K)
    run = module.run_sequence_kbatched_fused
    reference = REFERENCES[kind]

    events = EventDispatch() if dispatch else None
    state = module.init_state(K * S)
    with event_dispatch_context([module], events):
        out = _run_split(lambda part, st: run(part, stacks, state=st), seq, state)

    ref_events = EventDispatch() if dispatch else None
    ref_state = module.init_state(K * S)
    ref_out = _run_split(
        lambda part, st: reference(module, _tile(part, K), stacks, st, ref_events),
        seq,
        ref_state,
    )

    assert out.shape == tiled.shape[:2] + module.neuron_shape
    assert out.dtype == ref_out.dtype
    assert out.tobytes() == ref_out.tobytes()
    _assert_state_equal(state, ref_state)
    if dispatch:
        assert events.stats.as_dict() == ref_events.stats.as_dict()
        stats = events.stats.as_dict()
        assert stats["cells"] == tiled.size
        assert stats["zero_slices"] > 0


def test_conv_kbatch_builds_one_patch_matrix(monkeypatch):
    """A conv K-batch builds the patches of the shared input once, not K
    times."""
    module, seq, stacks = _case("conv")
    rows = []
    real = F.im2col

    def recording(x, *args, **kwargs):
        rows.append(x.shape[0])
        return real(x, *args, **kwargs)

    monkeypatch.setattr(F, "im2col", recording)
    module.run_sequence_kbatched_fused(seq, stacks)
    assert sum(rows) == T * S
