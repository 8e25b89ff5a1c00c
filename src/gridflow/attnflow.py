"""Explicit attention flow: learned per-edge transitions, the flow update,
message attending, and the loss on the final focused attention.

Focused attention a is a distribution over nodes; flowing attention is the
per-edge quantity T_ij * a_i, which sums to 1 over all edges. Per-edge
values are kept in sender-major slots (..., n, n_types), where slot (i, t)
holds node i's outgoing edge of type t (see GraphTensors). The per-edge
transition logit is
    tau_ij = w1_t . h_i + w2_t . h_j + h_j^T Wo_t h_i + b_t
for an edge of type t. Its receiver-side terms are one typed map of h_j,
    trans.W[t] = [Wo_t | w2_t]  (d, d+1),  trans.b[t] = [w1_t : b_t]  (d+1,),
computed once per (node, type) pair and permuted to the sender slots, so
tau_ij = [h_i : 1] . (h_j trans.W[t] + trans.b[t]): no d x d outer product
is formed and h_i is broadcast.
"""
from __future__ import annotations

import numpy as np

from . import autodiff as ad

NO_ACT, MUL, MUL_MLP = "noact", "mul", "mulmlp"


def transition_logits(states, gt, w, b) -> ad.Tensor:
    """Per-slot logits (B, n, n_types) from node states (B, n, d) and the
    packed transition weights w (n_types, d, d+1), b (n_types, d+1). Pad
    slots hold values that transition_matrix drops."""
    ones = np.ones(states.data.shape[:-1] + (1,), dtype=states.data.dtype)
    h_src = ad.concat([states, ones], axis=-1)
    return ad.rowdot(ad.reshape(h_src, h_src.data.shape[:-1] + (1, -1)),
                     ad.take(ad.typed_affine(states, w, b), gt.send))


def transition_matrix(logits: ad.Tensor, gt) -> ad.Tensor:
    """Row-stochastic transition: softmax over each sender's outgoing edges
    (selfloop included), kept in slot layout with zeros on the pads."""
    return ad.segment_softmax(logits, gt.pad, axis=-1)


def flow_step(focused: ad.Tensor, transition: ad.Tensor, gt):
    """One step of the flow dynamics; conservation is structural.

    focused: (B, n); transition: per-slot (B, n, n_types), or (1, n, n_types)
    for a transition shared by the whole batch.
    Returns (flowing (B, n, n_types), next focused (B, n)).
    """
    a_src = ad.reshape(focused, focused.data.shape + (1,))
    flowing = ad.mul(transition, a_src)
    return flowing, ad.segment_sum(flowing, gt.recv, gt.recv_pad,
                                   gt.receiver, gt.pad)


def attend_message(acting: str, flowing: ad.Tensor, messages: ad.Tensor,
                   mlp_w: ad.Tensor = None, mlp_b: ad.Tensor = None) -> ad.Tensor:
    """Backward acting of flowing attention (B, n, n_types) on per-slot
    messages (B, n, n_types, d).

    MulMlp acts as tanh((f m) mlp_w + mlp_b), computed as
    tanh(f (m mlp_w) + mlp_b); pass mlp_w=None for messages that already
    carry the projection by mlp_w.
    """
    if acting == NO_ACT:
        return messages
    if acting == MUL:
        return ad.mul(messages, ad.reshape(flowing, flowing.data.shape + (1,)))
    if acting == MUL_MLP:
        if mlp_w is not None:
            messages = ad.matmul(messages, mlp_w)
        return ad.scale_affine_tanh(flowing, messages, mlp_b)
    raise ValueError(f"unknown message-attending variant {acting!r}")


def flow_loss(focused: ad.Tensor, dst_indices) -> ad.Tensor:
    """Mean of -log a_dst over the batch, clamped away from -log 0."""
    n = focused.data.shape[1]
    dst = np.asarray(dst_indices, dtype=np.int64)
    if np.any(dst < 0) or np.any(dst >= n):
        raise ValueError("destination index outside the node set")
    picked = ad.tsum(ad.mul(focused, onehot_focus(n, dst, focused.data.dtype)),
                     axis=1)
    return ad.tmean(ad.mul(ad.log(picked), -1.0))


def onehot_focus(n_nodes: int, src_indices, dtype) -> ad.Tensor:
    """Initial focused attention: all mass on the source node."""
    src = np.asarray(src_indices, dtype=np.int64)
    a0 = np.zeros((len(src), n_nodes), dtype=dtype)
    a0[np.arange(len(src)), src] = 1.0
    return ad.Tensor(a0)
