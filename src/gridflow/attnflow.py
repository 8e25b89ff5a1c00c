"""Explicit attention flow: learned per-edge transitions, the flow update,
message attending, and the loss on the final focused attention.

Focused attention a is a distribution over nodes; flowing attention is the
per-edge quantity T_ij * a_i, which sums to 1 over all edges. The per-edge
transition logit is
    tau_ij = w1_e . h_i + w2_e . h_j + h_i^T Wo_e h_j + b_e
with one parameter block per edge type. The bilinear term is contracted
node-side: Wo_t h_j is computed once per (node, type) pair, gathered to
each edge by its (receiver, type) key, and dotted with the gathered sender
state h_i, so no d x d outer product or per-edge h_j is materialized.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad

NO_ACT, MUL, MUL_MLP = "noact", "mul", "mulmlp"


@dataclass
class TransitionParams:
    w_src: ad.Tensor  # (d, n_types)
    w_dst: ad.Tensor  # (d, n_types)
    w_outer: ad.Tensor  # (n_types, d, d), per-type bilinear forms
    bias: ad.Tensor  # (n_types,)


def transition_logits(states, gt, tp: TransitionParams) -> ad.Tensor:
    """Per-edge logits from node states (B, n, d), or (n, d) for the
    stationary case which carries no batch axis."""
    axis = states.data.ndim - 2
    table = states.data.shape[:axis] + (gt.n * gt.n_types,)

    # The bias rides on the sender-side table; both tables are gathered by
    # injective (node, type) keys.
    s_src = ad.add(ad.matmul(states, tp.w_src), tp.bias)
    s_dst = ad.matmul(states, tp.w_dst)
    t_src = ad.take(ad.reshape(s_src, table), gt.src_type, axis=axis,
                    unique=True)
    t_dst = ad.take(ad.reshape(s_dst, table), gt.dst_type, axis=axis,
                    unique=True)

    h_src = ad.take(states, gt.src, axis=axis, scatter=gt.sender_index)
    t_bil = ad.rowdot(h_src, ad.typed_affine(states, tp.w_outer, None,
                                             gt.dst_type))
    return ad.add(ad.add(t_src, t_dst), t_bil)


def transition_matrix(logits: ad.Tensor, gt) -> ad.Tensor:
    """Row-stochastic transition: softmax over each sender's outgoing edges
    (selfloop included), kept in per-edge layout."""
    axis = logits.data.ndim - 1
    return ad.segment_softmax(logits, gt.src, axis=axis, index=gt.sender_index)


def flow_step(focused: ad.Tensor, transition: ad.Tensor, gt):
    """One step of the flow dynamics; conservation is structural.

    focused: (B, n); transition: per-edge (B, E) or (E,).
    Returns (flowing (B, E), next focused (B, n)).
    """
    a_src = ad.take(focused, gt.src, axis=1, scatter=gt.sender_index)
    flowing = ad.mul(transition, a_src)
    nxt = ad.segment_sum(flowing, gt.dst, axis=1, index=gt.receiver_index)
    return flowing, nxt


def attend_message(acting: str, flowing: ad.Tensor, messages: ad.Tensor,
                   mlp_w: ad.Tensor = None, mlp_b: ad.Tensor = None) -> ad.Tensor:
    """Backward acting of flowing attention on a per-edge message tensor.

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
    b, n = focused.data.shape
    dst = np.asarray(dst_indices, dtype=np.int64)
    if np.any(dst < 0) or np.any(dst >= n):
        raise ValueError("destination index outside the node set")
    flat = ad.reshape(focused, (b * n,))
    picked = ad.take(flat, np.arange(b) * n + dst, axis=0, unique=True)
    return ad.tmean(ad.mul(ad.log(picked), -1.0))


def onehot_focus(n_nodes: int, src_indices, dtype) -> ad.Tensor:
    """Initial focused attention: all mass on the source node."""
    src = np.asarray(src_indices, dtype=np.int64)
    a0 = np.zeros((len(src), n_nodes), dtype=dtype)
    a0[np.arange(len(src)), src] = 1.0
    return ad.Tensor(a0)
