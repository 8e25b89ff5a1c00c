"""Explicit attention flow: learned per-edge transitions, the flow update,
message attending, and the loss on the final focused attention.

Focused attention a is a distribution over nodes; flowing attention is the
per-edge quantity T_ij * a_i, which sums to 1 over all edges. Per-edge
values are kept in sender-major slots (..., n, n_types), where slot (i, t)
holds node i's outgoing edge of type t (see GraphTensors). The per-edge
transition logit is
    tau_ij = w1_e . h_i + w2_e . h_j + h_i^T Wo_e h_j + b_e
with one parameter block per edge type. The receiver-side terms w2_t . h_j
and Wo_t h_j are computed once per (node, type) pair and permuted to the
sender slots, so no d x d outer product is formed and h_i is broadcast.
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


def permute_slots(x, perm, axis=1) -> ad.Tensor:
    """x (..., n, n_types, ...), slot axes at axis, with its slots reordered
    by a flat slot permutation: slot s of the result is slot perm[s] of x.
    gt.send reads receiver-side (node, type) tables from the sender slots;
    gt.recv moves sender slots to receiver slots."""
    shape = x.data.shape
    flat = shape[:axis] + (-1,) + shape[axis + 2:]
    return ad.reshape(ad.take(ad.reshape(x, flat), perm, axis=axis,
                              unique=True), shape)


def transition_logits(states, gt, tp: TransitionParams) -> ad.Tensor:
    """Per-slot logits (B, n, n_types) from node states (B, n, d), or
    (n, n_types) from (n, d) for the stationary case, which carries no
    batch axis. Pad slots hold values that transition_matrix drops."""
    axis = states.data.ndim - 2
    s_src = ad.add(ad.matmul(states, tp.w_src), tp.bias)
    s_dst = permute_slots(ad.matmul(states, tp.w_dst), gt.send, axis)
    h_src = ad.reshape(states, states.data.shape[:-1] + (1, -1))
    t_bil = ad.rowdot(h_src, permute_slots(
        ad.typed_affine(states, tp.w_outer, None), gt.send, axis))
    return ad.add(ad.add(s_src, s_dst), t_bil)


def transition_matrix(logits: ad.Tensor, gt) -> ad.Tensor:
    """Row-stochastic transition: softmax over each sender's outgoing edges
    (selfloop included), kept in slot layout with zeros on the pads."""
    return ad.segment_softmax(logits, gt.pad, axis=-1)


def flow_step(focused: ad.Tensor, transition: ad.Tensor, gt):
    """One step of the flow dynamics; conservation is structural.

    focused: (B, n); transition: per-slot (B, n, n_types) or (n, n_types).
    Returns (flowing (B, n, n_types), next focused (B, n)).
    """
    a_src = ad.reshape(focused, focused.data.shape + (1,))
    flowing = ad.mul(transition, a_src)
    return flowing, ad.segment_sum(flowing, gt.recv, gt.send, gt.pad)


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
