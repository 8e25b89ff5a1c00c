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

The functions take a slot layout: GraphTensors, whose slots are every
node's, or a Frontier, the slots of one step's reached sender rows, which
send to the rows one hop further (see graphnets). Outside the reach the
focused attention is exactly zero, so the transition there only ever
meets a factor 0.
"""
from __future__ import annotations

import numpy as np

from . import autodiff as ad

MUL, MUL_MLP = "mul", "mulmlp"


def transition_logits(states, slots, w, b) -> ad.Tensor:
    """Per-slot logits at the sender slots of slots from node states
    (B, n, d), or a light cone's pool (1, m, d) (see
    graphnets.Model.background), and the packed transition weights
    w (n_types, d, d+1), b (n_types, d+1): (B, n, n_types) for
    GraphTensors, or (1, k, n_types) for a Frontier's k sender rows,
    whose receiver-side map runs on its ring rows only.
    Pad slots hold values that transition_matrix drops."""
    senders = slots.senders(states)
    ones = np.ones(senders.shape[:-1] + (1,), dtype=senders.dtype)
    h_src = ad.concat([senders, ones], axis=-1)
    return ad.rowdot(ad.reshape(h_src, h_src.shape[:-1] + (1, -1)),
                     ad.take(ad.typed_affine(slots.receivers(states), w, b),
                             slots.send))


def transition_matrix(logits: ad.Tensor, slots) -> ad.Tensor:
    """Row-stochastic transition: softmax over each sender's outgoing edges
    (selfloop included), kept in slot layout with zeros on the pads."""
    return ad.segment_softmax(logits, slots.pad)


def flow_step(focused: ad.Tensor, transition: ad.Tensor, slots):
    """One step of the flow dynamics; conservation is structural.

    focused: at the sender rows of slots, (B, n) for GraphTensors or
    (1, k) at a Frontier's reached rows; transition: per-slot at the
    sender slots of slots, or (1, n, n_types) for a transition shared by
    the whole batch. Returns (flowing at the sender slots, next focused at
    the receiver rows of slots).
    """
    flowing = ad.mul(transition, ad.reshape(focused, focused.shape + (1,)))
    return flowing, ad.segment_sum(flowing, slots)


def attend_message(acting: str, flowing: ad.Tensor, messages: ad.Tensor,
                   slots, mlp_b: ad.Tensor = None, weight: ad.Tensor = None):
    """Backward acting of flowing attention (B, k, n_types) on per-slot
    messages (B, k, n_types, ..., d) in the sender slots of slots, which
    the receive op (autodiff.segment_sum) weights by weight, in the
    receiver slots of slots, (B, r, n_types, ...), or not at all for None.
    Returns the acted (messages, weight).

    Mul multiplies the flowing attention, picked into the receiver slots,
    into the weight, so no product with the messages is formed. MulMlp
    acts on weighted messages m as tanh((f m) W + mlp_b), computed as
    tanh(f (m W) + mlp_b): its messages come already weighted and
    projected by W (act.W), each core where it builds them, and its
    weight is None. Noact variants receive their messages as they are and
    do not call it.
    """
    if acting == MUL:
        received = ad.take(flowing, slots.recv)
        if weight is None:
            return messages, received
        extra = (1,) * (weight.data.ndim - received.data.ndim)
        return messages, ad.mul(weight, ad.reshape(received,
                                                   received.shape + extra))
    if acting == MUL_MLP:
        return ad.scale_affine_tanh(flowing, messages, mlp_b), None
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
