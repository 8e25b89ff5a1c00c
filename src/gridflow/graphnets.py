"""Propagation cores (FullGN, GGNN, GAT), random-walk baselines, and the
model harness combining them with the explicit attention-flow mechanism.

Node states h = [attention channels : auxiliary channels]. The source node
starts with its attention channels at 1/sqrt(d') and every other node at
zero; auxiliary channels start from a tanh feedforward of the stationary
node embeddings. Regular variants read predictions out of the attention
channels by softmax of their inner product with the reference vector;
explicit-flow variants read the final focused attention directly.

The batch axis vectorizes (source, destination) examples over the shared
graph and shared parameters.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, partial

import numpy as np

from . import attnflow
from . import autodiff as ad
from .grid import GridGraph, N_EDGE_TYPES

# Examples per forward: per training microbatch (gradients accumulate
# across them) and per chunk of Model.predict. On the LINE 32-grid preset,
# peak RSS grows by about 58 MB per example in a GGNN-MulMlp training
# microbatch, 50 MB in GGNN-Mul and 95 MB in GAT (from 1 to 4 examples,
# glibc's default malloc, one BLAS thread). perfbench's reference losses
# are recorded per microbatch of this size.
MICROBATCH_SIZE = 4

MODEL_NAMES = [
    f"{core}{suffix}"
    for core in ("fullgn", "ggnn", "gat")
    for suffix in ("", "-noact", "-mul", "-mulmlp")
] + ["rw-stationary", "rw-dynamic"]

# GAT's attention heads; a GAT model's dims must be a multiple of it.
GAT_HEADS = 5


@dataclass
class ModelConfig:
    name: str = "ggnn"  # one of MODEL_NAMES
    dims: int = 40
    attn_dims: int = 8
    steps: int = 16
    dtype: str = "float32"

    def __post_init__(self):
        if self.name not in MODEL_NAMES:
            raise ValueError(f"unknown model {self.name!r}; valid models: "
                             f"{', '.join(MODEL_NAMES)}")
        for field in ("dims", "attn_dims", "steps"):
            if getattr(self, field) < 1:
                raise ValueError(f"{field} must be >= 1")
        if not self.attn_dims < self.dims:
            raise ValueError("attn_dims must be smaller than dims")
        if self.core == "gat" and self.dims % GAT_HEADS:
            raise ValueError(
                f"gat needs dims divisible by heads ({GAT_HEADS})")

    @property
    def core(self) -> str:
        """fullgn, ggnn, gat, rw-stationary or rw-dynamic."""
        return (self.name if self.name.startswith("rw-")
                else self.name.partition("-")[0])

    @property
    def acting(self) -> str:
        """How flowing attention acts on messages: regular (no flow),
        noact, mul or mulmlp. The random walks pass no messages."""
        if self.name.startswith("rw-"):
            return "noact"
        return self.name.partition("-")[2] or "regular"

    @property
    def explicit_flow(self) -> bool:
        return self.acting != "regular"

    @property
    def np_dtype(self):
        return np.dtype(self.dtype)

    @classmethod
    def from_name(cls, name: str, **kw) -> "ModelConfig":
        """The config of a model name in any case, with _ or - as separator."""
        return cls(name.lower().replace("_", "-"), **kw)


class GraphTensors:
    """Index arrays for one selfloop-augmented graph.

    Compact node indices 0..n-1 follow ascending original node id. The edge
    list (src, dst, etype, sorted by type) describes the graph; the models
    keep per-edge values in sender-major slots (n, n_types), where slot
    (i, t) holds node i's outgoing edge of type t and receiver slot (j, t)
    node j's incoming one. Each node has at most one edge of each type on
    each side, so the edges fill distinct slots and the rest are pads:
    pad and recv_pad, (n, n_types). recv (n, n_types) gives the flat
    sender slot of each receiver slot and send is its inverse; they pair
    pads with pads. receiver (n, n_types) is the node whose receiver slot
    each sender slot maps to, and src_type is each edge's flat sender slot.
    """

    def __init__(self, graph: GridGraph):
        if not graph.has_selfloops():
            raise ValueError("model graphs must be selfloop-augmented")
        self.graph = graph
        self.node_ids = graph.nodes.copy()
        self.n = n = len(self.node_ids)
        self.n_types = nt = N_EDGE_TYPES

        edges = graph.edges
        order = np.lexsort((edges[:, 1], edges[:, 0], edges[:, 2]))
        edges = edges[order]
        self.src_ids = edges[:, 0]
        self.dst_ids = edges[:, 1]
        self.etype = edges[:, 2].astype(np.int64)
        self.src = self.to_indices(self.src_ids)
        self.dst = self.to_indices(self.dst_ids)
        self.n_edges = len(edges)

        self.src_type = self.src * nt + self.etype
        dst_type = self.dst * nt + self.etype
        pads = []
        for side, key in (("sender", self.src_type), ("receiver", dst_type)):
            count = np.bincount(key, minlength=n * nt).reshape(n, nt)
            if count.max() > 1:
                raise ValueError(f"two edges share a {side} and an edge type")
            pads.append(count == 0)
        self.pad, self.recv_pad = pads
        # Both softmaxes need at least one edge per node on their side.
        if self.pad.all(axis=1).any() or self.recv_pad.all(axis=1).any():
            raise ValueError("every node needs an outgoing and an incoming "
                             "edge (selfloop missing?)")
        recv = np.empty(n * nt, dtype=np.int64)
        recv[dst_type] = self.src_type
        recv[self.recv_pad.reshape(-1)] = np.flatnonzero(self.pad)
        send = np.empty_like(recv)
        send[recv] = np.arange(n * nt)
        self.recv, self.send = recv.reshape(n, nt), send.reshape(n, nt)
        self.receiver = self.send // nt

    # As a slot layout (see Frontier), the whole graph: every node's slots,
    # received in place.
    ring = None

    def senders(self, x):
        return x

    receivers = senders

    def reach(self, src_indices, steps) -> np.ndarray:
        """(steps + 1, B, n) bool: the nodes within t hops of each source,
        for t = 0..steps, each hop taken through the slot permutation. The
        selfloops keep every reached node reached."""
        src = np.asarray(src_indices, dtype=np.int64)
        masks = np.zeros((steps + 1, len(src), self.n), dtype=bool)
        masks[0, np.arange(len(src)), src] = True
        edges = ~self.pad
        for t in range(steps):
            sending = (masks[t][:, :, None] & edges).reshape(len(src), -1)
            masks[t + 1] = np.take(sending, self.recv, axis=1).any(axis=2)
        return masks

    def to_indices(self, node_ids) -> np.ndarray:
        """Compact indices of original node ids; ValueError names the ids
        that are not in the graph."""
        ids = np.atleast_1d(np.asarray(node_ids, dtype=np.int64))
        idx = np.searchsorted(self.node_ids, ids)
        found = idx < self.n
        found[found] = self.node_ids[idx[found]] == ids[found]
        if not found.all():
            missing = sorted(set(ids[~found].tolist()))
            raise ValueError(f"node ids not in the graph: {missing}")
        return idx

    def edge_values(self, slots: np.ndarray) -> np.ndarray:
        """Per-slot values (..., n, n_types) as per-edge values (..., E)."""
        return slots.reshape(slots.shape[:-2] + (-1,))[..., self.src_type]


def take_rows(x, rows):
    """x (B, n, ...) or (1, m, ...) at some of its flat rows:
    (1, len(rows), ...)."""
    return ad.take(ad.reshape(x, (1, -1) + x.shape[2:]), rows)


class StateRows:
    """The rows of a batch (B, n) at which a forward keeps its per-row
    tensors: node states, the GRU's embedding term, received messages and
    focused attention.

    Every row keeps the batch's layout, (B, n, ...). A subset of the flat
    (example, node) rows is compact, (1, len(rows), ...), in ascending
    order of flat row. at maps each flat row of the batch to its row in
    the layout, or to -1 for a row left out. Both index arrays are built
    on first use: a forward that builds no Frontier and keeps every row
    never reads them, and making them anyway for each of its forwards
    raised train-rw's peak RSS by about 4 MB.
    """

    def __init__(self, kept: np.ndarray):
        self.kept = kept
        self.batch = kept.shape
        self.every = bool(kept.all())
        self.shape = self.batch if self.every else (1, int(kept.sum()))

    @cached_property
    def rows(self):
        return np.flatnonzero(self.kept)

    @cached_property
    def at(self):
        at = np.full(self.kept.size, -1)
        at[self.rows] = np.arange(self.rows.size)
        return at

    def pick(self, x):
        """x (B, n, ...) at these rows."""
        return x if self.every else take_rows(x, self.rows)

    def dense(self, x):
        """x at these rows as (B, n, ...), zero at the rows left out."""
        if self.every:
            return x
        return ad.reshape(ad.take(x, self.at), self.batch + x.shape[2:])


class Frontier:
    """The slot layout of one flow step, at the rows its focused attention
    has reached.

    The focused attention starts one-hot at the source and moves at most
    one hop a step, so at step t it is exactly zero outside the nodes
    within t hops (GraphTensors.reach). There the flowing attention
    T_ij a_i is T_ij times 0, in forward and backward alike, so the
    transition and the acted messages are computed at the reached rows
    only. reached and ring are (B, n) masks: the reached sender rows, and
    the rows within one more hop, the next step's reach, whose
    receiver-side maps the transition reads. Both lie within the rows of
    states, and the index arrays point into those: rows and ring are the
    rows of the states' layout, and so is receiver, which segment_sum
    receives into. Per-slot tensors are compact, (1, len(rows), n_types,
    ...); see autodiff.segment_sum for the index arrays. unreached_in, of
    the states' shape, counts each row's incoming edges from senders
    outside the reach.
    """

    def __init__(self, gt: GraphTensors, reached, ring, states: StateRows):
        nt = gt.n_types
        b, n = reached.shape
        self.states, self.shape = states, states.shape
        # Flat rows of the batch, until the end, where they become rows of
        # the states' layout.
        rows = np.flatnonzero(reached)
        ring = np.flatnonzero(ring)
        node = rows % n
        self.pad = gt.pad[node]
        receiver = (rows - node)[:, None] + gt.receiver[node]
        at_ring = np.full(b * n, -1)
        at_ring[ring] = np.arange(len(ring))
        send = at_ring[receiver] * nt + gt.send[node] % nt
        # take needs each ring slot picked at most once: the pads take the
        # ring slots that no edge takes, of which there are enough, since
        # the ring holds the rows.
        free = np.ones(len(ring) * nt, dtype=bool)
        free[send[~self.pad]] = False
        send[self.pad] = np.flatnonzero(free)[:np.count_nonzero(self.pad)]
        self.send = send
        at_rows = np.full(b * n, -1)
        at_rows[rows] = np.arange(len(rows))
        ring_node = ring % n
        sender_slot = gt.recv[ring_node]
        sender = at_rows[(ring - ring_node)[:, None] + sender_slot // nt]
        self.recv_pad = gt.recv_pad[ring_node] | (sender < 0)
        self.recv = np.where(self.recv_pad, 0, sender * nt + sender_slot % nt)
        unreached = np.tile(np.count_nonzero(~gt.recv_pad, axis=1), b)
        unreached[ring] -= np.count_nonzero(~self.recv_pad, axis=1)
        self.unreached_in = unreached[states.rows].reshape(self.shape)
        self.rows, self.ring = states.at[rows], states.at[ring]
        # A pad's receiver slot in gt may be any node's, one that the
        # states leave out among them; it sends nothing, so it is given
        # its own sender's row.
        self.receiver = np.where(self.pad, self.rows[:, None],
                                 states.at[receiver])

    def senders(self, x):
        """Per-row x, in the states' layout, at the sender rows:
        (1, len(rows), ...)."""
        return take_rows(x, self.rows)

    def receivers(self, x):
        """Per-row x, in the states' layout, at the ring rows:
        (1, len(ring), ...)."""
        return take_rows(x, self.ring)

    def dense(self, values: np.ndarray) -> np.ndarray:
        """Compact per-slot values as (B, n, n_types), zero off the rows."""
        batch = self.states.batch
        out = np.zeros((batch[0] * batch[1],) + values.shape[2:],
                       dtype=values.dtype)
        out[self.states.rows[self.rows]] = values[0]
        return out.reshape(batch + values.shape[2:])


def expand(x, size, axis):
    """x with a new axis of length size inserted at axis; its gradient sums
    back over that axis."""
    shape = x.data.shape
    ones = [1] * (len(shape) + 1)
    ones[axis] = size
    return ad.add(ad.reshape(x, shape[:axis] + (1,) + shape[axis:]),
                  np.zeros(ones, dtype=x.data.dtype))


def gru(h, m_bar, u_pre, params, d):
    """GRU cell over input x = [m_bar : u]; h' = (1-z) h + z tanh(.).

    Weight blocks are split by input so the embedding contribution u_pre =
    u @ Wu + b (constant across steps) is computed once per forward:
        r, z = sigmoid(m_bar Wm[:, :2d] + u_pre[:2d] + h Wh)
        hh   = tanh(m_bar Wm[:, 2d:] + u_pre[2d:] + (r*h) Whh)
    """
    pre = ad.add(ad.matmul(m_bar, params["gru.Wm"]), u_pre)
    rz = ad.sigmoid(ad.add(ad.slice_axis(pre, -1, 0, 2 * d),
                           ad.matmul(h, params["gru.Wh"])))
    r = ad.slice_axis(rz, -1, 0, d)
    z = ad.slice_axis(rz, -1, d, 2 * d)
    hh = ad.tanh(ad.add(ad.slice_axis(pre, -1, 2 * d, 3 * d),
                        ad.matmul(ad.mul(r, h), params["gru.Whh"])))
    return ad.add(h, ad.mul(z, ad.add(hh, ad.mul(h, -1.0))))


def implicit_readout(h: ad.Tensor, attn_dims: int) -> ad.Tensor:
    """softmax over nodes of the attention-channel score <h_dot, 1/sqrt(d')>."""
    scores = ad.mul(
        ad.tsum(ad.slice_axis(h, -1, 0, attn_dims), axis=-1),
        1.0 / np.sqrt(attn_dims),
    )
    return ad.softmax(scores)


def init_node_states(gt: GraphTensors, params, src_indices, attn_dims, dtype):
    """h0 = [source indicator channels : tanh(embed @ W + b)] per example."""
    b = len(src_indices)
    hdot = np.zeros((b, gt.n, attn_dims), dtype=dtype)
    hdot[np.arange(b), np.asarray(src_indices)] = 1.0 / np.sqrt(attn_dims)
    aux = ad.tanh(ad.add(ad.matmul(params["embed"], params["init.W"]),
                         params["init.b"]))
    return ad.concat([ad.Tensor(hdot), expand(aux, b, axis=0)], axis=-1)


@dataclass
class ForwardResult:
    probs: ad.Tensor  # (B, n) prediction distribution over nodes
    focused: list = field(default_factory=list)  # per-step (B, n) arrays
    flowing: list = field(default_factory=list)  # per-step (B, E) arrays


class Model:
    def __init__(self, config: ModelConfig, gt: GraphTensors, seed: int = 0):
        self.cfg, self.gt = config, gt
        self.params: dict[str, ad.Tensor] = {}
        self._build_params(np.random.default_rng(seed))

    # -- parameters -------------------------------------------------------

    def _param(self, name, value):
        t = ad.Tensor(np.array(value, dtype=self.cfg.np_dtype, order="C"),
                      requires_grad=True)
        self.params[name] = t
        return t

    def _glorot(self, rng, shape, fan_in, fan_out):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-limit, limit, size=shape)

    def _typed_glorot(self, rng, n_types, fan_in, fan_out):
        """Stack of per-type blocks, each with its own Glorot fan."""
        return np.stack(
            [self._glorot(rng, (fan_in, fan_out), fan_in, fan_out)
             for _ in range(n_types)]
        )

    def _build_params(self, rng):
        cfg, gt = self.cfg, self.gt
        d, dp, nt = cfg.dims, cfg.attn_dims, gt.n_types
        self._param("embed", self._glorot(rng, (gt.n, d), d, d))
        # rw-stationary's states are the embeddings, so it has no initial
        # map. It still draws one: perfbench's train-rw reference outputs
        # were recorded with the trans.* draws that follow it.
        init_w = self._glorot(rng, (d, d - dp), d, d - dp)
        if cfg.core != "rw-stationary":
            self._param("init.W", init_w)
            self._param("init.b", np.zeros(d - dp))

        if cfg.core == "fullgn":
            self._param("msg.W", self._typed_glorot(rng, nt, 3 * d, d))
            self._param("msg.b", np.zeros((nt, d)))
            self._param("node.W", self._glorot(rng, (4 * d, d), 4 * d, d))
            self._param("node.b", np.zeros(d))
            self._param("global.W", self._glorot(rng, (3 * d, d), 3 * d, d))
            self._param("global.b", np.zeros(d))
        elif cfg.core in ("ggnn", "gat"):
            # A GAT block maps to all heads at once; its fan-out is one head.
            hw = d // GAT_HEADS if cfg.core == "gat" else d
            self._param("msg.W", np.stack(
                [self._glorot(rng, (d, d), d, hw) for _ in range(nt)]))
            self._param("msg.b", np.zeros((nt, d)))
            if cfg.core == "gat":
                self._param("gat.a1", self._glorot(rng, (GAT_HEADS, hw), 2 * hw, 1))
                self._param("gat.a2", self._glorot(rng, (GAT_HEADS, hw), 2 * hw, 1))
            self._build_gru(rng, x_dim=2 * d)
        elif cfg.core == "rw-dynamic":
            self._param("node.W", self._glorot(rng, (3 * d, d), 3 * d, d))
            self._param("node.b", np.zeros(d))
            self._param("global.W", self._glorot(rng, (2 * d, d), 2 * d, d))
            self._param("global.b", np.zeros(d))

        if cfg.explicit_flow:
            # Packed receiver-side maps (see attnflow): W[t] = [Wo_t | w2_t],
            # b[t] = [w1_t : b_t].
            w1 = self._glorot(rng, (d, nt), d, 1)
            w2 = self._glorot(rng, (d, nt), d, 1)
            wo = self._typed_glorot(rng, nt, d, d)
            self._param("trans.W", np.concatenate([wo, w2.T[:, :, None]],
                                                  axis=2))
            self._param("trans.b", np.concatenate([w1.T, np.zeros((nt, 1))],
                                                  axis=1))
        if cfg.acting == "mulmlp":
            self._param("act.W", self._glorot(rng, (d, d), d, d))
            self._param("act.b", np.zeros(d))

    def _build_gru(self, rng, x_dim):
        # Each gate is logically a (x_dim + d) -> d linear map; its rows are
        # stored split by input block (m_bar / u / h) for the fused cell.
        d = self.cfg.dims
        gates = [self._glorot(rng, (x_dim + d, d), x_dim + d, d)
                 for _ in range(3)]  # r, z, hh
        self._param("gru.Wm", np.concatenate([g[:d] for g in gates], axis=1))
        self._param("gru.Wu", np.concatenate([g[d:2 * d] for g in gates],
                                             axis=1))
        self._param("gru.Wh", np.concatenate([g[2 * d:] for g in gates[:2]],
                                             axis=1))
        self._param("gru.Whh", gates[2][2 * d:])
        self._param("gru.b", np.zeros(3 * d))

    # -- propagation steps -------------------------------------------------
    # A step maps node and global states (h, g), this step's flowing
    # attention (None in regular variants), focused attention and slot
    # layout (GraphTensors, or the flow step's Frontier) to the next
    # (h, g). Per-edge messages are built in functions that return before
    # the node update, so they are freed before it runs.

    def _pick_step(self, states: StateRows):
        """The core's step, bound to its input from the node embeddings at
        the rows of states.

        rw-stationary has no step: its states are the embeddings, fixed
        for the whole forward and shared by the batch (a batch axis of 1).
        """
        cfg, p = self.cfg, self.params
        if cfg.core == "rw-stationary":
            return None
        u = states.pick(expand(p["embed"], states.batch[0], axis=0))
        if cfg.core == "fullgn":
            return partial(self._fullgn_step, u)
        if cfg.core == "rw-dynamic":
            return partial(self._rw_dynamic_step, u)
        # The GRU's embedding term is the same at every step.
        u_pre = ad.add(ad.matmul(u, p["gru.Wu"]), p["gru.b"])
        if cfg.core == "ggnn":
            return partial(self._ggnn_step, u_pre, *self._ggnn_weights())
        return partial(self._gat_step, u_pre, self._gat_score_maps())

    def _message_slots(self, slots):
        """Where messages are sent from: Mul and MulMlp act with the flowing
        attention, which is zero outside the step's reached rows, so they
        send from those rows only; other variants send from every node."""
        return slots if self.cfg.acting in ("mul", "mulmlp") else self.gt

    def _receive(self, messages, weight, flowing, slots):
        """Per-slot messages, weighted by weight (or None) and acted on by
        the flowing attention in flow variants, summed into their receivers
        (B, n, ...). MulMlp messages come weighted and projected by act.W
        (see attnflow.attend_message), so their weight is None."""
        p, cfg = self.params, self.cfg
        if flowing is not None:
            messages, weight = attnflow.attend_message(
                cfg.acting, flowing, messages, p.get("act.b"), weight)
        m_bar = ad.segment_sum(messages, slots, weight)
        if cfg.acting == "mulmlp":
            # A MulMlp message from an unreached sender is
            # tanh(0 * q + act.b), whatever its q.
            count = slots.unreached_in.astype(cfg.np_dtype)[..., None]
            m_bar = ad.add(m_bar, ad.mul(count, ad.tanh(p["act.b"])))
        return m_bar

    def _fullgn_messages(self, h, g, slots):
        """tanh([h_i : h_j : g] W_t + b_t) at the sender slots of slots,
        split into a sender-side map of [h_i : g] and a receiver-side map
        of h_j; in MulMlp variants, projected by act.W."""
        gt, p, d = self.gt, self.params, self.cfg.dims
        w = p["msg.W"]
        w_sender = ad.concat([ad.slice_axis(w, 1, 0, d),
                              ad.slice_axis(w, 1, 2 * d, 3 * d)], axis=1)
        sender = ad.concat([h, expand(g, gt.n, axis=1)], axis=-1)
        messages = ad.tanh(ad.add(
            ad.typed_affine(slots.senders(sender), w_sender, p["msg.b"]),
            ad.take(ad.typed_affine(slots.receivers(h),
                                    ad.slice_axis(w, 1, d, 2 * d), None),
                    slots.send)))
        if self.cfg.acting == "mulmlp":
            messages = ad.matmul(messages, p["act.W"])
        return messages

    def _ggnn_weights(self):
        """The typed message map (W_t, b_t); in MulMlp variants, with act.W
        folded in: (h_i W_t + b_t) act.W = h_i (W_t act.W) + b_t act.W.
        It is the same at every step, so a forward builds it once."""
        p = self.params
        w, b = p["msg.W"], p["msg.b"]
        if self.cfg.acting == "mulmlp":
            w, b = ad.matmul(w, p["act.W"]), ad.matmul(b, p["act.W"])
        return w, b

    def _gat_score_maps(self):
        """Typed maps of the node rows to the attention scores, one
        (W_t a, b_t . a) pair per score vector a in (gat.a1, gat.a2): since
        z_t = h W_t + b_t, head k's score is a_k . z_t[k] =
        h (W_t[:, k] a_k) + b_t[k] . a_k, an (n_types, d, heads) map and an
        (n_types, heads) bias. It is the same at every step, so a forward
        builds it once."""
        p, cfg, nt = self.params, self.cfg, self.gt.n_types
        k, hw = GAT_HEADS, cfg.dims // GAT_HEADS
        w = ad.reshape(p["msg.W"], (nt, cfg.dims, k, hw))
        b = ad.reshape(p["msg.b"], (nt, k, hw))
        return [(ad.rowdot(w, ad.reshape(p[name], (1, 1, k, hw))),
                 ad.rowdot(b, ad.reshape(p[name], (1, k, hw))))
                for name in ("gat.a1", "gat.a2")]

    def _gat_messages(self, h, score_maps):
        """Per-slot, per-head messages z_i (B, n, n_types, heads, d / heads)
        and their weights alpha_ij (B, n, n_types, heads), the attention
        normalized over each receiver's incoming edges in receiver slots."""
        gt, p, cfg = self.gt, self.params, self.cfg
        k, hw = GAT_HEADS, cfg.dims // GAT_HEADS
        z = ad.reshape(ad.typed_affine(h, p["msg.W"], p["msg.b"]),
                       (-1, gt.n, gt.n_types, k, hw))
        # a1 . z_i is read from the sender's slot; a2 . z_j is node j's own
        # (node, type) map, so it is already in receiver slots.
        s_i, s_j = (ad.typed_affine(h, w, b) for w, b in score_maps)
        alpha = ad.take(ad.segment_softmax(
            ad.leaky_relu(ad.add(ad.take(s_i, gt.recv), s_j)),
            gt.recv_pad, axis=2), gt.send)
        return z, alpha

    def _fullgn_step(self, u, h, g, flowing, focused, slots):
        p, slots = self.params, self._message_slots(slots)
        m_bar = self._receive(self._fullgn_messages(h, g, slots), None,
                              flowing, slots)
        feats = ad.concat([h, m_bar, u, expand(g, self.gt.n, axis=1)], axis=-1)
        h_next = ad.tanh(ad.add(ad.matmul(feats, p["node.W"]), p["node.b"]))
        gfeat = ad.concat([g, ad.tmean(h, axis=1), ad.tmean(m_bar, axis=1)],
                          axis=-1)
        g_next = ad.tanh(ad.add(ad.matmul(gfeat, p["global.W"]), p["global.b"]))
        return h_next, g_next

    def _ggnn_step(self, u_pre, w, b, h, g, flowing, focused, slots):
        slots = self._message_slots(slots)
        m_bar = self._receive(ad.typed_affine(slots.senders(h), w, b), None,
                              flowing, slots)
        return gru(h, m_bar, u_pre, self.params, self.cfg.dims), g

    def _gat_step(self, u_pre, score_maps, h, g, flowing, focused, slots):
        # The attention of an edge is normalized over all the receiver's
        # senders, reached or not, so z and alpha are computed at every node.
        slots = self._message_slots(slots)
        z, alpha = self._gat_messages(h, score_maps)
        z, alpha = slots.senders(z), slots.senders(alpha)
        if self.cfg.acting == "mulmlp":
            # MulMlp acts on the alpha-weighted messages, projected by act.W.
            weighted = ad.mul(z, ad.reshape(alpha, alpha.shape + (1,)))
            z = ad.matmul(ad.reshape(weighted, z.shape[:3] + (-1,)),
                          self.params["act.W"])
            alpha = None
        m_bar = self._receive(z, alpha, flowing, slots)
        return gru(h, ad.reshape(m_bar, h.shape), u_pre, self.params,
                   self.cfg.dims), g

    def _rw_dynamic_step(self, u, h, g, flowing, focused, slots):
        p = self.params
        feats = ad.concat([h, u, expand(g, self.gt.n, axis=1)], axis=-1)
        h_next = ad.tanh(ad.add(ad.matmul(feats, p["node.W"]), p["node.b"]))
        h_bar = ad.tsum(ad.mul(h, ad.reshape(focused, focused.data.shape + (1,))),
                        axis=1)
        gfeat = ad.concat([g, h_bar], axis=-1)
        g_next = ad.tanh(ad.add(ad.matmul(gfeat, p["global.W"]), p["global.b"]))
        return h_next, g_next

    # -- forward -----------------------------------------------------------

    def _kept_rows(self, b, reach):
        """(b, n) bool: the rows at which the forward keeps its per-row
        tensors (StateRows). A GGNN-Mul or GGNN-MulMlp state is read only by
        its own row's GRU and by transitions and acted messages at reached
        rows, all within the last step's reach, so the other rows' states
        are never computed (README, "Numerics notes"). The other variants
        read states at every node: FullGN's global state averages them, a
        GAT receiver's softmax reads unreached senders' scores, regular and
        noact messages leave every node, and rw-dynamic is unmeasured.
        """
        if self.cfg.core == "ggnn" and self.cfg.acting in ("mul", "mulmlp"):
            return reach[-1]
        return np.ones((b, self.gt.n), dtype=bool)

    def _sources(self, src_indices) -> np.ndarray:
        """The source indices as an int64 array; ValueError unless they
        are a non-empty 1-D array of node indices 0..n-1."""
        src = np.asarray(src_indices, dtype=np.int64)
        if src.ndim != 1 or len(src) == 0:
            raise ValueError("source indices must be a non-empty 1-D array, "
                             f"got shape {src.shape}")
        if src.min() < 0 or src.max() >= self.gt.n:
            raise ValueError("source index outside the node set")
        return src

    def forward(self, src_indices, trace: bool = False) -> ForwardResult:
        cfg, gt, p = self.cfg, self.gt, self.params
        src = self._sources(src_indices)
        dtype = cfg.np_dtype
        result = ForwardResult(probs=None)
        # States that change need a new transition every step, at the rows
        # the focused attention has reached; the fixed rw-stationary states
        # need one for the whole forward, shared by the batch.
        reach = None
        if cfg.explicit_flow and cfg.core != "rw-stationary":
            reach = gt.reach(src, cfg.steps)
        states = StateRows(self._kept_rows(len(src), reach))
        step = self._pick_step(states)
        if step is None:
            h, g = ad.reshape(p["embed"], (1, gt.n, cfg.dims)), None
        else:
            h = states.pick(init_node_states(gt, p, src, cfg.attn_dims, dtype))
            g = ad.Tensor(np.zeros((len(src), cfg.dims), dtype=dtype))

        focused = focused_next = flowing = transition = None
        slots = gt
        if cfg.explicit_flow:
            focused = states.pick(attnflow.onehot_focus(gt.n, src, dtype))
            if trace:
                result.focused.append(states.dense(focused).data.copy())

        # A flow variant's prediction reads its states only through the
        # transitions, so its last step makes none; a regular variant reads
        # out the states of its last step.
        updates = cfg.steps - 1 if cfg.explicit_flow else cfg.steps
        for t in range(cfg.steps):
            if cfg.explicit_flow:
                if reach is not None:
                    slots = Frontier(gt, reach[t], reach[t + 1], states)
                if reach is not None or transition is None:
                    transition = attnflow.transition_matrix(
                        attnflow.transition_logits(h, slots, p["trans.W"],
                                                   p["trans.b"]), slots)
                flowing, focused_next = attnflow.flow_step(focused, transition,
                                                           slots)
                if trace:
                    values = flowing.data
                    if slots is not gt:
                        values = slots.dense(values)
                    result.flowing.append(gt.edge_values(values))
                    result.focused.append(
                        states.dense(focused_next).data.copy())
            if step is not None and t < updates:
                h, g = step(h, g, flowing, focused, slots)
                self._check_finite(h)
            focused = focused_next

        result.probs = (states.dense(focused) if cfg.explicit_flow
                        else implicit_readout(h, cfg.attn_dims))
        return result

    def _check_finite(self, h):
        if not np.all(np.isfinite(h.data)):
            raise FloatingPointError("non-finite node states during propagation")

    def loss(self, src_indices, dst_indices) -> ad.Tensor:
        """Mean -log p(dst) under the model's prediction distribution."""
        return attnflow.flow_loss(self.forward(src_indices).probs, dst_indices)

    def predict(self, src_indices) -> np.ndarray:
        """Prediction distributions (B, n) under no_grad; FloatingPointError
        if any is not finite (rw-stationary has no node state to check).

        Forward runs on chunks of at most MICROBATCH_SIZE examples. The
        per-slot tensors grow with the batch: at 64 examples on the
        32-grid presets, the message cores' (B, n, 9, d) and rw-dynamic's
        per-batch transition maps (B, n, 9, d+1) are about 85-97 MB at
        float32. A flow step's transition and Mul/MulMlp messages are
        per-slot at its reached rows only, but on LINE its last steps
        reach 40-46% of the rows of 64 valid pairs, about 34-39 MB. Both
        are above glibc's 32 MiB mmap threshold, so every op output would
        be a fresh mapping whose pages the kernel faults in and zeroes,
        and a bigger chunk is slower per example. rw-stationary shares one
        transition across the batch and holds nothing per slot wider than
        (B, n, 9), so it runs one forward per call.
        """
        src = self._sources(src_indices)
        shared = self.cfg.core == "rw-stationary"
        chunk = len(src) if shared else MICROBATCH_SIZE
        with ad.no_grad():
            probs = np.concatenate([self.forward(src[lo:lo + chunk]).probs.data
                                    for lo in range(0, len(src), chunk)])
        # The sum of probabilities is finite exactly when each of them is,
        # and it makes no (B, n) temporary: one made here raised eval-gat's
        # peak RSS by 3.6 MB, allocated among the freed chunk outputs.
        if not np.isfinite(probs.sum()):
            raise FloatingPointError("non-finite predictions")
        return probs

    # -- checkpoints -------------------------------------------------------

    def state_dict(self) -> dict:
        return {name: t.data.copy() for name, t in self.params.items()}

    def load_state_dict(self, state: dict) -> None:
        missing = sorted(self.params.keys() - state.keys())
        unexpected = sorted(state.keys() - self.params.keys())
        if missing or unexpected:
            raise ValueError(
                f"checkpoint does not match a {self.cfg.name} model: "
                f"missing parameters {missing}, unexpected {unexpected}")
        for name, t in self.params.items():
            value = np.asarray(state[name])
            if value.shape != t.data.shape:
                raise ValueError(
                    f"checkpoint shape {value.shape} does not match "
                    f"parameter {name!r} shape {t.data.shape}"
                )
            t.data = np.array(value, dtype=t.data.dtype, order="C")
