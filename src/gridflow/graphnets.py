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
# a GGNN-MulMlp training microbatch (forward and backward) raises peak RSS
# by 71 MB at 1 example and about 16 MB per further one, GGNN-Mul by
# 69 MB and 15 MB, GGNN by 91 MB and 9 MB and GAT by 132 MB and 13 MB
# (1 and 4 examples, glibc's default malloc, one BLAS thread): the light
# cone's background pass is the part paid once. perfbench's reference
# losses are recorded per microbatch of this size.
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
    def updates(self) -> int:
        """Node updates per forward. A flow variant's prediction reads its
        states only through the transitions, so its last step makes none; a
        regular variant reads out the states of its last step."""
        return self.steps - 1 if self.explicit_flow else self.steps

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
    pads with pads. src_type is each edge's flat sender slot.
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

    # As a slot layout (see Frontier), the whole graph: every node's slots,
    # received in place. As the rows of a light cone's background pass (see
    # Cone), every node, each its own state row, with no flowing attention
    # and every sender unreached.
    states = nodes = frontier = None

    def senders(self, x):
        return x

    receivers = senders

    @cached_property
    def unreached_in(self):
        return np.count_nonzero(~self.recv_pad, axis=1)

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
    (1, len(rows), ...); x itself where rows is None."""
    if rows is None:
        return x
    return ad.take(ad.reshape(x, (1, -1) + x.shape[2:]), rows)


def pool_rows(kept: np.ndarray) -> np.ndarray:
    """(B * n,) the row of each flat (example, node) row of a batch in a
    light-cone pool (see Cone): the kept rows ((B, n) mask kept), m of
    them in ascending flat row, then n background rows. A kept row is its
    own pool row, and any other row its node's background row."""
    rows = np.flatnonzero(kept)
    at = len(rows) + np.arange(kept.size) % kept.shape[1]
    at[rows] = np.arange(len(rows))
    return at


def dense(x, kept):
    """A pool x (1, m + n, ...) of the rows of kept (see pool_rows) as the
    batch's dense rows, (B, n, ...)."""
    return ad.reshape(take_rows(x, pool_rows(kept)), kept.shape + x.shape[2:])


def receiver_slots(gt: GraphTensors, rows, row_of):
    """The receiver slots (see autodiff.segment_sum) of flat (example,
    node) rows of a batch, a light cone's background rows counted as one
    more example: (recv, recv_pad), each (len(rows), n_types). A row reads
    each in-neighbour's sender slot in row row_of[the neighbour's flat
    row]; where that is -1, or the node has no incoming edge of the type,
    the receiver slot is a pad and recv is -1."""
    nt = gt.n_types
    node = rows % gt.n
    sender = row_of[(rows - node)[:, None] + gt.recv[node] // nt]
    recv_pad = gt.recv_pad[node] | (sender < 0)
    return np.where(recv_pad, -1, sender * nt + np.arange(nt)), recv_pad


class Frontier:
    """The slot layout of one flow step t, at the rows its focused
    attention has reached.

    The focused attention starts one-hot at the source and moves at most
    one hop a step, so at step t it is exactly zero outside the nodes
    within t hops (GraphTensors.reach). There the flowing attention
    T_ij a_i is T_ij times 0, in forward and backward alike, so the
    transition and the acted messages are computed at the reached rows
    only. reached and ring are (B, n) masks: the reached sender rows,
    reach[t], and the rows within one more hop, reach[t + 1], which
    receive and whose receiver-side maps the transition reads. The focused
    attention of step t lives at the reached rows, (1, k), and receives
    into the ring rows, (1, k'), both in ascending flat row; so do the
    per-slot tensors, (1, k, n_types, ...), and the received sums.

    at maps each flat row of the batch to its row in the node states'
    layout: itself for the dense (B, n) states of FullGN and rw-dynamic,
    pool_rows for a Cone's. sender_rows and ring_rows are the reached and
    ring rows there. recv and recv_pad are the ring rows' receiver slots
    (see receiver_slots): senders outside the reach are pads, recv -1.
    send maps each reached sender slot to its receiver slot, -1 at the
    pads. unreached_in counts the incoming edges from senders outside the
    reach at the ring rows.
    """

    def __init__(self, gt: GraphTensors, reached, ring, at):
        nt = gt.n_types
        self._gt, self.ring = gt, ring
        rows, ring = np.flatnonzero(reached), np.flatnonzero(ring)
        self.sender_rows, self.ring_rows = at[rows], at[ring]
        self.pad = gt.pad[rows % gt.n]
        rank = np.full(reached.size, -1)
        rank[rows] = np.arange(len(rows))
        self.recv, self.recv_pad = receiver_slots(gt, ring, rank)
        real = np.flatnonzero(~self.recv_pad)
        send = np.full(len(rows) * nt, -1)
        send[self.recv.reshape(-1)[real]] = real
        self.send = send.reshape(-1, nt)
        self._node = ring % gt.n

    @cached_property
    def unreached_in(self):
        return (self._gt.unreached_in[self._node]
                - np.count_nonzero(~self.recv_pad, axis=1))

    def senders(self, x):
        """Per-row x, in the states' layout, at the reached rows:
        (1, k, ...)."""
        return take_rows(x, self.sender_rows)

    def receivers(self, x):
        """Per-row x, in the states' layout, at the ring rows:
        (1, k', ...)."""
        return take_rows(x, self.ring_rows)


class Cone:
    """The ring pass of one GGNN or GAT update, from step t to t + 1.

    h0 is [source indicator : tanh(embed W + b)], so the examples of a
    batch differ only at their sources. An update at node v reads v's own
    state, its in-neighbours' states and terms that do not depend on the
    example; a flow variant's messages also read the flowing attention,
    which is zero outside reach[t]. So, by induction, at every node
    outside reach[t] each example's state is one background bg_t, the
    state of an example with no source, which the batch shares. A forward
    keeps the states of step t as a pool, (1, k + n, d): the per-example
    rows of reach[t] (k of them, in ascending flat row), then the n rows
    of bg_t (pool_rows maps each flat row there).

    An update runs in two passes. The background pass (Model.background)
    updates bg_t to bg_t+1 over the whole graph, with GraphTensors as its
    layout: no example and no flowing attention. The ring pass, this
    layout, updates only the per-example rows of reach[t + 1] and reads
    the pool: states and nodes are each of those rows' own state row in it
    and its node. recv and recv_pad are their receiver slots (see
    receiver_slots) over sender_rows, the pool rows that they read: the k
    per-example rows, then the background rows of the senders outside an
    example's reach[t], in ascending row. A background row is read there
    by every example whose ring it sends to, so background slots are read
    by several rows. Mul and MulMlp messages leave the reached rows only,
    through frontier, the flow step's Frontier, so recv is built on first
    use.
    """

    send = None  # background slots are read by several rows

    def __init__(self, gt: GraphTensors, reach, t, at, frontier=None):
        self._rows = np.flatnonzero(reach[t + 1])
        self._k = int(np.count_nonzero(reach[t]))
        self._gt, self._at, self.frontier = gt, at, frontier
        self.nodes = self._rows % gt.n
        self.states = at[self._rows]

    @property
    def unreached_in(self):
        return self.frontier.unreached_in

    def senders(self, x):
        """Per-row x, in the pool, at sender_rows: (1, k + m, ...)."""
        return take_rows(x, self.sender_rows)

    @cached_property
    def _receivers(self):
        nt = self._gt.n_types
        recv, recv_pad = receiver_slots(self._gt, self._rows, self._at)
        # every per-example row reads itself through its selfloop
        read = np.zeros(self._k + self._gt.n, dtype=bool)
        read[recv[~recv_pad] // nt] = True
        compact = np.cumsum(read) - 1
        recv = np.where(recv_pad, -1, compact[recv // nt] * nt + recv % nt)
        return recv, recv_pad, np.flatnonzero(read)

    recv = property(lambda self: self._receivers[0])
    recv_pad = property(lambda self: self._receivers[1])
    sender_rows = property(lambda self: self._receivers[2])


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


def source_rows(kept, src_indices) -> np.ndarray:
    """The row of each example's source among the kept rows ((B, n) mask,
    ascending flat row), which hold every source."""
    b, n = kept.shape
    return np.searchsorted(np.flatnonzero(kept), np.arange(b) * n + src_indices)


def init_background(gt: GraphTensors, params, attn_dims, dtype):
    """bg_0 = [0 : tanh(embed @ W + b)], (1, n, d): the initial node states
    of an example with no source."""
    aux = ad.tanh(ad.add(ad.matmul(params["embed"], params["init.W"]),
                         params["init.b"]))
    return ad.concat([ad.Tensor(np.zeros((1, gt.n, attn_dims), dtype=dtype)),
                      ad.reshape(aux, (1,) + aux.shape)], axis=-1)


def init_node_states(background, src_indices, attn_dims, kept=None):
    """h0 per example: bg_0 (background) with 1/sqrt(d') in its attention
    channels at the example's source. (B, n, d) at every row, or, given
    kept, the (B, n) mask of the per-example rows of a light-cone pool
    (see Cone), which hold the sources, at those rows: (1, k, d)."""
    b, (_, n, d) = len(src_indices), background.shape
    dtype, c = background.data.dtype, 1.0 / np.sqrt(attn_dims)
    if kept is None:
        indicator = np.zeros((b, n, d), dtype=dtype)
        indicator[np.arange(b), src_indices, :attn_dims] = c
        return ad.add(background, indicator)
    rows = np.flatnonzero(kept)
    indicator = np.zeros((1, len(rows), d), dtype=dtype)
    indicator[0, source_rows(kept, src_indices), :attn_dims] = c
    return ad.add(take_rows(background, rows % n), indicator)


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
    # attention (None in regular variants), focused attention (dense, read
    # by rw-dynamic only) and layout to the next (h, g). The layout is
    # GraphTensors, the flow step's Frontier, or for GGNN and GAT either
    # GraphTensors, in the background pass, whose background states h
    # are, or the ring pass's Cone, whose pool h is; a ring pass returns
    # the per-example rows only. Per-edge messages are built in functions
    # that return before the node update, so they are freed before it
    # runs.

    def _pick_step(self, b):
        """The core's step for a batch of b, bound to its input from the
        node embeddings.

        rw-stationary has no step: its states are the embeddings, fixed
        for the whole forward and shared by the batch (a batch axis of 1).
        """
        cfg, p = self.cfg, self.params
        if cfg.core == "rw-stationary":
            return None
        if cfg.core == "fullgn":
            return partial(self._fullgn_step, expand(p["embed"], b, axis=0))
        if cfg.core == "rw-dynamic":
            return partial(self._rw_dynamic_step,
                           expand(p["embed"], b, axis=0))
        # The GRU's embedding term is the same at every step and for every
        # example: one row per node, picked for each row of a Cone.
        u_pre = ad.add(ad.matmul(ad.reshape(p["embed"], (1, self.gt.n, -1)),
                                 p["gru.Wu"]), p["gru.b"])
        if cfg.core == "ggnn":
            return partial(self._ggnn_step, u_pre, *self._ggnn_weights())
        return partial(self._gat_step, u_pre, self._gat_score_maps())

    def _receive(self, messages, weight, flowing, slots):
        """Per-slot messages, weighted by weight (in the receiver slots, or
        None) and acted on by the flowing attention in flow variants,
        summed into the receiver rows of slots. MulMlp messages come
        weighted and projected by act.W (see attnflow.attend_message), so
        their weight is None."""
        if flowing is not None:
            messages, weight = attnflow.attend_message(
                self.cfg.acting, flowing, messages, slots,
                self.params.get("act.b"), weight)
        return ad.segment_sum(messages, slots, weight)

    def _unreached(self, m, count):
        """Mul or MulMlp messages m received from reached senders (None in
        the background, which has none), plus those from each row's count
        of unreached senders: a Mul message from an unreached sender is
        zero, and a MulMlp one tanh(0 * q + act.b), whatever its q."""
        cfg = self.cfg
        if m is None:
            m = ad.Tensor(np.zeros((1, len(count), cfg.dims),
                                   dtype=cfg.np_dtype))
        if cfg.acting == "mulmlp":
            count = count.astype(cfg.np_dtype)[None, :, None]
            m = ad.add(m, ad.mul(count, ad.tanh(self.params["act.b"])))
        return m

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

    def _acted(self):
        """Whether the flowing attention scales the messages, so that they
        leave the reached rows only."""
        return self.cfg.acting in ("mul", "mulmlp")

    def _fullgn_step(self, u, h, g, flowing, focused, slots):
        p, acted = self.params, self._acted()
        if not acted:  # messages leave every node, as they are
            slots, flowing = self.gt, None
        m_bar = self._receive(self._fullgn_messages(h, g, slots), None,
                              flowing, slots)
        if acted:  # the rows outside the ring read the background's
            m_bar = dense(ad.concat([
                self._unreached(m_bar, slots.unreached_in),
                self._unreached(None, self.gt.unreached_in)], axis=1),
                slots.ring)
        feats = ad.concat([h, m_bar, u, expand(g, self.gt.n, axis=1)], axis=-1)
        h_next = ad.tanh(ad.add(ad.matmul(feats, p["node.W"]), p["node.b"]))
        gfeat = ad.concat([g, ad.tmean(h, axis=1), ad.tmean(m_bar, axis=1)],
                          axis=-1)
        g_next = ad.tanh(ad.add(ad.matmul(gfeat, p["global.W"]), p["global.b"]))
        return h_next, g_next

    def _ggnn_step(self, u_pre, w, b, h, g, flowing, focused, rows):
        fr = rows.frontier
        if not self._acted():
            m_bar = ad.segment_sum(ad.typed_affine(rows.senders(h), w, b),
                                   rows)
        else:
            m_bar = None  # the background (no frontier) has no reached sender
            if fr is not None:
                m_bar = self._receive(ad.typed_affine(fr.senders(h), w, b),
                                      None, flowing, fr)
            m_bar = self._unreached(m_bar, rows.unreached_in)
        return gru(take_rows(h, rows.states), m_bar,
                   take_rows(u_pre, rows.nodes), self.params,
                   self.cfg.dims), g

    def _gat_step(self, u_pre, score_maps, h, g, flowing, focused, rows):
        states = take_rows(h, rows.states)
        if self._acted() and rows.frontier is None:
            m_bar = self._unreached(None, rows.unreached_in)
        else:
            m_bar = self._gat_messages(score_maps, h, states, flowing, rows)
        return gru(states, ad.reshape(m_bar, states.shape),
                   take_rows(u_pre, rows.nodes), self.params,
                   self.cfg.dims), g

    def _gat_messages(self, score_maps, h, states, flowing, rows):
        """z_i (per slot and head) weighted by alpha_ij, the attention
        normalized over each receiver's incoming edges in its receiver
        slots, received at rows. A receiver's softmax reads the scores of
        every sender, the background's included. Mul and MulMlp messages
        leave the reached rows only, so the background, which has none,
        needs no attention (see _gat_step)."""
        p, cfg, nt = self.params, self.cfg, self.gt.n_types
        k, hw = GAT_HEADS, cfg.dims // GAT_HEADS
        acted, fr = self._acted(), rows.frontier
        # a1 . z_i is read from the sender's slot; a2 . z_j is node j's own
        # (node, type) map, so it is already in receiver slots.
        (w1, b1), (w2, b2) = score_maps
        senders = rows.senders(h)
        alpha = ad.segment_softmax(ad.leaky_relu(ad.add(
            ad.take(ad.typed_affine(senders, w1, b1), rows.recv),
            ad.typed_affine(states, w2, b2))), rows.recv_pad)
        if acted:
            senders = fr.senders(h)
        z = ad.reshape(ad.typed_affine(senders, p["msg.W"], p["msg.b"]),
                       senders.shape[:2] + (nt, k, hw))
        if not acted:
            return ad.segment_sum(z, rows, alpha)
        if cfg.acting == "mulmlp":
            # MulMlp acts on the alpha-weighted messages, projected by
            # act.W, in the sender slots.
            alpha = ad.take(alpha, fr.send)
            weighted = ad.mul(z, ad.reshape(alpha, alpha.shape + (1,)))
            z = ad.matmul(ad.reshape(weighted, z.shape[:3] + (-1,)),
                          p["act.W"])
            alpha = None
        return self._unreached(self._receive(z, alpha, flowing, fr),
                               rows.unreached_in)

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

    def background(self, step=None):
        """The node states that every example of a batch shares: bg_0, the
        states of an example with no source (init_background), and, for
        GGNN and GAT, those of each of its updates by the background pass
        (see Cone), one (1, n, d) Tensor per step; None for rw-stationary,
        which has no node update. step is the core's step (_pick_step),
        built here when None."""
        cfg = self.cfg
        if cfg.core == "rw-stationary":
            return None
        bg = [init_background(self.gt, self.params, cfg.attn_dims,
                              cfg.np_dtype)]
        if cfg.core in ("ggnn", "gat"):
            step = self._pick_step(0) if step is None else step
            for _ in range(cfg.updates):
                bg.append(step(bg[-1], None, None, None, self.gt)[0])
                self._check_finite(bg[-1])
        return bg

    def forward(self, src_indices, trace: bool = False,
                background=None) -> ForwardResult:
        """The prediction of each source, with the focused and flowing
        attention of every step if trace. background is the batch's shared
        states (Model.background), built here when None: predict builds
        them once for all its chunks."""
        cfg, gt, p = self.cfg, self.gt, self.params
        src = self._sources(src_indices)
        b, n, dtype = len(src), gt.n, cfg.np_dtype
        result = ForwardResult(probs=None)
        cone = cfg.core in ("ggnn", "gat")
        # GGNN and GAT keep their states in a light cone (Cone); the other
        # stepped flow variants keep them at every row, and need the reach
        # for their Frontiers only. The fixed rw-stationary states need one
        # transition for the whole forward, shared by the batch.
        reach = None
        if cone or (cfg.explicit_flow and cfg.core != "rw-stationary"):
            reach = gt.reach(src, cfg.steps)
        step = self._pick_step(b)
        if step is None:
            h, g = ad.reshape(p["embed"], (1, n, cfg.dims)), None
        else:
            bg = self.background(step) if background is None else background
            h = init_node_states(bg[0], src, cfg.attn_dims,
                                 reach[0] if cone else None)
            if cone:
                h = ad.concat([h, bg[0]], axis=1)
            g = ad.Tensor(np.zeros((b, cfg.dims), dtype=dtype))

        def dense_at(x, t):
            """Per-row x at the rows of reach[t], (1, k, ...), as the
            batch's rows (B, n, ...), zero at every other row."""
            if reach is None:
                return x
            zeros = np.zeros((1, n) + x.shape[2:], dtype=dtype)
            return dense(ad.concat([x, zeros], axis=1), reach[t])

        focused = focused_next = flowing = transition = None
        slots = layout = gt
        if cfg.explicit_flow:
            if reach is None:
                focused = attnflow.onehot_focus(n, src, dtype)
            else:
                a0 = np.zeros((1, np.count_nonzero(reach[0])), dtype=dtype)
                a0[0, source_rows(reach[0], src)] = 1.0
                focused = ad.Tensor(a0)
            if trace:
                result.focused.append(dense_at(focused, 0).data.copy())

        for t in range(cfg.steps):
            update = step is not None and t < cfg.updates
            if reach is not None:
                at = pool_rows(reach[t]) if cone else np.arange(b * n)
                frontier = None
                if cfg.explicit_flow:
                    slots = layout = frontier = Frontier(gt, reach[t],
                                                         reach[t + 1], at)
                if cone and update:
                    layout = Cone(gt, reach, t, at, frontier)
            if cfg.explicit_flow:
                if reach is not None or transition is None:
                    transition = attnflow.transition_matrix(
                        attnflow.transition_logits(h, slots, p["trans.W"],
                                                   p["trans.b"]), slots)
                flowing, focused_next = attnflow.flow_step(focused, transition,
                                                           slots)
                if trace:
                    result.flowing.append(
                        gt.edge_values(dense_at(flowing, t).data))
                    result.focused.append(
                        dense_at(focused_next, t + 1).data.copy())
            if update:
                read = (dense_at(focused, t) if cfg.core == "rw-dynamic"
                        else None)
                h, g = step(h, g, flowing, read, layout)
                self._check_finite(h)
                if cone:
                    h = ad.concat([h, bg[t + 1]], axis=1)
            focused = focused_next

        if cfg.explicit_flow:
            result.probs = dense_at(focused, cfg.steps)
        else:
            result.probs = implicit_readout(
                dense(h, reach[-1]) if cone else h, cfg.attn_dims)
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

        A prediction depends on the source and the parameters alone, so
        each distinct source is predicted once and its row repeated for
        every pair that has it. The background states that a batch shares
        (Model.background) are built once per call: for GGNN and GAT that
        is the background pass of every update (see Cone), so each chunk
        runs the ring passes only.

        Forward runs on chunks of at most MICROBATCH_SIZE distinct
        sources. The per-slot tensors grow with the chunk: at 64 examples
        on the 32-grid presets, FullGN's messages (B, n, 9, d) and
        rw-dynamic's per-batch transition maps (B, n, 9, d+1) are about
        82-97 MB at float32. GGNN's and GAT's (.., 9, d) messages cover
        the reach and the background rows that a light cone's ring pass
        reads: with all n background rows, at the largest step of a chunk
        of 64 valid pairs, 38-59 MB on LINE and 41-55 MB on SINE. A flow
        step's transition and Mul/MulMlp messages are
        per-slot at its reached rows only, but its last step reaches
        45-70% of the rows of 64 valid pairs on LINE, 36-57 MB. All are
        above glibc's 32 MiB mmap threshold, so every op output would be a
        fresh mapping whose pages the kernel faults in and zeroes, and a
        bigger chunk is slower per example. rw-stationary shares one
        transition across the batch and holds nothing per slot wider than
        (B, n, 9), so it runs one forward per call.
        """
        src = self._sources(src_indices)
        sources, pairs = np.unique(src, return_inverse=True)
        shared = self.cfg.core == "rw-stationary"
        chunk = len(sources) if shared else MICROBATCH_SIZE
        with ad.no_grad():
            background = self.background()
            probs = np.concatenate([
                self.forward(sources[lo:lo + chunk],
                             background=background).probs.data
                for lo in range(0, len(sources), chunk)])
        # The sum of probabilities is finite exactly when each of them is,
        # and it makes no (B, n) temporary: one made here raised eval-gat's
        # peak RSS by 3.6 MB, allocated among the freed chunk outputs.
        if not np.isfinite(probs.sum()):
            raise FloatingPointError("non-finite predictions")
        return probs[pairs]

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
