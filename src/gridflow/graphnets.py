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
from functools import partial

import numpy as np

from . import attnflow
from . import autodiff as ad
from .grid import GridGraph, N_EDGE_TYPES

# Examples per forward: per training microbatch (gradients accumulate
# across them) and per chunk of Model.predict. On the 32-grid presets, peak
# RSS grows by about 165 MB per example in a training microbatch. perfbench's
# reference losses are recorded per microbatch of this size.
MICROBATCH_SIZE = 4

MODEL_NAMES = [
    f"{core}{suffix}"
    for core in ("fullgn", "ggnn", "gat")
    for suffix in ("", "-noact", "-mul", "-mulmlp")
] + ["rw-stationary", "rw-dynamic"]


@dataclass
class ModelConfig:
    name: str = "ggnn"  # one of MODEL_NAMES
    dims: int = 40
    attn_dims: int = 8
    heads: int = 5
    steps: int = 16
    dtype: str = "float32"

    def __post_init__(self):
        if self.name not in MODEL_NAMES:
            raise ValueError(f"unknown model {self.name!r}; valid models: "
                             f"{', '.join(MODEL_NAMES)}")
        if not self.attn_dims < self.dims:
            raise ValueError("attn_dims must be smaller than dims")
        if self.core == "gat" and self.dims % self.heads:
            raise ValueError("gat needs dims divisible by heads")

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
    pad and recv_pad, (n, n_types). recv (n * n_types,) gives the flat
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
        self.recv = np.empty(n * nt, dtype=np.int64)
        self.recv[dst_type] = self.src_type
        self.recv[self.recv_pad.reshape(-1)] = np.flatnonzero(self.pad)
        self.send = np.empty_like(self.recv)
        self.send[self.recv] = np.arange(n * nt)
        self.receiver = (self.send // nt).reshape(n, nt)

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
    return ad.softmax(scores, axis=-1)


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
    def __init__(self, config: ModelConfig, graph_or_tensors, seed: int = 0):
        self.cfg = config
        self.gt = (graph_or_tensors if isinstance(graph_or_tensors, GraphTensors)
                   else GraphTensors(graph_or_tensors))
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
            hw = d // cfg.heads if cfg.core == "gat" else d
            self._param("msg.W", np.stack(
                [self._glorot(rng, (d, d), d, hw) for _ in range(nt)]))
            self._param("msg.b", np.zeros((nt, d)))
            if cfg.core == "gat":
                self._param("gat.a1", self._glorot(rng, (cfg.heads, hw), 2 * hw, 1))
                self._param("gat.a2", self._glorot(rng, (cfg.heads, hw), 2 * hw, 1))
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
    # attention (None in regular variants) and focused attention to the
    # next (h, g). Per-edge messages are built in functions that return
    # before the node update, so they are freed before it runs.

    def _pick_step(self, b):
        """The core's step, bound to its input from the node embeddings for
        a batch of b.

        rw-stationary has no step: its states are the embeddings, fixed
        for the whole forward and shared by the batch (a batch axis of 1).
        """
        cfg, p = self.cfg, self.params
        if cfg.core == "rw-stationary":
            return None
        u = expand(p["embed"], b, axis=0)
        if cfg.core == "fullgn":
            return partial(self._fullgn_step, u)
        if cfg.core == "rw-dynamic":
            return partial(self._rw_dynamic_step, u)
        # The GRU's embedding term is the same at every step.
        u_pre = ad.add(ad.matmul(u, p["gru.Wu"]), p["gru.b"])
        if cfg.core == "ggnn":
            return partial(self._ggnn_step, u_pre, *self._ggnn_weights())
        return partial(self._gat_step, u_pre, self._gat_score_maps())

    def _receive(self, messages, flowing, folded=False):
        """Per-slot messages, acted on by the flowing attention in flow
        variants, summed into their receivers. folded: the messages already
        carry MulMlp's projection by act.W."""
        p = self.params
        if flowing is not None:
            messages = attnflow.attend_message(
                self.cfg.acting, flowing, messages,
                None if folded else p.get("act.W"), p.get("act.b"))
        gt = self.gt
        return ad.segment_sum(messages, gt.recv, gt.recv_pad, gt.receiver,
                              gt.pad)

    def _fullgn_messages(self, h, g):
        """tanh([h_i : h_j : g] W_t + b_t), split into a sender-side map of
        [h_i : g] and a receiver-side map of h_j."""
        gt, p, d = self.gt, self.params, self.cfg.dims
        w = p["msg.W"]
        w_sender = ad.concat([ad.slice_axis(w, 1, 0, d),
                              ad.slice_axis(w, 1, 2 * d, 3 * d)], axis=1)
        sender = ad.concat([h, expand(g, gt.n, axis=1)], axis=-1)
        return ad.tanh(ad.add(
            ad.typed_affine(sender, w_sender, p["msg.b"]),
            ad.take(ad.typed_affine(h, ad.slice_axis(w, 1, d, 2 * d), None),
                    gt.send)))

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
        k, hw = cfg.heads, cfg.dims // cfg.heads
        w = ad.reshape(p["msg.W"], (nt, cfg.dims, k, hw))
        b = ad.reshape(p["msg.b"], (nt, k, hw))
        return [(ad.rowdot(w, ad.reshape(p[name], (1, 1, k, hw))),
                 ad.rowdot(b, ad.reshape(p[name], (1, k, hw))))
                for name in ("gat.a1", "gat.a2")]

    def _gat_messages(self, h, score_maps):
        """Per-slot messages z_i alpha_ij, with the attention alpha
        normalized over each receiver's incoming edges in receiver slots."""
        gt, p, cfg = self.gt, self.params, self.cfg
        k, hw = cfg.heads, cfg.dims // cfg.heads
        z = ad.reshape(ad.typed_affine(h, p["msg.W"], p["msg.b"]),
                       (-1, gt.n, gt.n_types, k, hw))
        # a1 . z_i is read from the sender's slot; a2 . z_j is node j's own
        # (node, type) map, so it is already in receiver slots.
        s_i, s_j = (ad.typed_affine(h, w, b) for w, b in score_maps)
        alpha = ad.take(ad.segment_softmax(
            ad.leaky_relu(ad.add(ad.take(s_i, gt.recv), s_j)),
            gt.recv_pad, axis=2), gt.send)
        weighted = ad.mul(z, ad.reshape(alpha, alpha.data.shape + (1,)))
        return ad.reshape(weighted, (-1, gt.n, gt.n_types, cfg.dims))

    def _fullgn_step(self, u, h, g, flowing, focused):
        p = self.params
        m_bar = self._receive(self._fullgn_messages(h, g), flowing)
        feats = ad.concat([h, m_bar, u, expand(g, self.gt.n, axis=1)], axis=-1)
        h_next = ad.tanh(ad.add(ad.matmul(feats, p["node.W"]), p["node.b"]))
        gfeat = ad.concat([g, ad.tmean(h, axis=1), ad.tmean(m_bar, axis=1)],
                          axis=-1)
        g_next = ad.tanh(ad.add(ad.matmul(gfeat, p["global.W"]), p["global.b"]))
        return h_next, g_next

    def _ggnn_step(self, u_pre, w, b, h, g, flowing, focused):
        m_bar = self._receive(ad.typed_affine(h, w, b), flowing, folded=True)
        return gru(h, m_bar, u_pre, self.params, self.cfg.dims), g

    def _gat_step(self, u_pre, score_maps, h, g, flowing, focused):
        m_bar = self._receive(self._gat_messages(h, score_maps), flowing)
        return gru(h, m_bar, u_pre, self.params, self.cfg.dims), g

    def _rw_dynamic_step(self, u, h, g, flowing, focused):
        p = self.params
        feats = ad.concat([h, u, expand(g, self.gt.n, axis=1)], axis=-1)
        h_next = ad.tanh(ad.add(ad.matmul(feats, p["node.W"]), p["node.b"]))
        h_bar = ad.tsum(ad.mul(h, ad.reshape(focused, focused.data.shape + (1,))),
                        axis=1)
        gfeat = ad.concat([g, h_bar], axis=-1)
        g_next = ad.tanh(ad.add(ad.matmul(gfeat, p["global.W"]), p["global.b"]))
        return h_next, g_next

    # -- forward -----------------------------------------------------------

    def forward(self, src_indices, trace: bool = False) -> ForwardResult:
        cfg, gt, p = self.cfg, self.gt, self.params
        src = np.asarray(src_indices, dtype=np.int64)
        dtype = cfg.np_dtype
        result = ForwardResult(probs=None)
        step = self._pick_step(len(src))
        if step is None:
            h, g = ad.reshape(p["embed"], (1, gt.n, cfg.dims)), None
        else:
            h = init_node_states(gt, p, src, cfg.attn_dims, dtype)
            g = ad.Tensor(np.zeros((len(src), cfg.dims), dtype=dtype))

        focused = focused_next = flowing = transition = None
        if cfg.explicit_flow:
            focused = attnflow.onehot_focus(gt.n, src, dtype)
            if trace:
                result.focused.append(focused.data.copy())

        # A flow variant's prediction reads its states only through the
        # transitions, so its last step makes none; a regular variant reads
        # out the states of its last step.
        updates = cfg.steps - 1 if cfg.explicit_flow else cfg.steps
        for t in range(cfg.steps):
            if cfg.explicit_flow:
                # States that change need a new transition every step; the
                # fixed rw-stationary states need one for the whole forward.
                if step is not None or transition is None:
                    transition = attnflow.transition_matrix(
                        attnflow.transition_logits(h, gt, p["trans.W"],
                                                   p["trans.b"]), gt)
                flowing, focused_next = attnflow.flow_step(focused, transition, gt)
                if trace:
                    result.flowing.append(gt.edge_values(flowing.data))
                    result.focused.append(focused_next.data.copy())
            if step is not None and t < updates:
                h, g = step(h, g, flowing, focused)
                self._check_finite(h)
            focused = focused_next

        result.probs = focused if cfg.explicit_flow else implicit_readout(
            h, cfg.attn_dims)
        return result

    def _check_finite(self, h):
        if not np.all(np.isfinite(h.data)):
            raise FloatingPointError("non-finite node states during propagation")

    def loss(self, src_indices, dst_indices) -> ad.Tensor:
        """Mean -log p(dst) under the model's prediction distribution."""
        return attnflow.flow_loss(self.forward(src_indices).probs, dst_indices)

    def predict(self, src_indices) -> np.ndarray:
        """Prediction distributions (B, n) under no_grad.

        Forward runs on chunks of at most MICROBATCH_SIZE examples. The
        per-slot tensors (B, n, 9, d) of the message cores, and rw-dynamic's
        per-batch transition maps (B, n, 9, d+1), grow with the batch: at
        64 examples on the 32-grid presets one is about 85-97 MB at
        float32, above glibc's 32 MiB mmap threshold, so every op output
        would be a fresh mapping whose pages the kernel faults in and
        zeroes, and a bigger chunk is slower per example. rw-stationary
        shares one transition across the batch and holds nothing per slot
        wider than (B, n, 9), so it runs one forward per call.
        """
        src = np.asarray(src_indices, dtype=np.int64)
        stop = max(len(src), 1)  # an empty batch still runs one forward
        chunk = stop if self.cfg.core == "rw-stationary" else MICROBATCH_SIZE
        with ad.no_grad():
            return np.concatenate([self.forward(src[lo:lo + chunk]).probs.data
                                   for lo in range(0, stop, chunk)])

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

    def save(self, path) -> None:
        np.savez(path, **self.state_dict())

    def load(self, path) -> None:
        with np.load(path) as f:
            self.load_state_dict(dict(f))
