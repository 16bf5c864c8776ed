"""Compact convolutional embedding network with hand-written gradients.

Architecture: a stack of valid temporal convolutions (ReLU, stride 2) over
the 32-band log-mel spectrogram, temporal mean pooling, ReLU, an affine head,
and L2 normalization to a 256-d embedding.

The encoder runs on a stack of equal-length clips, laid out (N, T, C) from
input to pooling; each conv is one GEMM per kernel tap over all N clips.

Parameters live in one flat float32 vector. Layout, in order: for each conv
layer its weight (C_out, C_in, K) then bias (C_out); then the head weight
(embed_dim, C_last) and head bias (embed_dim). All arithmetic is float64;
parameters are quantized back to float32 after updates so checkpoints
round-trip bit-exactly.
"""

import json
import struct
from dataclasses import asdict, dataclass

import numpy as np

from .audio_core import FRONT_END, Spectrogram, _check_positive_int
from .errors import BandMismatchError, CorruptCheckpointError, ShapeMismatchError

CHECKPOINT_MAGIC = b"NOMAD1\n"
FORMAT_VERSION = 1
NORM_EPS = 1e-12
# clips per forward in embed_batch: a default training step's 8 triplets
EMBED_CHUNK = 24


@dataclass(frozen=True)
class EncoderConfig:
    bands: int = FRONT_END.bands
    conv_channels: tuple = (32, 64, 64, 128)
    kernel: int = 5
    stride: int = 2
    embed_dim: int = 256
    init_seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "conv_channels", tuple(self.conv_channels))
        for name in ("bands", "kernel", "stride", "embed_dim"):
            _check_positive_int(name, getattr(self, name))
        if not self.conv_channels:
            raise ValueError("conv_channels must name at least one layer")
        for c in self.conv_channels:
            _check_positive_int("conv_channels entry", c)

    @property
    def min_frames(self) -> int:
        """Smallest input length leaving one frame after all strided convs."""
        n = 1
        for _ in self.conv_channels:
            n = (n - 1) * self.stride + self.kernel
        return n

    def layer_dims(self):
        """(C_in, C_out) per conv layer."""
        ins = (self.bands,) + self.conv_channels[:-1]
        return list(zip(ins, self.conv_channels))

    @property
    def param_count(self) -> int:
        n = 0
        for c_in, c_out in self.layer_dims():
            n += c_out * c_in * self.kernel + c_out
        n += self.embed_dim * self.conv_channels[-1] + self.embed_dim
        return n


@dataclass
class EmbeddingModel:
    parameters: np.ndarray  # flat float32
    config: EncoderConfig

    def __post_init__(self):
        self.parameters = np.asarray(self.parameters, dtype=np.float32)
        if self.parameters.size != self.config.param_count:
            raise ValueError(
                f"expected {self.config.param_count} parameters, got {self.parameters.size}"
            )
        if not np.all(np.isfinite(self.parameters)):
            raise ValueError("non-finite parameters")


def init_model(cfg: EncoderConfig) -> EmbeddingModel:
    """Xavier-uniform weights, zero biases, deterministic in init_seed."""
    rng = np.random.default_rng(cfg.init_seed)
    parts = []
    for c_in, c_out in cfg.layer_dims():
        fan_in = c_in * cfg.kernel
        fan_out = c_out * cfg.kernel
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        parts.append(rng.uniform(-bound, bound, c_out * c_in * cfg.kernel))
        parts.append(np.zeros(c_out))
    bound = np.sqrt(6.0 / (cfg.conv_channels[-1] + cfg.embed_dim))
    parts.append(rng.uniform(-bound, bound, cfg.embed_dim * cfg.conv_channels[-1]))
    parts.append(np.zeros(cfg.embed_dim))
    return EmbeddingModel(np.concatenate(parts).astype(np.float32), cfg)


def _conv1d_forward(x, w, b, stride):
    """Valid strided 1-d convolution over time, one GEMM per tap over all
    clips. x: (N, T, C_in), w: (C_out, C_in, K); returns (N, T_out, C_out)."""
    k_taps = w.shape[2]
    t_out = (x.shape[1] - k_taps) // stride + 1
    z = np.empty((x.shape[0], t_out, w.shape[0]))
    z[...] = b
    for k in range(k_taps):
        z += x[:, k::stride][:, :t_out] @ w[:, :, k].T
    return z


def _conv1d_backward(x, w, stride, gz, want_gx):
    """Gradients of _conv1d_forward wrt weights, bias and (if want_gx)
    input, given gz: (N, T_out, C_out)."""
    k_taps = w.shape[2]
    t_out = gz.shape[1]
    gzt = gz.transpose(0, 2, 1)
    gw = np.empty_like(w)
    for k in range(k_taps):
        gw[:, :, k] = (gzt @ x[:, k::stride][:, :t_out]).sum(axis=0)
    gb = gz.sum(axis=(0, 1))
    gx = None
    if want_gx:
        gx = np.zeros_like(x)
        for k in range(k_taps):
            gx[:, k::stride][:, :t_out] += gz @ w[:, :, k]
    return gx, gw, gb


def _unpack(theta: np.ndarray, cfg: EncoderConfig):
    layers = []
    i = 0
    for c_in, c_out in cfg.layer_dims():
        nw = c_out * c_in * cfg.kernel
        w = theta[i : i + nw].reshape(c_out, c_in, cfg.kernel)
        i += nw
        b = theta[i : i + c_out]
        i += c_out
        layers.append((w, b))
    c_last = cfg.conv_channels[-1]
    wh = theta[i : i + cfg.embed_dim * c_last].reshape(cfg.embed_dim, c_last)
    i += cfg.embed_dim * c_last
    bh = theta[i : i + cfg.embed_dim]
    return layers, wh, bh


def _forward(theta: np.ndarray, cfg: EncoderConfig, values_list):
    """Forward pass over N equal-length (T, bands) spectrogram matrices,
    stacked to (N, T, bands) and zero-padded in time up to min_frames;
    returns ((N, embed_dim) embeddings, cache for backprop)."""
    for v in values_list:
        if v.shape[1] != cfg.bands:
            raise BandMismatchError(f"expected {cfg.bands} bands, got {v.shape[1]}")
    x = np.stack(values_list).astype(np.float64, copy=False)
    if x.shape[1] < cfg.min_frames:
        x = np.pad(x, ((0, 0), (0, cfg.min_frames - x.shape[1]), (0, 0)))
    layers, wh, bh = _unpack(theta, cfg)
    xs = [x]  # conv inputs, then the last post-ReLU conv output
    for w, b in layers:
        z = _conv1d_forward(xs[-1], w, b, cfg.stride)
        xs.append(np.maximum(z, 0.0, out=z))
    pooled = xs[-1].mean(axis=1)
    hrelu = np.maximum(pooled, 0.0)
    z_head = hrelu @ wh.T + bh
    norm = np.maximum(np.linalg.norm(z_head, axis=1), NORM_EPS)[:, None]
    e = z_head / norm
    cache = {
        "layers": layers, "wh": wh, "xs": xs, "pooled": pooled,
        "hrelu": hrelu, "norm": norm, "e": e,
    }
    return e, cache


def _select(cache, rows):
    """Shrink a batch's cache in place to the clips at ``rows``; each cached
    array is freed as soon as its subset is taken."""
    for key in ("pooled", "hrelu", "norm", "e"):
        cache[key] = cache[key][rows]
    xs = cache["xs"]
    for i in range(len(xs)):
        xs[i] = xs[i][rows]


def _backward(cache, cfg: EncoderConfig, grad_e: np.ndarray, layer_grads=None,
              want_input_grad: bool = False):
    """Backprop (N, embed_dim) embedding gradients through the batch, summing
    parameter gradients over clips. layer_grads optionally injects extra
    gradients on each post-ReLU conv activation (used by the feature loss).
    Returns (flat parameter gradient, input gradient over the padded
    (N, T, bands) batch or None)."""
    e, norm, xs = cache["e"], cache["norm"], cache["xs"]
    gz_head = (grad_e - e * np.sum(e * grad_e, axis=1, keepdims=True)) / norm
    g_bh = gz_head.sum(axis=0)
    g_wh = gz_head.T @ cache["hrelu"]
    g_pooled = (gz_head @ cache["wh"]) * (cache["pooled"] > 0)
    t_last = xs[-1].shape[1]
    g_act = np.repeat((g_pooled / t_last)[:, None, :], t_last, axis=1)

    grads = [None] * len(cache["layers"])
    for l in range(len(cache["layers"]) - 1, -1, -1):
        if layer_grads is not None and layer_grads[l] is not None:
            g_act += layer_grads[l]
        g_act *= xs[l + 1] > 0
        w, _b = cache["layers"][l]
        g_act, gw, gb = _conv1d_backward(xs[l], w, cfg.stride, g_act,
                                         want_gx=l > 0 or want_input_grad)
        grads[l] = (gw, gb)

    flat = np.concatenate(
        [np.concatenate([gw.ravel(), gb]) for gw, gb in grads]
        + [g_wh.ravel(), g_bh]
    )
    return flat, g_act


def _bucketed_forward(theta, cfg: EncoderConfig, specs, limit: int, caches=None):
    """Embeddings of ``specs`` in input order: one _forward per group of at
    most ``limit`` clips of equal frame count. Each group's (rows, cache) is
    appended to ``caches`` if given, else freed before the next forward."""
    buckets: dict[int, list[int]] = {}
    for i, spec in enumerate(specs):
        buckets.setdefault(spec.values.shape[0], []).append(i)
    emb = np.empty((len(specs), cfg.embed_dim))
    for members in buckets.values():
        for start in range(0, len(members), limit):
            rows = members[start : start + limit]
            emb[rows], cache = _forward(theta, cfg, [specs[i].values for i in rows])
            if caches is not None:
                caches.append((rows, cache))
            del cache
    return emb


def embed_batch(model: EmbeddingModel, specs) -> np.ndarray:
    """(N, embed_dim) L2-normalized embeddings of N spectrograms of any
    lengths, forwarded at most EMBED_CHUNK clips at a time."""
    return _bucketed_forward(model.parameters.astype(np.float64), model.config, specs, EMBED_CHUNK)


def embed(model: EmbeddingModel, spec: Spectrogram) -> np.ndarray:
    """L2-normalized embedding of one spectrogram."""
    return embed_batch(model, [spec])[0]


def feature_loss_spec(model: EmbeddingModel, clean_values: np.ndarray, est_values: np.ndarray):
    """Deep feature L1 loss between two equal-shape (T, bands) spectrograms.

    Per conv layer: mean over frames of the per-frame L1 distance between
    activations; plus the L1 distance between the final embeddings. Both clips
    take one stacked forward, and only the estimate's row is backpropagated.
    Returns (loss, gradient wrt est_values)."""
    if clean_values.shape != est_values.shape:
        raise ShapeMismatchError(f"shapes differ: {clean_values.shape} vs {est_values.shape}")
    cfg = model.config
    e, cache = _forward(model.parameters.astype(np.float64), cfg, [clean_values, est_values])
    loss = 0.0
    layer_grads = []
    for a in cache["xs"][1:]:
        t = a.shape[1]
        diff = a[1:] - a[:1]
        loss += float(np.sum(np.abs(diff))) / t
        layer_grads.append(np.sign(diff) / t)
    emb_diff = e[1:] - e[:1]
    loss += float(np.sum(np.abs(emb_diff)))

    _select(cache, [1])
    _, input_grad = _backward(cache, cfg, np.sign(emb_diff), layer_grads=layer_grads,
                              want_input_grad=True)
    return loss, input_grad[0, : len(est_values)]  # drop min_frames padding


def triplet_loss(e_a: np.ndarray, e_p: np.ndarray, e_n: np.ndarray, m: float):
    """Margin hinge max(d(a, p) - d(a, n) + m, 0) on squared Euclidean
    distances summed over the last axis: a float for one triplet of
    embeddings, an array for stacked rows of triplets."""
    if m < 0:
        raise ValueError("margin must be >= 0")
    d_ap = np.sum((e_a - e_p) ** 2, axis=-1)
    d_an = np.sum((e_a - e_n) ** 2, axis=-1)
    return np.maximum(d_ap - d_an + m, 0.0)


def index_triples(triples):
    """The distinct clips of (anchor, positive, negative) triples, by object
    identity in first-seen order, and per role the (n,) rows into them."""
    specs = list({id(s): s for triple in triples for s in triple}.values())
    index = {id(s): i for i, s in enumerate(specs)}
    ia, ip, ineg = np.array([[index[id(s)] for s in triple] for triple in triples]).T
    return specs, ia, ip, ineg


def loss_and_gradients(model: EmbeddingModel, batch, m: float):
    """Mean triplet loss over a batch of (anchor, positive, negative)
    spectrogram triples, and its analytic gradient in parameter layout.

    Each distinct clip (by object identity) is embedded once: clips are
    bucketed by frame count and each bucket takes one batched forward and one
    batched backward over those of its clips that have a nonzero gradient."""
    if not batch:
        raise ValueError("batch must be nonempty")
    theta = model.parameters.astype(np.float64)
    cfg = model.config
    specs, ia, ip, ineg = index_triples(batch)
    caches = []
    emb = _bucketed_forward(theta, cfg, specs, len(specs), caches)

    e_a, e_p, e_n = emb[ia], emb[ip], emb[ineg]
    hinge = triplet_loss(e_a, e_p, e_n, m)
    active = hinge > 0
    grad_e = np.zeros_like(emb)
    np.add.at(grad_e, ia[active], 2.0 * (e_n - e_p)[active])
    np.add.at(grad_e, ip[active], 2.0 * (e_p - e_a)[active])
    np.add.at(grad_e, ineg[active], 2.0 * (e_a - e_n)[active])

    grad = np.zeros(cfg.param_count)
    for members, cache in caches:
        g = grad_e[members]
        rows = np.flatnonzero(g.any(axis=1))
        if len(rows) == 0:
            continue
        if len(rows) < len(members):
            _select(cache, rows)
            g = g[rows]
        grad += _backward(cache, cfg, g)[0]
    n = len(batch)
    return float(np.sum(hinge[active])) / n, grad / n


def save_checkpoint(model: EmbeddingModel, path) -> None:
    header = {
        "format_version": FORMAT_VERSION,
        "config": asdict(model.config),
        "param_count": int(model.parameters.size),
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<I", len(header_bytes)))
        f.write(header_bytes)
        f.write(model.parameters.astype("<f4").tobytes())


def load_checkpoint(path) -> EmbeddingModel:
    with open(path, "rb") as f:
        blob = f.read()
    if not blob.startswith(CHECKPOINT_MAGIC):
        raise CorruptCheckpointError("bad magic")
    off = len(CHECKPOINT_MAGIC)
    if len(blob) < off + 4:
        raise CorruptCheckpointError("truncated header length")
    (hlen,) = struct.unpack_from("<I", blob, off)
    off += 4
    if len(blob) < off + hlen:
        raise CorruptCheckpointError("truncated header")
    try:
        header = json.loads(blob[off : off + hlen].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise CorruptCheckpointError(f"unreadable header: {e}") from e
    off += hlen
    if not isinstance(header, dict):
        raise CorruptCheckpointError(f"header is a JSON {type(header).__name__}, not an object")
    if header.get("format_version") != FORMAT_VERSION:
        raise CorruptCheckpointError(f"unsupported format version {header.get('format_version')}")
    try:
        cfg = EncoderConfig(**header["config"])
    except (KeyError, TypeError, ValueError) as e:
        raise CorruptCheckpointError(f"bad config: {e}") from e
    n = header.get("param_count")
    if n != cfg.param_count:
        raise CorruptCheckpointError(
            f"header param_count {n} does not match config-derived {cfg.param_count}"
        )
    if len(blob) - off != 4 * n:
        raise CorruptCheckpointError(
            f"expected {n} weights ({4 * n} bytes), found {len(blob) - off} bytes"
        )
    params = np.frombuffer(blob[off:], dtype="<f4")
    if not np.all(np.isfinite(params)):
        raise CorruptCheckpointError("non-finite weight")
    return EmbeddingModel(params.copy(), cfg)
