"""Compact convolutional embedding network with hand-written gradients.

Architecture: a stack of valid temporal convolutions (ReLU, stride 2) over
the 32-band log-mel spectrogram, temporal mean pooling, ReLU, an affine head,
and L2 normalization to a 256-d embedding.

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
from numpy.lib.stride_tricks import sliding_window_view

from .audio_core import Spectrogram
from .errors import BandMismatchError, CorruptCheckpointError

CHECKPOINT_MAGIC = b"NOMAD1\n"
FORMAT_VERSION = 1
NORM_EPS = 1e-12


@dataclass(frozen=True)
class EncoderConfig:
    bands: int = 32
    conv_channels: tuple = (32, 64, 64, 128)
    kernel: int = 5
    stride: int = 2
    embed_dim: int = 256
    init_seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "conv_channels", tuple(self.conv_channels))

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
    """Valid 1-d convolution over time. x: (C_in, T), w: (C_out, C_in, K)."""
    win = sliding_window_view(x, w.shape[2], axis=1)[:, ::stride, :]
    return np.einsum("oik,itk->ot", w, win, optimize=True) + b[:, None]


def _conv1d_backward(x, w, stride, gy):
    """Gradients of _conv1d_forward wrt input, weights, and bias."""
    k = w.shape[2]
    win = sliding_window_view(x, k, axis=1)[:, ::stride, :]
    gw = np.einsum("ot,itk->oik", gy, win, optimize=True)
    gb = gy.sum(axis=1)
    gx = np.zeros_like(x)
    tmp = np.einsum("ot,oik->itk", gy, w, optimize=True)
    t_out = gy.shape[1]
    for kk in range(k):
        gx[:, kk : kk + stride * t_out : stride] += tmp[:, :, kk]
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


def _forward(theta: np.ndarray, cfg: EncoderConfig, values: np.ndarray):
    """Forward pass from a (T, bands) spectrogram matrix; returns (embedding,
    cache for backprop)."""
    if values.shape[1] != cfg.bands:
        raise BandMismatchError(f"expected {cfg.bands} bands, got {values.shape[1]}")
    x = np.ascontiguousarray(values.T, dtype=np.float64)
    orig_t = x.shape[1]
    if orig_t < cfg.min_frames:
        x = np.pad(x, ((0, 0), (0, cfg.min_frames - orig_t)))
    layers, wh, bh = _unpack(theta, cfg)
    xs = []       # conv inputs
    acts = []     # post-ReLU conv outputs
    for w, b in layers:
        xs.append(x)
        z = _conv1d_forward(x, w, b, cfg.stride)
        x = np.maximum(z, 0.0)
        acts.append(x)
    t_last = x.shape[1]
    pooled = x.mean(axis=1)
    hrelu = np.maximum(pooled, 0.0)
    z_head = wh @ hrelu + bh
    norm = max(float(np.linalg.norm(z_head)), NORM_EPS)
    e = z_head / norm
    cache = {
        "layers": layers, "wh": wh, "bh": bh, "xs": xs, "acts": acts,
        "t_last": t_last, "pooled": pooled, "hrelu": hrelu, "norm": norm,
        "e": e, "orig_t": orig_t,
    }
    return e, cache


def _backward(cache, cfg: EncoderConfig, grad_e: np.ndarray, layer_grads=None,
              want_input_grad: bool = False):
    """Backprop through the full composition. layer_grads optionally injects
    extra gradients on each post-ReLU conv activation (used by the feature
    loss). Returns (flat parameter gradient, input gradient or None)."""
    e, norm = cache["e"], cache["norm"]
    gz_head = (grad_e - e * float(e @ grad_e)) / norm
    g_bh = gz_head
    g_wh = np.outer(gz_head, cache["hrelu"])
    g_hrelu = cache["wh"].T @ gz_head
    g_pooled = g_hrelu * (cache["pooled"] > 0)
    g_act = np.repeat(g_pooled[:, None] / cache["t_last"], cache["t_last"], axis=1)
    if layer_grads is not None and layer_grads[-1] is not None:
        g_act = g_act + layer_grads[-1]

    grads = [None] * len(cache["layers"])
    for l in range(len(cache["layers"]) - 1, -1, -1):
        w, _b = cache["layers"][l]
        gz = g_act * (cache["acts"][l] > 0)
        gx, gw, gb = _conv1d_backward(cache["xs"][l], w, cfg.stride, gz)
        grads[l] = (gw, gb)
        g_act = gx
        if l > 0 and layer_grads is not None and layer_grads[l - 1] is not None:
            g_act = g_act + layer_grads[l - 1]

    flat = np.concatenate(
        [np.concatenate([gw.ravel(), gb]) for gw, gb in grads]
        + [g_wh.ravel(), g_bh]
    )
    input_grad = None
    if want_input_grad:
        input_grad = g_act[:, : cache["orig_t"]].T.copy()  # back to (T, bands)
    return flat, input_grad


def embed(model: EmbeddingModel, spec: Spectrogram) -> np.ndarray:
    """L2-normalized embedding of one spectrogram."""
    theta = model.parameters.astype(np.float64)
    e, _ = _forward(theta, model.config, spec.values)
    return e


def triplet_loss(e_a: np.ndarray, e_p: np.ndarray, e_n: np.ndarray, m: float) -> float:
    if m < 0:
        raise ValueError("margin must be >= 0")
    d_ap = float(np.sum((e_a - e_p) ** 2))
    d_an = float(np.sum((e_a - e_n) ** 2))
    return max(0.0, d_ap - d_an + m)


def loss_and_gradients(model: EmbeddingModel, batch, m: float):
    """Mean triplet loss over a batch of (anchor, positive, negative)
    spectrogram triples, and its analytic gradient in parameter layout."""
    if not batch:
        raise ValueError("batch must be nonempty")
    theta = model.parameters.astype(np.float64)
    cfg = model.config
    total = 0.0
    grad = np.zeros(cfg.param_count)
    for spec_a, spec_p, spec_n in batch:
        e_a, cache_a = _forward(theta, cfg, spec_a.values)
        e_p, cache_p = _forward(theta, cfg, spec_p.values)
        e_n, cache_n = _forward(theta, cfg, spec_n.values)
        d_ap = float(np.sum((e_a - e_p) ** 2))
        d_an = float(np.sum((e_a - e_n) ** 2))
        hinge = d_ap - d_an + m
        if hinge <= 0:
            continue
        total += hinge
        g_a, _ = _backward(cache_a, cfg, 2.0 * (e_n - e_p))
        g_p, _ = _backward(cache_p, cfg, -2.0 * (e_a - e_p))
        g_n, _ = _backward(cache_n, cfg, 2.0 * (e_a - e_n))
        grad += g_a + g_p + g_n
    n = len(batch)
    return total / n, grad / n


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
    if header.get("format_version") != FORMAT_VERSION:
        raise CorruptCheckpointError(f"unsupported format version {header.get('format_version')}")
    try:
        cfg = EncoderConfig(**header["config"])
    except (KeyError, TypeError) as e:
        raise CorruptCheckpointError(f"bad config: {e}") from e
    n = header.get("param_count")
    if n != cfg.param_count:
        raise CorruptCheckpointError(
            f"header param_count {n} does not match config-derived {cfg.param_count}"
        )
    params = np.frombuffer(blob[off:], dtype="<f4")
    if params.size != n:
        raise CorruptCheckpointError(f"expected {n} weights, found {params.size}")
    if not np.all(np.isfinite(params)):
        raise CorruptCheckpointError("non-finite weight")
    return EmbeddingModel(params.copy(), cfg)
