"""Compact convolutional embedding network with hand-written gradients.

Architecture: a stack of valid temporal convolutions (ReLU, stride 2) over
the 32-band log-mel spectrogram, temporal mean pooling (nonnegative, so no
ReLU), an affine head, and L2 normalization to a 256-d embedding.

The encoder runs on a stack of equal-length clips, laid out (N, T, C) from
input to pooling; each conv is one GEMM per kernel tap over all N clips.

Parameters live in one flat float32 vector. Layout, in order: for each conv
layer its weight (C_out, C_in, K) then bias (C_out); then the head weight
(embed_dim, C_last) and head bias (embed_dim). ``EncoderConfig._layout``
alone lists it: ``param_count`` sums it, ``_unpack`` slices it into views, and
init and gradients write through those views. All arithmetic is float64;
parameters are quantized back to float32 after updates so checkpoints
round-trip bit-exactly. ``_prepare`` converts a parameter vector to float64
weights in the kernels' tap-major layout; each model memoizes it, so the
conversion is paid once per parameter vector, not once per call.
"""

import json
import math
import struct
from dataclasses import asdict, dataclass, field

import numpy as np

from .audio_core import (
    FRONT_END, Spectrogram, _check_finite_nonnegative, _check_nonnegative_int, _check_positive_int)
from .errors import BandMismatchError, CorruptCheckpointError, ShapeMismatchError

CHECKPOINT_MAGIC = b"NOMAD1\n"
FORMAT_VERSION = 1
NORM_EPS = 1e-12
# clips per forward in embed_batch: a default training step's 8 triplets
EMBED_CHUNK = 24
# Largest min_frames an encoder may have: 60 s at the front end's 10 ms hop (the
# default encoder needs 61). Every shorter clip is zero-padded up to min_frames,
# which grows about as stride ** layers, so without a bound a checkpoint of a few
# hundred bytes could ask for billions of frames of padding per clip.
MAX_MIN_FRAMES = 6000


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
        _check_nonnegative_int("init_seed", self.init_seed)
        if self.min_frames > MAX_MIN_FRAMES:
            raise ValueError(f"min_frames of kernel {self.kernel} and stride {self.stride} over "
                             f"{len(self.conv_channels)} layers exceeds {MAX_MIN_FRAMES}")

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

    def _layout(self):
        """(weight shape, bias length) per conv layer, then the head's."""
        blocks = [((c_out, c_in, self.kernel), c_out) for c_in, c_out in self.layer_dims()]
        return blocks + [((self.embed_dim, self.conv_channels[-1]), self.embed_dim)]

    @property
    def param_count(self) -> int:
        return sum(math.prod(w_shape) + n_b for w_shape, n_b in self._layout())


@dataclass
class EmbeddingModel:
    parameters: np.ndarray  # flat float32
    config: EncoderConfig
    # (config, parameters copy, _prepare's weights), replaced whole by _weights
    _prepared: tuple = field(default=(None, None, None), init=False, repr=False, compare=False)

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
    theta = np.zeros(cfg.param_count)
    layers, wh, _bh = _unpack(theta, cfg)
    for w in [w for w, _b in layers] + [wh]:
        c_out, c_in = w.shape[:2]
        k = w[0, 0].size  # kernel taps; 1 for the head
        bound = np.sqrt(6.0 / (c_in * k + c_out * k))
        w[...] = rng.uniform(-bound, bound, w.shape)
    return EmbeddingModel(theta.astype(np.float32), cfg)


def _conv1d_forward(x, taps, b, stride):
    """Valid strided 1-d convolution over time, one GEMM per tap over all
    clips. x: (N, T, C_in), taps: (K, C_in, C_out); returns (N, T_out, C_out)."""
    k_taps = taps.shape[0]
    t_out = (x.shape[1] - k_taps) // stride + 1
    z = np.empty((x.shape[0], t_out, taps.shape[2]))
    z[...] = b
    for k in range(k_taps):
        z += x[:, k::stride][:, :t_out] @ taps[k]
    return z


def _conv1d_backward(x, stride, gz, gw, gb):
    """Add the weight and bias gradients of _conv1d_forward into gw
    (C_out, C_in, K) and gb, given gz: (N, T_out, C_out)."""
    t_out = gz.shape[1]
    gzt = gz.transpose(0, 2, 1)
    buf = np.empty((gz.shape[0],) + gw.shape[:2])  # one tap's per-clip (C_out, C_in)
    for k in range(gw.shape[2]):
        np.matmul(gzt, x[:, k::stride][:, :t_out], out=buf)
        gw[:, :, k] += buf.sum(axis=0)
    gb += gz.sum(axis=(0, 1))


def _conv1d_input_grad(x_shape, taps_t, stride, gz):
    """Gradient of _conv1d_forward wrt its (N, T, C_in) input of x_shape,
    given gz: (N, T_out, C_out) and taps_t: (K, C_out, C_in)."""
    t_out = gz.shape[1]
    gx = np.zeros(x_shape)
    for k in range(taps_t.shape[0]):
        gx[:, k::stride][:, :t_out] += gz @ taps_t[k]
    return gx


def _unpack(theta: np.ndarray, cfg: EncoderConfig):
    blocks = []
    i = 0
    for w_shape, n_b in cfg._layout():
        n_w = math.prod(w_shape)
        blocks.append((theta[i : i + n_w].reshape(w_shape), theta[i + n_w : i + n_w + n_b]))
        i += n_w + n_b
    *layers, (wh, bh) = blocks
    return layers, wh, bh


def _prepare(theta: np.ndarray, cfg: EncoderConfig):
    """Read-only float64 weights in the kernels' layout: per conv layer its
    forward taps (K, C_in, C_out), input-gradient taps (K, C_out, C_in) and
    bias; then the head weight (embed_dim, C_last) and bias. Each is its own
    array, so no view keeps the whole float64 parameter vector alive."""
    def own(a):
        a = np.array(a, dtype=np.float64, order="C")
        a.flags.writeable = False
        return a

    layers, wh, bh = _unpack(theta, cfg)
    prepared = [(own(w.transpose(2, 1, 0)), own(w.transpose(2, 0, 1)), own(b)) for w, b in layers]
    return prepared, own(wh), own(bh)


def _weights(model: EmbeddingModel):
    """_prepare's weights for the model's current config and parameters,
    memoized on the model and rebuilt only after either has changed."""
    config, parameters, weights = model._prepared
    if config == model.config and np.array_equal(parameters, model.parameters):
        return weights
    parameters = model.parameters.copy()
    weights = _prepare(parameters, model.config)
    model._prepared = (model.config, parameters, weights)
    return weights


def _forward(weights, cfg: EncoderConfig, values_list):
    """Forward pass with _prepare's weights over N equal-length (T, bands)
    spectrogram matrices, stacked to (N, T, bands) and zero-padded in time up
    to min_frames; returns ((N, embed_dim) embeddings, cache for backprop)."""
    for v in values_list:
        if v.shape[1] != cfg.bands:
            raise BandMismatchError(f"expected {cfg.bands} bands, got {v.shape[1]}")
    x = np.stack(values_list).astype(np.float64, copy=False)
    if x.shape[1] < cfg.min_frames:
        x = np.pad(x, ((0, 0), (0, cfg.min_frames - x.shape[1]), (0, 0)))
    layers, wh, bh = weights
    xs = [x]  # conv inputs, then the last post-ReLU conv output
    for taps, _taps_t, b in layers:
        z = _conv1d_forward(xs[-1], taps, b, cfg.stride)
        xs.append(np.maximum(z, 0.0, out=z))
    pooled = xs[-1].mean(axis=1)
    # one product per clip: a 2-D GEMM's BLAS kernel, and so its last bits, depends on N
    z_head = np.matmul(pooled[:, None, :], wh.T)[:, 0] + bh
    norm = np.maximum(np.linalg.norm(z_head, axis=1), NORM_EPS)[:, None]
    e = z_head / norm
    cache = {"layers": layers, "wh": wh, "xs": xs, "pooled": pooled, "norm": norm, "e": e}
    return e, cache


def _select(cache, rows):
    """Shrink a batch's cache in place to the clips at ``rows``; each cached
    array is freed as soon as its subset is taken."""
    for key in ("pooled", "norm", "e"):
        cache[key] = cache[key][rows]
    xs = cache["xs"]
    for i in range(len(xs)):
        xs[i] = xs[i][rows]


def _backward(cache, cfg: EncoderConfig, grad_e: np.ndarray, grad=None, layer_grads=None):
    """Backprop (N, embed_dim) embedding gradients through the batch. Given
    ``grad``, add the parameter gradient summed over clips into it and return
    None. Without it, compute no parameter gradient and return the input
    gradient over the padded (N, T, bands) batch; layer_grads optionally
    injects extra gradients on each post-ReLU conv activation (the feature
    loss passes one per layer)."""
    e, norm, xs = cache["e"], cache["norm"], cache["xs"]
    gz_head = (grad_e - e * np.sum(e * grad_e, axis=1, keepdims=True)) / norm
    if grad is not None:
        g_layers, g_wh, g_bh = _unpack(grad, cfg)
        g_bh += gz_head.sum(axis=0)
        g_wh += gz_head.T @ cache["pooled"]
    # pooled is 0 only where a channel's last activations all are; their ReLU mask zeroes it
    g_pooled = gz_head @ cache["wh"]
    t_last = xs[-1].shape[1]
    g_act = np.repeat((g_pooled / t_last)[:, None, :], t_last, axis=1)

    for l in range(len(cache["layers"]) - 1, -1, -1):
        if layer_grads is not None:
            g_act += layer_grads[l]
        g_act *= xs[l + 1] > 0
        _taps, taps_t, _b = cache["layers"][l]
        if grad is not None:
            _conv1d_backward(xs[l], cfg.stride, g_act, *g_layers[l])
        if l > 0 or grad is None:
            g_act = _conv1d_input_grad(xs[l].shape, taps_t, cfg.stride, g_act)
    return None if grad is not None else g_act


def _bucketed_forward(weights, cfg: EncoderConfig, specs, limit: int, caches=None):
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
            emb[rows], cache = _forward(weights, cfg, [specs[i].values for i in rows])
            if caches is not None:
                caches.append((rows, cache))
            del cache
    return emb


def embed_batch(model: EmbeddingModel, specs) -> np.ndarray:
    """(N, embed_dim) L2-normalized embeddings of N spectrograms of any
    lengths, forwarded at most EMBED_CHUNK clips at a time."""
    return _bucketed_forward(_weights(model), model.config, specs, EMBED_CHUNK)


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
    e, cache = _forward(_weights(model), cfg, [clean_values, est_values])
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
    input_grad = _backward(cache, cfg, np.sign(emb_diff), layer_grads=layer_grads)
    return loss, input_grad[0, : len(est_values)]  # drop min_frames padding


def triplet_loss(e_a: np.ndarray, e_p: np.ndarray, e_n: np.ndarray, m: float):
    """Margin hinge max(d(a, p) - d(a, n) + m, 0) on squared Euclidean
    distances summed over the last axis: a float for one triplet of
    embeddings, an array for stacked rows of triplets."""
    _check_finite_nonnegative("margin", m)
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
    cfg = model.config
    specs, ia, ip, ineg = index_triples(batch)
    caches = []
    emb = _bucketed_forward(_weights(model), cfg, specs, len(specs), caches)

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
        _backward(cache, cfg, g, grad=grad)
    n = len(batch)
    grad /= n
    return float(np.sum(hinge[active])) / n, grad


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
    try:
        return EmbeddingModel(np.frombuffer(blob[off:], dtype="<f4").copy(), cfg)
    except ValueError as e:
        raise CorruptCheckpointError(f"bad weights: {e}") from e
