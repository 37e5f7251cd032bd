"""U-shaped denoiser built from spatial-spectral state-space blocks.

Each block chains three sub-stages: a four-direction spatial scan branch
(two global row-major directions plus two 4x4-patch-local directions), a
single cross spatial-spectral cube scan, and a gated depthwise feed-forward
unit.  Layer norms sit in front of each sub-stage; the spatial branch has
its residual added outside, the other two carry their residual internally.

The network conditions on the coded mask (concatenated channel-wise) and on
the stage noise level (one constant channel), and predicts a residual that
is added to its input, so zeroing the output convolution makes it exact
identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

import numpy as np

from . import autodiff as ad
from .checks import cube_nests, cube_shape, integer
from .scans import cross_cube_order, global_order, local_patch_order
from .ssm import selective_scan

DELTA_BIAS_INIT = float(np.log(np.expm1(0.1)))  # softplus^-1(0.1)

SPATIAL_DIRECTIONS = ("gf", "gr", "lf", "lr")


@dataclass(frozen=True)
class UNetConfig:
    """Denoiser shape: encoder levels, blocks per level, and block geometry."""

    bands: int
    base_channels: int = 28
    levels: int = 2
    blocks_per_level: int = 1
    patch: int = 4
    cube: tuple = (2, 2, 4)
    state_size: int = 16
    expansion: int = 2

    def __post_init__(self):
        for name in ("bands", "base_channels", "levels", "blocks_per_level", "patch",
                     "state_size", "expansion"):
            least = 0 if name == "levels" else 1
            object.__setattr__(self, name, integer(getattr(self, name), name, least))
        # a tuple of ints, so configs compare and hash by value
        object.__setattr__(self, "cube", cube_shape(self.cube))
        cube_nests(self.cube, self.patch, self.base_channels)

    def channels_at(self, level: int) -> int:
        return self.base_channels * (2 ** level)

    def validate_dims(self, height: int, width: int) -> None:
        need = (2 ** self.levels) * self.patch
        if height % need or width % need:
            raise ValueError(
                f"input dims {height}x{width} must be divisible by 2^levels * patch = {need}")


class ModelWeights:
    """Named store of trainable tensors (float64 leaves on the tape).

    Graphs built on the store record a tape through every weight.  Its
    `frozen` view holds the same arrays as constants, so a forward pass on
    the view builds no tape and keeps no intermediate alive.
    """

    def __init__(self):
        self._store: dict[str, ad.Node] = {}

    def add(self, name: str, array: np.ndarray) -> ad.Node:
        if name in self._store:
            raise ValueError(f"duplicate weight name: {name}")
        node = ad.parameter(np.asarray(array, dtype=np.float64).copy())
        self._store[name] = node
        return node

    def __getitem__(self, name: str) -> ad.Node:
        return self._store[name]

    # without this, `in` and `list()` would probe __getitem__ with 0, 1, ...
    # and fail with KeyError: 0; now both raise TypeError
    __iter__ = None

    def items(self):
        return self._store.items()

    def arrays(self) -> dict:
        return {k: v.value for k, v in self._store.items()}

    def frozen(self) -> "ModelWeights":
        """A store over the same arrays, without copies, as constant leaves.

        Tensors that `load_arrays` or a training step replace later are not
        seen by a view taken before.
        """
        view = ModelWeights()
        view._store = {k: ad.constant(v.value) for k, v in self._store.items()}
        return view

    def zero_grad(self) -> None:
        for node in self._store.values():
            node.grad = None

    def load_arrays(self, arrays: dict) -> None:
        """Replace every tensor; the checkpoint must name exactly this set."""
        layout = ((name, node.value.shape, None) for name, node in self._store.items())
        for name, node in ModelWeights.from_arrays(layout, arrays).items():
            self._store[name].value = node.value

    @classmethod
    def draw(cls, layout, rng) -> "ModelWeights":
        """A store of each `(name, shape, init)` of `layout`, made by `init(rng, shape)` in turn."""
        weights = cls()
        for name, shape, init in layout:
            weights.add(name, init(rng, shape))
        return weights

    @classmethod
    def from_arrays(cls, layout, arrays: dict) -> "ModelWeights":
        """A store of `arrays`, in the order of `layout`, whose `(name, shape, init)`
        walk must name exactly the tensors of `arrays` at their shapes.

        Nothing is drawn, and the walk is read to at most 2n + 1 names for the n
        of `arrays`: by then it has named over n tensors the file lacks.  A file
        that lacks fewer is told every missing name; past that point the message
        lists those of the part read and says that the walk goes on.
        """
        walk = iter(layout)
        want = {name: shape for name, shape, _ in islice(walk, 2 * len(arrays) + 1)}
        missing = sorted(want.keys() - arrays.keys())
        if missing:
            cut = next(walk, None) is not None
            rest = (f", ... (the profile names over {len(want)} tensors; "
                    f"the file holds {len(arrays)})" if cut else "")
            raise ValueError(f"checkpoint lacks weight tensors: {', '.join(missing)}{rest}")
        for name, value in arrays.items():
            if name not in want:
                raise ValueError(f"unknown weight name in checkpoint: {name}")
            if want[name] != value.shape:
                raise ValueError(f"shape mismatch for {name}: have {want[name]}, file {value.shape}")
        weights = cls()
        for name in want:
            weights.add(name, arrays[name])
        return weights


# ---------------------------------------------------------------------------
# tensor layout: each tensor as (name, shape, init rule), in draw order.  A
# rule `init(rng, shape)` makes the tensor; the walk itself computes nothing,
# so it can be read for a profile far too large to draw.

def fill(value):
    """Init rule: every entry is `value`; draws nothing."""
    return lambda rng, shape: np.full(shape, value)


_ZEROS, _ONES = fill(0.0), fill(1.0)


def _normal(std: float):
    """Init rule: independent N(0, std^2) draws."""
    return lambda rng, shape: rng.normal(0.0, std, size=shape)


def _fan_in(n: int):
    """Init rule: normal draws with standard deviation 1/sqrt(n), for a fan-in of n."""
    return lambda rng, shape: rng.normal(0.0, 1.0 / np.sqrt(n), size=shape)


def _a_log(rng, shape):
    """Init rule: log(1), ..., log(N) along the state in every channel, so a = -1, ..., -N."""
    channels, state = shape
    return np.tile(np.log(np.arange(1, state + 1, dtype=np.float64)), (channels, 1))


def _conv(name: str, c_out: int, c_in: int, k: int):
    return name, (c_out, c_in, k, k), _fan_in(c_in * k * k)


def _ssm_branch_layout(prefix: str, channels: int, state: int):
    yield f"{prefix}/a_log", (channels, state), _a_log
    for field in ("w_b", "b_b", "w_c", "b_c"):
        yield f"{prefix}/{field}", (channels, state), _fan_in(state)
    yield f"{prefix}/w_dt", (channels,), _normal(0.05)
    yield f"{prefix}/b_dt", (channels,), fill(DELTA_BIAS_INIT)
    yield f"{prefix}/d", (channels,), _ONES


def _block_layout(prefix: str, config: UNetConfig, channels: int):
    c, e = channels, config.expansion
    yield f"{prefix}/ln1/g", (c,), _ONES
    yield f"{prefix}/ln1/b", (c,), _ZEROS
    for d in SPATIAL_DIRECTIONS:
        yield from _ssm_branch_layout(f"{prefix}/sp/{d}", c, config.state_size)
    yield _conv(f"{prefix}/sp/proj_w", c, c, 1)
    yield f"{prefix}/sp/proj_b", (c,), _ZEROS
    yield f"{prefix}/ln2/g", (c,), _ONES
    yield f"{prefix}/ln2/b", (c,), _ZEROS
    yield from _ssm_branch_layout(f"{prefix}/cx", 1, config.state_size)
    yield f"{prefix}/ffn/ln/g", (c,), _ONES
    yield f"{prefix}/ffn/ln/b", (c,), _ZEROS
    yield _conv(f"{prefix}/ffn/in_w", 2 * e * c, c, 1)
    yield f"{prefix}/ffn/in_b", (2 * e * c,), _ZEROS
    yield f"{prefix}/ffn/dw1_w", (e * c, 3, 3), _normal(1.0 / 3.0)
    yield f"{prefix}/ffn/dw1_b", (e * c,), _ZEROS
    yield f"{prefix}/ffn/dw2_w", (e * c, 3, 3), _normal(1.0 / 3.0)
    yield f"{prefix}/ffn/dw2_b", (e * c,), _ZEROS
    yield _conv(f"{prefix}/ffn/out_w", c, e * c, 1)
    yield f"{prefix}/ffn/out_b", (c,), _ZEROS


def denoiser_layout(prefix: str, config: UNetConfig, zero_residual: bool = True):
    """Every tensor of one denoiser instance under the given prefix.

    With zero_residual the final 3x3 convolution starts at zero, so the
    freshly initialized denoiser is the exact identity.
    """
    nb, base = config.bands, config.base_channels
    yield _conv(f"{prefix}/embed/fuse_w", nb, 2 * nb + 1, 1)
    yield f"{prefix}/embed/fuse_b", (nb,), _ZEROS
    yield _conv(f"{prefix}/embed/proj_w", base, nb, 3)
    yield f"{prefix}/embed/proj_b", (base,), _ZEROS
    for lvl in range(config.levels):
        c = config.channels_at(lvl)
        for i in range(config.blocks_per_level):
            yield from _block_layout(f"{prefix}/enc{lvl}/blk{i}", config, c)
        yield _conv(f"{prefix}/down{lvl}/w", config.channels_at(lvl + 1), c, 3)
        yield f"{prefix}/down{lvl}/b", (config.channels_at(lvl + 1),), _ZEROS
    mid = config.channels_at(config.levels)
    for i in range(config.blocks_per_level):
        yield from _block_layout(f"{prefix}/mid/blk{i}", config, mid)
    for lvl in reversed(range(config.levels)):
        c = config.channels_at(lvl)
        yield _conv(f"{prefix}/up{lvl}/w", c, config.channels_at(lvl + 1), 3)
        yield f"{prefix}/up{lvl}/b", (c,), _ZEROS
        yield _conv(f"{prefix}/dec{lvl}/fuse_w", c, 2 * c, 1)
        yield f"{prefix}/dec{lvl}/fuse_b", (c,), _ZEROS
        for i in range(config.blocks_per_level):
            yield from _block_layout(f"{prefix}/dec{lvl}/blk{i}", config, c)
    out_w = f"{prefix}/out/w"
    yield (out_w, (nb, base, 3, 3), _ZEROS) if zero_residual else _conv(out_w, nb, base, 3)
    yield f"{prefix}/out/b", (nb,), _ZEROS


# ---------------------------------------------------------------------------
# forward pieces

def _ssm_branch(flat: "ad.Node", order, weights: ModelWeights, prefix: str) -> "ad.Node":
    """Per-channel selective scan of a [C, L] tensor read in a scan order.

    The tokens are gathered into `order`, scanned, and restored to their
    places.  Each channel carries its own selection: per-token B and C come
    from an affine map of the scalar token, the timescale from a
    softplus-affine map.
    """
    seq = ad.gather_last(flat, order.forward, order.inverse)
    nch, length = seq.shape
    a = ad.scale(ad.exp(weights[f"{prefix}/a_log"]), -1.0)
    nstate = a.shape[-1]
    x_e = ad.repeat_expand(seq, 2, nstate)
    b_tok = ad.add(ad.mul(x_e, ad.repeat_expand(weights[f"{prefix}/w_b"], 1, length)),
                   ad.repeat_expand(weights[f"{prefix}/b_b"], 1, length))
    c_tok = ad.add(ad.mul(x_e, ad.repeat_expand(weights[f"{prefix}/w_c"], 1, length)),
                   ad.repeat_expand(weights[f"{prefix}/b_c"], 1, length))
    delta = ad.softplus(ad.add(ad.mul(seq, ad.repeat_expand(weights[f"{prefix}/w_dt"], 1, length)),
                               ad.repeat_expand(weights[f"{prefix}/b_dt"], 1, length)))
    y = selective_scan(seq, a, b_tok, c_tok, delta, weights[f"{prefix}/d"])
    return ad.gather_last(y, order.inverse, order.forward)


def spatial_ssm(f: "ad.Node", weights: ModelWeights, prefix: str, patch: int) -> "ad.Node":
    """Four-direction spatial scan branch: global fwd/rev plus patch-local fwd/rev.

    Each direction scans the flattened plane per channel in its own order;
    the four results are summed and mixed by a 1x1 projection.
    """
    nch, height, width = f.shape
    orders = (
        global_order(height, width, False),
        global_order(height, width, True),
        local_patch_order(height, width, patch, False),
        local_patch_order(height, width, patch, True),
    )
    flat = ad.reshape(f, (nch, height * width))
    acc = None
    for name, order in zip(SPATIAL_DIRECTIONS, orders):
        r = _ssm_branch(flat, order, weights, f"{prefix}/{name}")
        acc = r if acc is None else ad.add(acc, r)
    merged = ad.reshape(acc, (nch, height, width))
    return ad.conv2d(merged, weights[f"{prefix}/proj_w"], weights[f"{prefix}/proj_b"])


def spectral_cube_ssm(f: "ad.Node", weights: ModelWeights, prefix: str, patch: int,
                      cube: tuple) -> "ad.Node":
    """Single-direction scan over the whole tensor ordered by local cubes.

    The full C x H x W tensor becomes one scalar sequence whose neighbors
    are adjacent bands and pixels; the scan output is restored and added to
    the input.  `patch` and `cube` fix the order as in `cross_cube_order`.
    """
    nch, height, width = f.shape
    flat = ad.reshape(f, (1, nch * height * width))
    r = _ssm_branch(flat, cross_cube_order(height, width, nch, patch, cube), weights, prefix)
    return ad.add(f, ad.reshape(r, (nch, height, width)))


def gated_ffn(f: "ad.Node", weights: ModelWeights, prefix: str) -> "ad.Node":
    """Gated depthwise feed-forward: LN, expand 1x1, dual depthwise 3x3,
    GELU-gated product, contract 1x1, residual."""
    n = ad.layer_norm(f, weights[f"{prefix}/ln/g"], weights[f"{prefix}/ln/b"])
    u = ad.conv2d(n, weights[f"{prefix}/in_w"], weights[f"{prefix}/in_b"])
    half = u.shape[0] // 2
    ua, ub = ad.split(u, [half, half])
    ga = ad.gelu(ad.depthwise_conv2d(ua, weights[f"{prefix}/dw1_w"], weights[f"{prefix}/dw1_b"]))
    gb = ad.depthwise_conv2d(ub, weights[f"{prefix}/dw2_w"], weights[f"{prefix}/dw2_b"])
    out = ad.conv2d(ad.mul(ga, gb), weights[f"{prefix}/out_w"], weights[f"{prefix}/out_b"])
    return ad.add(f, out)


def ssm_block(f: "ad.Node", weights: ModelWeights, prefix: str,
              config: UNetConfig) -> "ad.Node":
    """One spatial-spectral SSM block; see the module docstring for wiring."""
    g1 = ad.layer_norm(f, weights[f"{prefix}/ln1/g"], weights[f"{prefix}/ln1/b"])
    y1 = ad.add(f, spatial_ssm(g1, weights, f"{prefix}/sp", config.patch))
    g2 = ad.layer_norm(y1, weights[f"{prefix}/ln2/g"], weights[f"{prefix}/ln2/b"])
    y2 = spectral_cube_ssm(g2, weights, f"{prefix}/cx", config.patch, config.cube)
    return gated_ffn(y2, weights, f"{prefix}/ffn")


def embed_with_mask(x: "ad.Node", mask: np.ndarray, weights: ModelWeights, prefix: str,
                    sigma: "ad.Node") -> "ad.Node":
    """Fuse the cube with the coded mask and the noise-level channel.

    The mask is replicated to one channel per band and concatenated with the
    cube and a constant sigma channel; a 1x1 convolution integrates them and
    a 3x3 convolution embeds to the working channel count.
    """
    nb, height, width = x.shape
    if mask.shape != (height, width):
        raise ValueError(f"mask shape {mask.shape} does not match cube plane {height}x{width}")
    mask_stack = ad.constant(np.repeat(np.asarray(mask, dtype=np.float64)[None], nb, axis=0))
    if not np.isfinite(sigma.value).all():
        raise ValueError("noise level must be finite")
    sig_channel = ad.mul(ad.constant(np.ones((1, height, width))), sigma)
    stacked = ad.concat([x, mask_stack, sig_channel])
    fused = ad.conv2d(stacked, weights[f"{prefix}/embed/fuse_w"], weights[f"{prefix}/embed/fuse_b"])
    return ad.conv2d(fused, weights[f"{prefix}/embed/proj_w"], weights[f"{prefix}/embed/proj_b"])


def denoise(x: "ad.Node", sigma: "ad.Node", mask: np.ndarray, weights: ModelWeights,
            config: UNetConfig, prefix: str, feature_mask=None) -> "ad.Node":
    """Run the U-shaped denoiser; returns input plus the predicted residual.

    `sigma` is a scalar Node, so stage parameters receive gradients.  When
    `feature_mask` is given, its 0/1 spatial pattern is multiplied into the
    embedded feature, the same mask at every stage.
    """
    nb, height, width = x.shape
    if nb != config.bands:
        raise ValueError(f"cube has {nb} bands but config expects {config.bands}")
    config.validate_dims(height, width)

    f = embed_with_mask(x, mask, weights, prefix, sigma)
    if feature_mask is not None:
        f = feature_mask.apply(f)

    skips = []
    for lvl in range(config.levels):
        for i in range(config.blocks_per_level):
            f = ssm_block(f, weights, f"{prefix}/enc{lvl}/blk{i}", config)
        skips.append(f)
        f = ad.conv2d(f, weights[f"{prefix}/down{lvl}/w"], weights[f"{prefix}/down{lvl}/b"],
                      stride=2)
    for i in range(config.blocks_per_level):
        f = ssm_block(f, weights, f"{prefix}/mid/blk{i}", config)
    for lvl in reversed(range(config.levels)):
        f = ad.upsample_nearest2x(f)
        f = ad.conv2d(f, weights[f"{prefix}/up{lvl}/w"], weights[f"{prefix}/up{lvl}/b"])
        f = ad.concat([f, skips[lvl]])
        f = ad.conv2d(f, weights[f"{prefix}/dec{lvl}/fuse_w"], weights[f"{prefix}/dec{lvl}/fuse_b"])
        for i in range(config.blocks_per_level):
            f = ssm_block(f, weights, f"{prefix}/dec{lvl}/blk{i}", config)
    residual = ad.conv2d(f, weights[f"{prefix}/out/w"], weights[f"{prefix}/out/b"])
    return ad.add(x, residual)
