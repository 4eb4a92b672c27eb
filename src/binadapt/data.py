"""Image I/O, dataset directory ingestion, patch tiling, and synthetic fixtures.

Pages are 8-bit PGM files (P5 binary or P2 ASCII, maxval 255). Every page the
library makes or accepts is a 2-D array of ``uint8`` levels until a batch is
gathered from it, and ``unit_floats`` then scales the batch to float64 in
[0, 1]: ``level / 255.0``, as ``Page.pixels`` scales a page. Dataset
directories look like::

    <root>/images/*.pgm          pages
    <root>/gt/*.pgm              ground truth, matching stems (source role only;
                                 pixel >= 128 marks foreground ink)

Pages and patch stacks are plain ``np.ndarray``s, and ground-truth labels are
2-D boolean masks. ``gather_patches`` tiles a page for training, prediction
and ``split_patches`` alike: it cuts patches of the page's row-major grid of
h x w patches with indices clipped to the last pixel, which replicates edges,
so ``assemble(split_patches(page, h, w), page.shape)`` is a bit-exact inverse.
The synthetic generator quantizes its pages as ``write_pgm`` quantizes float
pixels, so they are the levels ``binadapt synth`` writes. It builds three
small domains: a source domain of dark strokes on light background with
exact masks, a nearby target whose paper is a little darker, its ink a
little lighter and its noise twice as strong, and a far target whose
contrast collapses (ink at 0.15 on mid-gray paper at 0.45) under heavy
mirrored bleed-through ghosts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "DataError",
    "PgmError",
    "Page",
    "PageRecord",
    "Dataset",
    "read_pgm",
    "write_pgm",
    "split_patches",
    "assemble",
    "check_validation_fraction",
    "load_dataset",
    "synthetic_domain_pairs",
    "make_synthetic_domains",
    "write_synthetic_dirs",
    "SYNTHETIC_KINDS",
]

_SEED_SPLIT = 101
_SEED_SYNTH = 102

GT_INK_THRESHOLD = 128  # 8-bit level at or above which a gt pixel counts as ink
VALIDATION_FRACTION = 0.2  # share of validation pages: ExperimentConfig's default
# Values per block where a page-sized float array would otherwise be made at
# once: the generator's noise and write_pgm's quantization run row block by
# row block, each of about this many values (512 KiB of float64).
_BLOCK = 1 << 16


class DataError(ValueError):
    """Well-formed input files that cannot serve as the dataset asked for."""


class PgmError(ValueError):
    """Malformed PGM payload; the message carries the byte offset."""


@dataclass
class Page:
    """A decoded PGM: its (h, w) ``uint8`` gray levels."""

    levels: np.ndarray

    @property
    def pixels(self) -> np.ndarray:
        """The levels scaled to a new float64 array in [0, 1]."""
        return self.levels / 255.0


def unit_floats(batch) -> np.ndarray:
    """A gathered batch of ``uint8`` levels scaled to float64 by ``/ 255.0``,
    as ``Page.pixels`` scales a page."""
    return batch / 255.0


def check_levels(page, who) -> np.ndarray:
    """``page`` as an array of 2-D ``uint8`` levels, or a ``ValueError`` naming its dtype."""
    arr = np.asarray(page)
    if arr.ndim != 2 or arr.dtype != np.uint8:
        raise ValueError(f"{who}: expected a 2-D page of uint8 levels, "
                         f"got {arr.dtype} of shape {arr.shape}")
    return arr


@dataclass(frozen=True)
class PageRecord:
    """One page of a dataset: its levels, its mask (sources only) and its split."""

    stem: str
    page: np.ndarray  # (h, w) uint8 levels
    gt: np.ndarray | None  # (h, w) boolean mask, True marks foreground ink
    split: str  # "train" | "validation"


@dataclass(frozen=True)
class Dataset:
    """A source (labeled) or target (unlabeled) collection of ``uint8`` pages, frozen,
    its records a tuple of frozen records, so the checks construction makes hold for its life:
    a source page's mask is boolean (else a ``ValueError``) and the page's size (a ``DataError``)."""

    role: str  # "source" | "target"
    records: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "records", tuple(self.records))
        if self.role not in ("source", "target"):
            raise ValueError(f"unknown dataset role {self.role!r}")
        for rec in self.records:
            check_levels(rec.page, f"{self.role} page {rec.stem!r}")
            if self.role == "source" and rec.gt is None:
                raise ValueError(f"source page {rec.stem!r} has no ground truth")
            if self.role == "target" and rec.gt is not None:
                raise ValueError(f"target page {rec.stem!r} carries ground truth")
            if rec.gt is not None:  # a source's mask
                gt = np.asarray(rec.gt)
                if gt.dtype != bool:
                    raise ValueError(f"source page {rec.stem!r}: expected a boolean mask, got {gt.dtype}")
                _check_gt_size(rec.stem, gt, rec.page)

    def train(self):
        return [r for r in self.records if r.split == "train"]

    def validation(self):
        return [r for r in self.records if r.split == "validation"]


# ---------------------------------------------------------------------------
# PGM

def _skip_space(data, pos, what):
    while True:
        if pos >= len(data):
            raise PgmError(f"unexpected end of file while reading {what} at byte {pos}")
        c = data[pos]
        if c in b" \t\r\n":
            pos += 1
        elif c == ord("#"):
            while pos < len(data) and data[pos] != ord("\n"):
                pos += 1
        else:
            return pos


def _token(data, pos, what):
    pos = _skip_space(data, pos, what)
    start = pos
    while pos < len(data) and data[pos] not in b" \t\r\n#":
        pos += 1
    if start == pos:
        raise PgmError(f"empty {what} token at byte {start}")
    return data[start:pos], pos


def _int_token(data, pos, what, minimum=1):
    tok, pos = _token(data, pos, what)
    try:  # ASCII digits only: int() also takes a sign, "_" and \x0b or \x0c
        if not tok.isdigit():
            raise ValueError
        value = int(tok)
    except ValueError:  # or more digits than int() converts
        raise PgmError(f"bad {what} {tok!r} at byte {pos - len(tok)}") from None
    if value < minimum:
        raise PgmError(f"bad {what} {value} at byte {pos - len(tok)}")
    return value, pos


def read_pgm(data: bytes) -> Page:
    """Decode a P5 (binary) or P2 (ASCII) PGM with maxval 255."""
    magic, pos = _token(data, 0, "magic")
    if magic not in (b"P5", b"P2"):
        raise PgmError(f"unsupported magic {magic!r} at byte 0")
    width, pos = _int_token(data, pos, "width")
    height, pos = _int_token(data, pos, "height")
    maxval, pos = _int_token(data, pos, "maxval")
    if maxval != 255:
        raise PgmError(f"unsupported maxval {maxval} at byte {pos}")

    count = width * height
    if magic == b"P5":
        if pos < len(data) and data[pos] not in b" \t\r\n":
            raise PgmError(f"no whitespace after maxval at byte {pos}")
        pos += 1  # exactly one whitespace byte after maxval
        if pos + count > len(data):
            raise PgmError(
                f"truncated P5 payload at byte {len(data)}: "
                f"expected {count} bytes from byte {pos}"
            )
        values = np.frombuffer(data, dtype=np.uint8, count=count, offset=pos)
    else:
        if len(data) - pos < 2 * count - 1:  # a digit and a separator per pixel
            raise PgmError(f"truncated P2 payload at byte {len(data)}: "
                           f"{count} pixels need {2 * count - 1} bytes from byte {pos}")
        values = np.empty(count, dtype=np.uint8)
        for i in range(count):
            v, pos = _int_token(data, pos, f"pixel {i}", minimum=0)
            if v > 255:
                raise PgmError(f"pixel value {v} exceeds 255 at byte {pos}")
            values[i] = v
    return Page(values.reshape(height, width))


def _row_blocks(shape):
    """Slices of consecutive rows, about ``_BLOCK`` values each, covering ``shape``."""
    step = max(1, _BLOCK // max(1, shape[1]))
    return [slice(r, min(r + step, shape[0])) for r in range(0, shape[0], step)]


def write_pgm(page) -> bytes:
    """Encode a non-empty grayscale page as binary P5: ``uint8`` levels as they
    are, a boolean mask as 0/255, float [0, 1] pixels rounded; no other ints, no NaN."""
    arr = np.asarray(page)
    if arr.ndim != 2 or 0 in arr.shape:
        raise PgmError(f"write_pgm expects a non-empty grayscale page, got shape {arr.shape}")
    if arr.dtype == np.uint8:
        raw = arr
    elif arr.dtype == bool:
        raw = arr.view(np.uint8) * np.uint8(255)
    elif arr.dtype.kind in "iu":
        raise PgmError(f"write_pgm writes uint8 levels, not {arr.dtype} integers")
    else:
        raw = _quantize(arr)
    header = f"P5\n{arr.shape[1]} {arr.shape[0]}\n255\n".encode("ascii")
    return header + raw.tobytes()


def _quantize(arr) -> np.ndarray:
    """Float pixels as ``uint8`` levels ``round(255 * p)`` clipped to [0, 255], by row blocks."""
    raw = np.empty(arr.shape, dtype=np.uint8)
    for rows in _row_blocks(arr.shape):
        t = np.multiply(arr[rows], 255.0, dtype=np.float64)
        if np.isnan(t).any():
            raise PgmError(f"write_pgm got NaN pixels in rows {rows.start}-{rows.stop - 1}")
        np.round(t, out=t)
        np.clip(t, 0, 255, out=t)
        raw[rows] = t
    return raw


# ---------------------------------------------------------------------------
# tiling

def gather_patches(page, h, w, ks) -> np.ndarray:
    """Patches ``ks``, row-major numbers in the page's grid of h x w patches, as
    one ``[len(ks), h, w]`` array of the page's dtype; row and column indices
    past the page are clipped to its last pixel, which replicates its edges."""
    cols, ys, xs = math.ceil(page.shape[1] / w), np.arange(h), np.arange(w)
    out = np.empty((len(ks), h, w), page.dtype)
    for patch, k in zip(out, ks):
        r, c = divmod(int(k), cols)
        block = page[r * h : r * h + h, c * w : c * w + w]
        block.take(ys, 0, mode="clip").take(xs, 1, out=patch, mode="clip")
    return out


def split_patches(page, h, w) -> np.ndarray:
    """Every patch of a 2-D page, as ``gather_patches`` cuts them, in one
    ``[rows * cols, h, w]`` stack of the page's dtype."""
    if h < 1 or w < 1:
        raise ValueError("patch dimensions must be >= 1")
    arr = np.asarray(page)
    if arr.ndim != 2:
        raise ValueError(f"split_patches expects a 2-D page, got shape {arr.shape}")
    return gather_patches(arr, h, w, range(math.ceil(arr.shape[0] / h) * math.ceil(arr.shape[1] / w)))


def assemble(patches, shape) -> np.ndarray:
    """Place a row-major patch stack back into a page of ``shape`` (h, w),
    cropping the padding ``split_patches`` added."""
    if patches.ndim != 3:
        raise ValueError(f"assemble needs patches of shape [n, h, w], has {patches.shape}")
    n, h, w = patches.shape
    rows, cols = math.ceil(shape[0] / h), math.ceil(shape[1] / w)
    if n != rows * cols:
        raise ValueError(f"a {shape} page needs patches of shape {(rows * cols, h, w)}, "
                         f"has {patches.shape}")
    canvas = patches.reshape(rows, cols, h, w).transpose(0, 2, 1, 3).reshape(rows * h, cols * w)
    return canvas[: shape[0], : shape[1]]


# ---------------------------------------------------------------------------
# dataset ingestion

def check_validation_fraction(fraction):
    """Reject a share of validation pages outside [0, 1]."""
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"validation fraction {fraction} outside [0, 1]")


def _read_gt(path) -> np.ndarray:
    return read_pgm(path.read_bytes()).levels >= GT_INK_THRESHOLD


def _check_gt_size(stem, gt, page):
    if gt.shape != page.shape:
        raise DataError(f"page {stem!r}: gt size {gt.shape} != image size {page.shape}")


def _dataset(role, pages, validation_fraction, seed) -> Dataset:
    """The dataset of (stem, page, mask) triples, the first ``round(n * validation_fraction)``
    stems of a seeded shuffle in validation; a target drops its masks."""
    check_validation_fraction(validation_fraction)
    order = [stem for stem, _, _ in pages]
    np.random.default_rng(np.random.SeedSequence([_SEED_SPLIT, seed])).shuffle(order)
    val = set(order[: int(round(len(order) * validation_fraction))])
    return Dataset(role, [PageRecord(stem, page, gt if role == "source" else None,
                                     "validation" if stem in val else "train")
                          for stem, page, gt in pages])


def load_dataset(directory, role, validation_fraction, seed) -> Dataset:
    """Load ``<root>/images/*.pgm`` (+ ``gt/`` for sources) with a seeded split.

    Target datasets never pick up ground truth even if a gt directory exists;
    evaluation against target labels is a separate, post-hoc concern.
    """
    root = Path(directory)
    image_paths = sorted((root / "images").glob("*.pgm"))
    if not image_paths:
        raise FileNotFoundError(f"no PGM pages under {root / 'images'}")
    if role == "source":
        missing = [path.stem for path in image_paths if not (root / "gt" / path.name).exists()]
        if missing:
            raise FileNotFoundError(f"source pages without ground truth: {', '.join(missing)}")
    pages = []
    for path in image_paths:
        page = read_pgm(path.read_bytes()).levels
        gt = _read_gt(root / "gt" / path.name) if role == "source" else None
        pages.append((path.stem, page, gt))
    return _dataset(role, pages, validation_fraction, seed)


def load_eval_masks(directory, records=()) -> dict:
    """Boolean ground-truth masks from a dataset directory, keyed by stem (may be empty);
    one whose size differs from the page of the record of its stem is a ``DataError``."""
    masks = {path.stem: _read_gt(path) for path in sorted(Path(directory, "gt").glob("*.pgm"))}
    for rec in records:
        if rec.stem in masks:
            _check_gt_size(rec.stem, masks[rec.stem], rec.page)
    return masks


# ---------------------------------------------------------------------------
# synthetic fixtures

# kind -> (background, ink, noise, ghost level or None). Ghosts are
# bleed-through: mirrored strokes that stay background in the mask.
_KINDS = {
    "source": (0.87, 0.12, 0.04, None),
    "target_near": (0.80, 0.18, 0.08, None),
    "target_far": (0.45, 0.15, 0.05, 0.30),
}
SYNTHETIC_KINDS = tuple(_KINDS)


def _paint_strokes(rng, shape, n_strokes, thickness_range):
    """Random-walk strokes rasterized as a boolean mask.

    A stroke starts at a uniform point and heading and takes ``steps`` unit
    steps, turning by a normal draw after each. At every step whose truncated
    position lies on the page it paints the clipped square
    ``[y - half, y + half) x [x - half, x + half)``. Each walk is computed as
    arrays, and leaves the mask and generator state a step-by-step loop leaves
    (``tests/reference.py``): one ``rng.normal(0, 0.25, steps)`` call yields
    the values of ``steps`` scalar calls, ``cumsum`` adds headings and
    positions left to right as the loop does, and ``int()`` truncates toward
    zero, so a position is on the page when ``-1 < y < h`` and ``-1 < x < w``.
    """
    h, w = shape
    mask = np.zeros(shape, dtype=bool)
    centres = {}  # half-thickness -> boolean image of the squares' centres
    for _ in range(n_strokes):
        y = rng.uniform(0, h)
        x = rng.uniform(0, w)
        angle = rng.uniform(0, 2 * np.pi)
        steps = int(rng.integers(h // 3, h))
        half = int(rng.integers(*thickness_range))
        turns = rng.normal(0, 0.25, steps)
        if steps == 0 or half <= 0:
            continue
        heading = np.concatenate(([angle], turns[:-1])).cumsum()  # the last turn paints nothing
        ys = np.concatenate(([y], np.sin(heading[1:]))).cumsum()
        xs = np.concatenate(([x], np.cos(heading[1:]))).cumsum()
        on = (-1 < ys) & (ys < h) & (-1 < xs) & (xs < w)
        if half not in centres:
            centres[half] = np.zeros(shape, dtype=bool)
        centres[half][ys[on].astype(np.intp), xs[on].astype(np.intp)] = True
    for half, marked in centres.items():
        rows = np.zeros(shape, dtype=bool)
        _grow_rows(marked, half, rows)
        _grow_rows(rows.T, half, mask.T)
    return mask


def _grow_rows(a, half, out):
    """OR into ``out`` each True cell of ``a``, in row r, grown to the rows
    [r - half, r + half): row r of ``out`` takes rows r - half + 1 ... r + half."""
    n = len(a)
    for d in range(1 - half, half + 1):
        lo, hi = max(0, -d), min(n, n - d)
        if lo < hi:  # a shift past the page would wrap the slice ends
            out[lo:hi] |= a[lo + d : hi + d]


def _synthetic_page(rng, shape, kind):
    """One (``uint8`` page, mask) pair for the given domain kind, quantized as ``write_pgm`` does.

    The far target keeps ink darker than paper but collapses the contrast
    (mid-gray background) and adds heavy mirrored bleed-through ghosts, so a
    source-trained model drowns in false positives while the stroke geometry
    itself stays learnable.
    """
    bg, ink, noise, ghost_level = _KINDS[kind]
    mask = _paint_strokes(rng, shape, int(rng.integers(8, 14)), (1, 3))
    page = np.full(shape, bg)
    for rows, z in _noise_blocks(rng, noise, shape):
        page[rows] += z
    if ghost_level is not None:
        ghost = _paint_strokes(rng, shape, int(rng.integers(6, 12)), (1, 3))[:, ::-1]
        for rows, z in _noise_blocks(rng, noise, shape):
            page[rows][ghost[rows]] = ghost_level + z[ghost[rows]]
    for rows, z in _noise_blocks(rng, noise, shape):
        page[rows][mask[rows]] = ink + z[mask[rows]]
    return _quantize(page), mask


def _noise_blocks(rng, noise, shape):
    """``rng.normal(0, noise, shape)`` drawn as consecutive row blocks, each
    yielded with its rows. The generator draws sample by sample, so the blocks
    hold the values of one page-sized draw and leave the stream where it would."""
    for rows in _row_blocks(shape):
        yield rows, rng.normal(0, noise, (rows.stop - rows.start, shape[1]))


def _is_count(value):
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool) and value >= 1


def _check_pages(n_pages, page_size):
    if not _is_count(n_pages):
        raise ValueError(f"page count {n_pages!r} is not an integer >= 1")
    if len(page_size) != 2 or not all(_is_count(side) for side in page_size):
        raise ValueError(f"page size {page_size!r} needs two integer sides >= 1")


def synthetic_domain_pairs(seed, kind, n_pages=8, page_size=(128, 128)):
    """Deterministic (stem, ``uint8`` page, boolean mask) triplets for one domain."""
    if kind not in _KINDS:
        raise ValueError(f"unknown synthetic kind {kind!r}; known kinds: {', '.join(SYNTHETIC_KINDS)}")
    _check_pages(n_pages, page_size)
    kind_idx = SYNTHETIC_KINDS.index(kind)
    rngs = (np.random.default_rng(np.random.SeedSequence([_SEED_SYNTH, seed, kind_idx, i]))
            for i in range(n_pages))
    return [(f"page{i:02d}", *_synthetic_page(rng, page_size, kind)) for i, rng in enumerate(rngs)]


def make_synthetic_domains(seed, n_pages=8, page_size=(128, 128), validation_fraction=VALIDATION_FRACTION):
    """Build the (source, target-near, target-far) fixture datasets, the pages
    and split that ``load_dataset`` reads from ``write_synthetic_dirs``' output.

    The source carries exact masks; the targets drop theirs (use
    ``synthetic_domain_pairs`` to regenerate masks for post-hoc evaluation).
    """
    return tuple(_dataset("source" if kind == "source" else "target",
                          synthetic_domain_pairs(seed, kind, n_pages, page_size),
                          validation_fraction, seed)
                 for kind in SYNTHETIC_KINDS)


def write_synthetic_dirs(seed, out_dir, n_pages=8, page_size=(128, 128)):
    """Write the three fixture domains as dataset directories (gt included for
    all three; target gt exists on disk for evaluation only)."""
    _check_pages(n_pages, page_size)  # before any directory is made
    out_root = Path(out_dir)
    for kind in SYNTHETIC_KINDS:
        for sub in ("images", "gt"):
            (out_root / kind / sub).mkdir(parents=True, exist_ok=True)
        for stem, page, mask in synthetic_domain_pairs(seed, kind, n_pages, page_size):
            (out_root / kind / "images" / f"{stem}.pgm").write_bytes(write_pgm(page))
            (out_root / kind / "gt" / f"{stem}.pgm").write_bytes(write_pgm(mask))
    return [out_root / kind for kind in SYNTHETIC_KINDS]
