"""PGM codec, tiling round trips, dataset ingestion, synthetic fixtures."""

import re
import tracemalloc

import numpy as np
import pytest

import binadapt as ba
from binadapt.data import (
    _BLOCK,
    GT_INK_THRESHOLD,
    SYNTHETIC_KINDS,
    PgmError,
    _paint_strokes,
    _synthetic_page,
    load_dataset,
    load_eval_masks,
    synthetic_domain_pairs,
    write_synthetic_dirs,
)

from defaults import DEFAULTS
from reference import loop_paint_strokes, whole_page_synthetic_page


# ---------------------------------------------------------------------------
# PGM

def test_minimal_p5_file():
    page = ba.read_pgm(b"P5\n1 1\n255\n\x00")
    assert page.pixels.shape == (1, 1)
    assert page.pixels[0, 0] == 0.0


def test_p5_roundtrip_payload_is_byte_identical():
    rng = np.random.default_rng(0)
    raw = rng.integers(0, 256, size=30 * 17, dtype=np.uint8).tobytes()
    blob = b"P5\n# a comment\n30 17\n255\n" + raw
    page = ba.read_pgm(blob)
    assert page.levels.dtype == np.uint8 and page.levels.tobytes() == raw
    levels = np.frombuffer(raw, dtype=np.uint8).reshape(17, 30)
    assert page.pixels.tobytes() == (levels / 255.0).tobytes()
    again = ba.write_pgm(page.pixels)
    assert again.endswith(raw)
    assert ba.read_pgm(again).pixels.tobytes() == page.pixels.tobytes()


def test_p2_ascii_decoding():
    page = ba.read_pgm(b"P2\n2 2\n255\n0 255\n255 0\n")
    np.testing.assert_array_equal(page.pixels, [[0.0, 1.0], [1.0, 0.0]])


def test_pgm_errors_carry_byte_offsets():
    with pytest.raises(PgmError, match="magic"):
        ba.read_pgm(b"P6\n1 1\n255\n\x00")
    with pytest.raises(PgmError, match="maxval 65535"):
        ba.read_pgm(b"P5\n1 1\n65535\n\x00\x00")
    with pytest.raises(PgmError, match="truncated"):
        ba.read_pgm(b"P5\n4 4\n255\n\x00\x00")
    with pytest.raises(PgmError, match="byte"):
        ba.read_pgm(b"P2\n2 2\n255\n0 255 999 0\n")
    with pytest.raises(PgmError, match="end of file"):
        ba.read_pgm(b"P5\n4")


@pytest.mark.parametrize("blob, what, tok", [
    (b"P5 1_0 +1 255\n" + bytes(10), "width", b"1_0"),  # a digit separator, then a sign
    (b"P5 2 1 255\x0b\n\x10\x20", "maxval", b"255\x0b"),  # \x0b separates no tokens
    (b"P2 2 1 255\n+1 0\n", "pixel 0", b"+1"),
    (b"P2 2 1 255\n1 -0\n", "pixel 1", b"-0"),
])
def test_pgm_numbers_are_ascii_digits_only(blob, what, tok):
    with pytest.raises(PgmError, match=re.escape(f"bad {what} {tok!r} at byte")):
        ba.read_pgm(blob)


def test_p5_needs_whitespace_after_maxval():
    # a comment after maxval used to pass as its separator
    with pytest.raises(PgmError, match="no whitespace after maxval at byte 10$"):
        ba.read_pgm(b"P5 2 1 255#\x10\x20")
    np.testing.assert_array_equal(ba.read_pgm(b"P5 2 1 255\t\x10\x20").pixels, [[16 / 255, 32 / 255]])


@pytest.mark.parametrize("binary", [True, False], ids=["P5", "P2"])
def test_pgm_reader_fuzz_prefixes_and_byte_changes(binary):
    # every damaged file must decode or raise PgmError; any other exception
    # (ValueError, IndexError, MemoryError, ...) escapes
    rng = np.random.default_rng(7)
    pixels = rng.integers(0, 256, size=(3, 4))
    if binary:
        blob = ba.write_pgm(pixels / 255.0)
    else:
        rows = "\n".join(" ".join(str(v) for v in row) for row in pixels)
        blob = f"P2\n# fuzz\n4 3\n255\n{rows}\n".encode()
    np.testing.assert_array_equal(ba.read_pgm(blob).pixels, pixels / 255.0)
    samples = [blob[:n] for n in range(len(blob))]
    for pos, delta in zip(rng.integers(0, len(blob), 600), rng.integers(1, 256, 600)):
        damaged = bytearray(blob)
        damaged[pos] = (damaged[pos] + delta) % 256
        samples.append(bytes(damaged))
    for data in samples:
        try:
            ba.read_pgm(data)  # a damaged pixel byte may still decode
        except PgmError:
            pass


def test_p2_header_larger_than_payload_rejected_before_allocation():
    with pytest.raises(PgmError, match="truncated P2 payload .* from byte 22"):
        ba.read_pgm(b"P2\n1000000 1000000\n255\n0\n")


def test_write_pgm_rejects_color():
    with pytest.raises(PgmError, match="grayscale"):
        ba.write_pgm(np.zeros((2, 2, 3)))
    with pytest.raises(PgmError, match="grayscale"):
        ba.write_pgm(np.zeros((2, 2, 3), dtype=bool))


def test_write_pgm_boolean_mask_encodes_as_its_float_copy():
    mask = np.random.default_rng(2).random((37, 23)) > 0.5
    for m in (mask, mask[::2, 1::3], mask.T):  # strided views too
        blob = ba.write_pgm(m)
        assert blob == ba.write_pgm(m.astype(np.float64))
        assert set(blob[len(blob) - m.size:]) == {0, 255}


def test_write_pgm_writes_uint8_levels_unchanged():
    levels = np.arange(256, dtype=np.uint8).reshape(16, 16)
    for page in (levels, levels.T, levels[::2, 1::3]):  # strided views too
        np.testing.assert_array_equal(ba.read_pgm(ba.write_pgm(page)).levels, page)


def test_write_pgm_quantizes_as_round_then_clip():
    # rounding boundaries at +-0.5/255 around every level, negatives and
    # values above 1; the reference is the plain round-then-clip expression
    levels = np.arange(256) / 255.0
    values = np.concatenate([
        levels, levels + 0.5 / 255.0, levels - 0.5 / 255.0,
        np.nextafter(levels + 0.5 / 255.0, -1.0), np.nextafter(levels + 0.5 / 255.0, 2.0),
        [-1e300, -2.0, -0.5 / 255.0, -0.0, 1.0 + 0.5 / 255.0, 1.5, 1e300],
    ])
    # and a page quantized in row blocks whose height is no multiple of a block
    tall = np.resize(values, (300, 1000))
    assert 300 % (_BLOCK // 1000) != 0
    for page in (values.reshape(1, -1), values.reshape(-1, 1), tall, tall.T):
        expected = np.clip(np.round(page * 255.0), 0, 255).astype(np.uint8)
        assert ba.write_pgm(page).endswith(expected.tobytes())


def test_pgm_codec_makes_no_page_sized_float():
    # a 1024² page: 8 MiB as float64, 1 MiB as levels
    page = np.random.default_rng(3).random((1024, 1024))
    tracemalloc.start()
    try:
        blob = ba.write_pgm(page)
        encode_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        levels = ba.read_pgm(blob).levels
        decode_peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert encode_peak < 4 * 2**20
    assert decode_peak < 1.5 * 2**20
    assert levels.dtype == np.uint8
    assert blob.endswith(levels.tobytes())


# ---------------------------------------------------------------------------
# tiling

def test_split_exact_tiling():
    page = np.random.default_rng(4).random((512, 512))
    patches = ba.split_patches(page, 256, 256)
    assert patches.shape == (4, 256, 256)
    # row-major: the second patch is the top-right quarter
    assert patches[1].tobytes() == page[:256, 256:].tobytes()


def test_split_with_padding():
    patches = ba.split_patches(np.zeros((300, 300)), 256, 256)
    assert patches.shape == (4, 256, 256)  # 212 rows and columns of padding


def test_split_single_patch_page():
    patches = ba.split_patches(np.zeros((10, 10)), 32, 32)
    assert patches.shape == (1, 32, 32)  # 22 rows and columns of padding


def test_assemble_inverts_split_bitwise():
    rng = np.random.default_rng(5)
    for _ in range(40):
        h = int(rng.integers(1, 90))
        w = int(rng.integers(1, 90))
        page = rng.random((h, w))
        patches = ba.split_patches(page, int(rng.integers(1, 40)), int(rng.integers(1, 40)))
        back = ba.assemble(patches, page.shape)
        assert back.tobytes() == page.tobytes()


def test_assemble_single_patch_grid():
    page = np.arange(12.0).reshape(3, 4)
    patches = ba.split_patches(page, 8, 8)
    assert ba.assemble(patches, page.shape).tobytes() == page.tobytes()


def test_assemble_places_patches_row_major():
    patches = np.stack([np.full((2, 2), v) for v in (1.0, 2.0, 3.0, 4.0)])
    out = ba.assemble(patches, (4, 4))
    assert out[0, 0] == 1.0 and out[0, 3] == 2.0 and out[3, 0] == 3.0 and out[3, 3] == 4.0


def test_assemble_wrong_patch_count_or_shape_errors():
    # the patch size is read from the stack, so only the count and rank can be wrong
    for shape in [(3, 2, 2), (5, 2, 2), (4, 4)]:
        with pytest.raises(ValueError, match="patches of shape"):
            ba.assemble(np.zeros(shape), (4, 4))


# ---------------------------------------------------------------------------
# dataset ingestion

def _write_pages(root, n, size=(12, 10), gt=True, gt_skip=()):
    rng = np.random.default_rng(1)
    (root / "images").mkdir(parents=True)
    if gt:
        (root / "gt").mkdir()
    for i in range(n):
        stem = f"p{i:02d}"
        (root / "images" / f"{stem}.pgm").write_bytes(ba.write_pgm(rng.random(size)))
        if gt and stem not in gt_skip:
            mask = (rng.random(size) > 0.5).astype(float)
            (root / "gt" / f"{stem}.pgm").write_bytes(ba.write_pgm(mask))


def test_load_dataset_keeps_levels_and_boolean_labels(tmp_path):
    _write_pages(tmp_path, 2)
    ds = load_dataset(tmp_path, "source", validation_fraction=0.5, seed=0)
    for rec in ds.records:
        assert rec.page.dtype == np.uint8 and rec.gt.dtype == bool
        blob = (tmp_path / "images" / f"{rec.stem}.pgm").read_bytes()
        assert rec.page.tobytes() == ba.read_pgm(blob).levels.tobytes()


def test_load_dataset_split_arithmetic(tmp_path):
    _write_pages(tmp_path, 10)
    ds = load_dataset(tmp_path, "source", validation_fraction=0.2, seed=0)
    assert len(ds.train()) == 8 and len(ds.validation()) == 2
    assert all(r.gt is not None for r in ds.records)


def test_load_dataset_target_ignores_gt(tmp_path):
    _write_pages(tmp_path, 4)
    ds = load_dataset(tmp_path, "target", DEFAULTS.validation_fraction, seed=0)
    assert all(r.gt is None for r in ds.records)


def test_load_dataset_target_without_gt_directory(tmp_path):
    _write_pages(tmp_path, 3, gt=False)
    ds = load_dataset(tmp_path, "target", DEFAULTS.validation_fraction, seed=0)
    assert len(ds.records) == 3
    assert all(r.gt is None for r in ds.records)
    assert load_eval_masks(tmp_path) == {}


def test_load_dataset_split_is_deterministic(tmp_path):
    _write_pages(tmp_path, 9)
    a = load_dataset(tmp_path, "source", 0.3, seed=7)
    b = load_dataset(tmp_path, "source", 0.3, seed=7)
    assert [(r.stem, r.split) for r in a.records] == [(r.stem, r.split) for r in b.records]
    c = load_dataset(tmp_path, "source", 0.3, seed=8)
    assert [(r.stem, r.split) for r in a.records] != [(r.stem, r.split) for r in c.records]


def test_load_dataset_missing_gt_lists_stems(tmp_path):
    _write_pages(tmp_path, 3, gt_skip=("p01",))
    with pytest.raises(FileNotFoundError, match="p01"):
        load_dataset(tmp_path, "source", DEFAULTS.validation_fraction, seed=0)


def test_load_dataset_dimension_mismatch(tmp_path):
    _write_pages(tmp_path, 1)
    (tmp_path / "gt" / "p00.pgm").write_bytes(ba.write_pgm(np.zeros((3, 3))))
    with pytest.raises(ValueError, match="size"):
        load_dataset(tmp_path, "source", DEFAULTS.validation_fraction, seed=0)


def test_gt_binarized_at_128(tmp_path):
    (tmp_path / "images").mkdir(parents=True)
    (tmp_path / "gt").mkdir()
    (tmp_path / "images" / "a.pgm").write_bytes(b"P5\n2 1\n255\n\x00\x00")
    (tmp_path / "gt" / "a.pgm").write_bytes(bytes([0x50, 0x35, 0x0A]) + b"2 1\n255\n" + bytes([127, 128]))
    ds = load_dataset(tmp_path, "source", validation_fraction=0.0, seed=0)
    np.testing.assert_array_equal(ds.records[0].gt, [[False, True]])
    assert GT_INK_THRESHOLD == 128


# ---------------------------------------------------------------------------
# synthetic fixtures

def test_synthetic_mask_foreground_fraction():
    for kind in ("source", "target_near", "target_far"):
        for _, _, mask in synthetic_domain_pairs(0, kind):
            assert 0.02 <= mask.mean() <= 0.30


def test_synthetic_determinism():
    a = synthetic_domain_pairs(3, "target_far")
    b = synthetic_domain_pairs(3, "target_far")
    for (sa, pa, ma), (sb, pb, mb) in zip(a, b):
        assert sa == sb and pa.tobytes() == pb.tobytes() and ma.tobytes() == mb.tobytes()


def test_synthetic_mean_intensity_contrast():
    src = synthetic_domain_pairs(0, "source")
    far = synthetic_domain_pairs(0, "target_far")
    src_mean = np.mean([p.mean() for _, p, _ in src])
    far_mean = np.mean([p.mean() for _, p, _ in far])
    assert abs(src_mean - far_mean) > 0.3


def test_make_synthetic_domains_roles_and_sizes():
    src, near, far = ba.make_synthetic_domains(0)
    assert src.role == "source" and near.role == far.role == "target"
    assert len(src.records) >= 8
    assert all(r.page.shape >= (128, 128) for r in src.records)
    assert all(r.gt is not None for r in src.records)
    assert all(r.gt is None for r in near.records + far.records)
    assert len(src.train()) >= 1 and len(src.validation()) >= 1


@pytest.mark.parametrize("fraction", [-0.5, 1.5])
def test_synthetic_domains_reject_validation_fraction_outside_unit_interval(fraction):
    # load_dataset's rejection is checked through the CLI
    with pytest.raises(ValueError, match="validation fraction"):
        ba.make_synthetic_domains(0, n_pages=2, page_size=(16, 16), validation_fraction=fraction)


# tiny pages give zero-step strokes and half-thicknesses as large as a side;
# a half-thickness of 0 paints nothing
@pytest.mark.parametrize("thickness", [(1, 3), (0, 3), (2, 5)])
@pytest.mark.parametrize("shape", [(128, 128), (64, 200), (300, 90), (1, 5), (2, 2), (5, 1)])
def test_paint_strokes_matches_the_step_by_step_walk(shape, thickness):
    for seed in range(4):
        rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        mask = _paint_strokes(rng, shape, 11, thickness)
        np.testing.assert_array_equal(mask, loop_paint_strokes(oracle_rng, shape, 11, thickness))
        assert rng.random() == oracle_rng.random()  # the generator is left where the walk leaves it


# heights of 300 and 1100 span several noise blocks and end in a partial one
@pytest.mark.parametrize("kind", SYNTHETIC_KINDS)
@pytest.mark.parametrize("shape", [(128, 128), (64, 200), (300, 90), (1, 5), (2, 2), (5, 1),
                                   (300, 1000), (1100, 64)])
def test_synthetic_page_matches_whole_page_noise(shape, kind):
    for seed in range(2):
        rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        page, mask = _synthetic_page(rng, shape, kind)
        want_page, want_mask = whole_page_synthetic_page(oracle_rng, shape, kind)
        assert page.tobytes() == want_page.tobytes()
        np.testing.assert_array_equal(mask, want_mask)
        assert rng.random() == oracle_rng.random()


def test_synthetic_pairs_reject_unknown_kind():
    with pytest.raises(ValueError, match="unknown synthetic kind 'nope'"):
        synthetic_domain_pairs(0, "nope")


@pytest.mark.parametrize("page_size", [(0, 5), (5, -1), (12.5, 8), (True, 4), (8,)])
def test_synthetic_pairs_reject_page_sides_that_are_not_integers_from_1(page_size):
    with pytest.raises(ValueError, match=re.escape(f"page size {page_size!r}")):
        synthetic_domain_pairs(0, "source", 1, page_size)
    with pytest.raises(ValueError, match=re.escape(f"page size {page_size!r}")):
        ba.make_synthetic_domains(0, n_pages=1, page_size=page_size)


@pytest.mark.parametrize("n_pages", [0, -2, 1.5, True, "3"])
def test_synthetic_pairs_reject_page_counts_that_are_not_integers_from_1(n_pages):
    with pytest.raises(ValueError, match=re.escape(f"page count {n_pages!r}")):
        synthetic_domain_pairs(0, "source", n_pages, (8, 8))
    with pytest.raises(ValueError, match=re.escape(f"page count {n_pages!r}")):
        ba.make_synthetic_domains(0, n_pages=n_pages, page_size=(8, 8))


def test_write_synthetic_dirs_rejects_an_empty_side_before_writing(tmp_path):
    with pytest.raises(ValueError, match=re.escape("page size (5, 0)")):
        write_synthetic_dirs(0, tmp_path / "out", 1, (5, 0))
    with pytest.raises(ValueError, match=re.escape("page count 0")):
        write_synthetic_dirs(0, tmp_path / "out", 0, (5, 5))
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("page_size", [(40, 40), (30, 52)], ids=["square", "non-square"])
def test_write_synthetic_dirs_loadable(tmp_path, page_size):
    dirs = write_synthetic_dirs(0, tmp_path, n_pages=3, page_size=page_size)
    assert [d.name for d in dirs] == ["source", "target_near", "target_far"]
    src = load_dataset(tmp_path / "source", "source", 0.34, seed=0)
    assert len(src.records) == 3
    assert all(r.page.shape == r.gt.shape == page_size for r in src.records)
    masks = load_eval_masks(tmp_path / "target_far")
    assert set(masks) == {"page00", "page01", "page02"}
    # round-tripped gt equals the generator's mask
    pairs = synthetic_domain_pairs(0, "target_far", n_pages=3, page_size=page_size)
    for stem, _, mask in pairs:
        np.testing.assert_array_equal(masks[stem], mask)
