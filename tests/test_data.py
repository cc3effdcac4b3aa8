"""IDX parsing, fold encoding, dataset assembly, batch iteration."""

import os
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conftest import synthetic_images, write_idx_pair
from qocnn import data, metrics, model as model_mod, training
from qocnn.data import Dataset, IdxFormatError, IdxTruncatedError, batch_iter


def image_blob(images: np.ndarray) -> bytes:
    n, r, c = images.shape
    return struct.pack(">IIII", 0x803, n, r, c) + images.tobytes()


def label_blob(labels: np.ndarray) -> bytes:
    return struct.pack(">II", 0x801, labels.shape[0]) + labels.tobytes()


class TestIdxParsing:
    def test_image_round_trip(self):
        imgs, _ = synthetic_images(7, seed=0)
        got = data.load_idx_images(image_blob(imgs))
        np.testing.assert_array_equal(got, imgs)
        assert got.dtype == np.uint8

    def test_label_round_trip(self):
        _, labels = synthetic_images(12, seed=1)
        np.testing.assert_array_equal(data.load_idx_labels(label_blob(labels)), labels)

    def test_bad_image_magic(self):
        imgs, _ = synthetic_images(2, seed=2)
        blob = struct.pack(">IIII", 0x801, 2, 28, 28) + imgs.tobytes()
        with pytest.raises(IdxFormatError, match="magic"):
            data.load_idx_images(blob)

    def test_bad_label_magic(self):
        with pytest.raises(IdxFormatError, match="magic"):
            data.load_idx_labels(struct.pack(">II", 0x803, 0))

    def test_truncated_image_payload(self):
        imgs, _ = synthetic_images(3, seed=3)
        blob = image_blob(imgs)[:-5]
        with pytest.raises(IdxTruncatedError, match="expected"):
            data.load_idx_images(blob)

    def test_truncated_header(self):
        with pytest.raises(IdxTruncatedError):
            data.load_idx_images(b"\x00\x00")
        with pytest.raises(IdxTruncatedError):
            data.load_idx_labels(b"\x00\x00")

    def test_oversized_payload_rejected(self):
        imgs, _ = synthetic_images(2, seed=4)
        with pytest.raises(IdxTruncatedError, match="expected"):
            data.load_idx_images(image_blob(imgs) + b"\x00")

    def test_label_out_of_range_names_index(self):
        labels = np.array([1, 3, 12, 4], dtype=np.uint8)
        with pytest.raises(ValueError, match="index 2"):
            data.load_idx_labels(label_blob(labels))

    def test_read_from_files(self, tmp_path):
        imgs, labels = synthetic_images(5, seed=5)
        ip, lp = write_idx_pair(tmp_path, imgs, labels, "train")
        np.testing.assert_array_equal(data.read_idx_images(ip), imgs)
        np.testing.assert_array_equal(data.read_idx_labels(lp), labels)


def dataset_load_oracle(images_path, labels_path, split: str) -> Dataset:
    """The earlier loader: each file read into `bytes`, then its payload copied."""
    img = Path(images_path).read_bytes()
    lbl = Path(labels_path).read_bytes()
    n, rows, cols = struct.unpack(">III", img[4:16])
    images = np.frombuffer(img, dtype=np.uint8, offset=16).reshape(n, rows, cols).copy()
    labels = np.frombuffer(lbl, dtype=np.uint8, offset=8).copy()
    return Dataset.from_arrays(images, labels, split)


class TestReadOnce:
    def test_load_matches_the_copying_loader_bytewise(self, tmp_path):
        imgs, labels = synthetic_images(37, seed=13)
        ip, lp = write_idx_pair(tmp_path, imgs, labels, "train")
        got = Dataset.load(ip, lp, "train")
        want = dataset_load_oracle(ip, lp, "train")
        assert got.pixels.shape == want.pixels.shape == (37, 784)
        assert got.pixels.dtype == np.uint8
        assert got.pixels.tobytes() == want.pixels.tobytes()
        assert got.labels.dtype == want.labels.dtype
        assert got.labels.tobytes() == want.labels.tobytes()

    def test_load_holds_each_file_once(self, tmp_path):
        imgs, labels = synthetic_images(4_000, seed=14)
        ip, lp = write_idx_pair(tmp_path, imgs, labels, "train")
        file_bytes = ip.stat().st_size + lp.stat().st_size
        tracemalloc.start()
        try:
            ds = Dataset.load(ip, lp, "train")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(ds) == 4_000
        assert peak <= 1.05 * file_bytes, f"peak {peak / file_bytes:.3f}x the files"

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    def test_a_pipe_is_read_to_its_end(self):
        """Process substitution (`<(gunzip -c ...)`) hands over a pipe, whose size is 0."""
        imgs, labels = synthetic_images(3, seed=19)
        for blob, read, want in (
            (image_blob(imgs), data.read_idx_images, imgs),
            (label_blob(labels), data.read_idx_labels, labels),
        ):
            r, w = os.pipe()
            try:
                with open(w, "wb") as writer:  # a few KB: fits the pipe's buffer
                    writer.write(blob)
                np.testing.assert_array_equal(read(f"/dev/fd/{r}"), want)
            finally:
                os.close(r)

    def test_file_shorter_than_its_header_names_both_sizes(self, tmp_path):
        imgs, _ = synthetic_images(3, seed=16)
        path = tmp_path / "short-images-idx3-ubyte"
        path.write_bytes(struct.pack(">IIII", 0x803, 5, 28, 28) + imgs.tobytes())
        with pytest.raises(
            IdxTruncatedError,
            match=f"expected {16 + 5 * 784} bytes total, got {16 + 3 * 784}$",
        ):
            data.read_idx_images(path)

    def test_dataset_parsed_from_bytes_folds_and_batches(self):
        imgs, labels = synthetic_images(50, seed=17)
        ds = Dataset.from_arrays(
            data.load_idx_images(image_blob(imgs)),
            data.load_idx_labels(label_blob(labels)),
            "train",
        )
        assert not ds.pixels.flags.writeable  # a view of the bytes
        owned = Dataset.from_arrays(imgs.copy(), labels.copy(), "train")
        assert ds.complex_rows(slice(None)).tobytes() == owned.complex_rows(
            slice(None)
        ).tobytes()
        for a, b in zip(batch_iter(ds, 16, seed=3), batch_iter(owned, 16, seed=3), strict=True):
            assert a.x.tobytes() == b.x.tobytes()
            np.testing.assert_array_equal(a.labels, b.labels)


class TestIdxCorruption:
    """Every truncation and single-bit flip of a 3-image file, read from disk.

    IDX carries no checksum, so a flipped payload bit loads; every other
    corruption must raise one of the module's documented errors.
    """

    IDX_ERRORS = (IdxTruncatedError, IdxFormatError)

    @pytest.fixture
    def files(self, tmp_path):
        imgs, labels = synthetic_images(3, seed=18)
        ip, lp = write_idx_pair(tmp_path, imgs, labels, "test")
        return imgs, labels, ip, lp

    @staticmethod
    def flipped(blob: bytes, bit: int) -> bytes:
        out = bytearray(blob)
        out[bit // 8] ^= 1 << (bit % 8)
        return bytes(out)

    def test_every_truncated_prefix_raises(self, files):
        _, _, ip, lp = files
        for path, read in ((ip, data.read_idx_images), (lp, data.read_idx_labels)):
            for n in range(path.stat().st_size - 1, -1, -1):
                os.truncate(path, n)
                with pytest.raises(self.IDX_ERRORS):
                    read(path)

    def test_every_header_bit_flip_raises(self, files, tmp_path):
        _, _, ip, lp = files
        bad = tmp_path / "bad"
        for path, read, header in (
            (ip, data.read_idx_images, 16),
            (lp, data.read_idx_labels, 8),
        ):
            blob = path.read_bytes()
            for bit in range(8 * header):
                bad.write_bytes(self.flipped(blob, bit))
                with pytest.raises(self.IDX_ERRORS):
                    read(bad)

    def test_a_payload_bit_flip_changes_only_its_pixel(self, files, tmp_path):
        """Every payload bit through the parser, one bit per byte through a file."""
        imgs, _, ip, _ = files
        blob = ip.read_bytes()
        bad = tmp_path / "bad"
        flat = imgs.reshape(-1)
        buf = bytearray(blob)
        for bit in range(8 * 16, 8 * len(blob)):
            byte, mask = divmod(bit, 8)
            buf[byte] ^= 1 << mask
            if mask == byte % 8:
                bad.write_bytes(buf)
                got = data.read_idx_images(bad).reshape(-1)
            else:
                got = data.load_idx_images(buf).reshape(-1)
            assert np.flatnonzero(got != flat).tolist() == [byte - 16]
            assert got[byte - 16] == flat[byte - 16] ^ (1 << mask)
            buf[byte] ^= 1 << mask

    def test_a_label_bit_flip_loads_or_is_out_of_range(self, files, tmp_path):
        _, labels, _, lp = files
        blob = lp.read_bytes()
        bad = tmp_path / "bad"
        loaded = rejected = 0
        for bit in range(8 * 8, 8 * len(blob)):
            bad.write_bytes(self.flipped(blob, bit))
            i = bit // 8 - 8
            value = labels[i] ^ (1 << (bit % 8))
            if value > 9:
                with pytest.raises(
                    ValueError, match=f"^label value {value} at index {i} out of range 0..9$"
                ):
                    data.read_idx_labels(bad)
                rejected += 1
            else:
                got = data.read_idx_labels(bad)
                assert np.flatnonzero(got != labels).tolist() == [i]
                loaded += 1
        assert loaded and rejected


def float_fold_oracle(images: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The earlier eager fold: every pixel of the split cast to float64 at once."""
    px = images.astype(np.float64) / 255.0
    return px[:, :14, :].reshape(-1, 392), px[:, 14:, :].reshape(-1, 392)


def fold_one(px: np.ndarray) -> np.ndarray:
    return Dataset.from_arrays(px[None], np.zeros(1, dtype=np.uint8), "train").complex_rows(
        [0]
    )[0]


class TestFoldEncoding:
    def test_halves_to_re_and_im(self):
        px = np.zeros((28, 28), dtype=np.uint8)
        px[0, 0] = 255  # top half -> real part
        px[14, 0] = 51  # bottom half -> imaginary part
        px[13, 27] = 102
        x = fold_one(px)
        assert x[0].real == 1.0
        assert x[0].imag == pytest.approx(51 / 255)
        # (row 13, col 27) flattens row-major to index 13*28 + 27
        assert x[13 * 28 + 27].real == pytest.approx(102 / 255)

    def test_values_lie_in_unit_interval(self):
        imgs, labels = synthetic_images(4, seed=6)
        x = Dataset.from_arrays(imgs, labels, "train").complex_rows(slice(None))
        assert x.real.min() >= 0 and x.real.max() <= 1
        assert x.imag.min() >= 0 and x.imag.max() <= 1

    def test_decode_inverts_encode(self):
        imgs, labels = synthetic_images(6, seed=7)
        x = Dataset.from_arrays(imgs, labels, "train").complex_rows(slice(None))
        back = np.concatenate([np.rint(x.real * 255.0), np.rint(x.imag * 255.0)], axis=1)
        np.testing.assert_array_equal(back.astype(np.uint8).reshape(imgs.shape), imgs)

    def test_stack_matches_single_encoding(self):
        imgs, labels = synthetic_images(5, seed=8)
        x = Dataset.from_arrays(imgs, labels, "train").complex_rows(slice(None))
        assert x.shape == (5, 392)
        for i in range(5):
            assert x[i].tobytes() == fold_one(imgs[i]).tobytes()

    def test_wrong_shape_rejected(self):
        labels = np.zeros(2, dtype=np.uint8)
        with pytest.raises(ValueError, match=r"\(2, 28, 27\)"):
            Dataset.from_arrays(np.zeros((2, 28, 27), dtype=np.uint8), labels, "train")
        with pytest.raises(ValueError, match=r"\(28, 28\)"):
            Dataset.from_arrays(np.zeros((28, 28), dtype=np.uint8), labels, "train")

    def test_non_uint8_images_rejected(self):
        labels = np.zeros(2, dtype=np.uint8)
        with pytest.raises(ValueError, match="float64"):
            Dataset.from_arrays(np.zeros((2, 28, 28)), labels, "train")
        with pytest.raises(ValueError, match="int64"):
            Dataset.from_arrays(np.zeros((2, 28, 28), dtype=np.int64), labels, "train")

    def test_folded_length_enforced(self):
        with pytest.raises(ValueError, match="784"):
            Dataset(
                pixels=np.zeros((1, 392), dtype=np.uint8),
                labels=np.zeros(1, dtype=np.int64),
                split="train",
            )


class TestDataset:
    def test_load_and_index(self, synth_idx_files):
        ds = Dataset.load(
            synth_idx_files["train_images"], synth_idx_files["train_labels"], "train"
        )
        assert len(ds) == 512
        assert ds.complex_rows([0]).shape == (1, 392)

    def test_split_held_as_uint8_pixels(self, synth_idx_files):
        ds = Dataset.load(
            synth_idx_files["train_images"], synth_idx_files["train_labels"], "train"
        )
        assert ds.pixels.dtype == np.uint8
        assert ds.pixels.nbytes == 512 * 784

    def test_bad_split_rejected(self):
        with pytest.raises(ValueError, match="split"):
            Dataset(
                pixels=np.zeros((1, 784), dtype=np.uint8),
                labels=np.zeros(1, dtype=np.int64),
                split="validation",
            )

    def test_count_mismatch_rejected(self):
        imgs, _ = synthetic_images(4, seed=9)
        with pytest.raises(ValueError):
            Dataset.from_arrays(imgs, np.zeros(3, dtype=np.uint8), "train")

    @pytest.mark.parametrize(
        "rows",
        [
            np.random.default_rng(10).permutation(300),  # a shuffled epoch order
            slice(64, 128),
            slice(256, 512),  # the short last predict chunk
            np.array([], dtype=np.int64),
            slice(300, 300),
        ],
        ids=["shuffled", "slice", "short-last-chunk", "empty-index", "empty-slice"],
    )
    def test_complex_rows_match_the_float_fold_bytewise(self, rows):
        imgs, labels = synthetic_images(300, seed=10)
        re, im = float_fold_oracle(imgs)
        x = Dataset.from_arrays(imgs, labels, "train").complex_rows(rows)
        assert x.dtype == np.complex128 and x.shape == re[rows].shape
        assert x.real.tobytes() == re[rows].tobytes()
        assert x.imag.tobytes() == im[rows].tobytes()

    def test_re_and_im_fold_on_access(self):
        imgs, labels = synthetic_images(20, seed=12)
        ds = Dataset.from_arrays(imgs, labels, "test")
        re, im = float_fold_oracle(imgs)
        assert ds.re.tobytes() == re.tobytes() and ds.im.tobytes() == im.tobytes()
        assert ds.re is not ds.re  # no cache: each access folds anew
        with pytest.raises(AttributeError):
            ds.re = re

    def test_train_predict_and_evaluate_never_read_re_or_im(
        self, synth_datasets, monkeypatch
    ):
        def forbidden(ds):
            raise AssertionError("the whole split was folded")

        monkeypatch.setattr(Dataset, "re", property(forbidden))
        monkeypatch.setattr(Dataset, "im", property(forbidden))
        train_ds, test_ds = synth_datasets
        m = model_mod.new_model("qocnn", seed=0)
        _, history = training.train(m, train_ds, test_ds, training.TrainConfig(epochs=1))
        assert history.epochs == [1]
        log_probs = training.predict_log_probs(m, test_ds)
        report = metrics.evaluate_predictions(np.exp(log_probs), test_ds.labels)
        assert 0.0 <= report.accuracy <= 1.0


class TestBatchIter:
    def test_partition_covers_every_item_once(self, synth_datasets):
        train, _ = synth_datasets
        seen = []
        for batch in batch_iter(train, 64, seed=0):
            assert batch.x.shape[1] == 392
            assert batch.x.dtype == np.complex128
            seen.append(batch.labels)
        assert sum(len(b) for b in seen) == len(train)
        np.testing.assert_array_equal(
            np.sort(np.concatenate(seen)), np.sort(train.labels)
        )

    def test_short_final_batch(self, synth_datasets):
        train, _ = synth_datasets
        sizes = [len(b) for b in batch_iter(train, 100, seed=1)]
        assert sizes == [100] * 5 + [12]

    def test_seed_determines_order(self, synth_datasets):
        train, _ = synth_datasets
        a = [b.labels for b in batch_iter(train, 32, seed=5)]
        b = [b.labels for b in batch_iter(train, 32, seed=5)]
        c = [b.labels for b in batch_iter(train, 32, seed=6)]
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)
        assert any(not np.array_equal(x, y) for x, y in zip(a, c))

    def test_batch_size_validated(self, synth_datasets):
        train, _ = synth_datasets
        with pytest.raises(ValueError):
            next(batch_iter(train, 0, seed=0))
