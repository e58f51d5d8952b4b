"""Synthetic generator quality, temporal batching, and container round trips."""

import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sits_ssm.data import (MAGIC, DatasetFormatError, SitsDataset, SitsSample, batches,
                           export_legend, export_pgm, generate_synthetic, load_dataset,
                           pad_batch, sample_timesteps, save_dataset)
from sits_ssm.verify import centroid_accuracy


def small_ds(**kw):
    args = dict(seed=5, n_samples=6, num_classes=4, timesteps=10, channels=3,
                height=8, width=8)
    args.update(kw)
    return generate_synthetic(**args)


class TestGenerator:
    def test_same_seed_bit_identical(self):
        a, b = small_ds(), small_ds()
        for sa, sb in zip(a.samples, b.samples):
            assert np.array_equal(sa.series, sb.series)
            assert np.array_equal(sa.label_map, sb.label_map)
            assert sa.valid_length == sb.valid_length

    def test_different_seed_differs(self):
        a, b = small_ds(), small_ds(seed=6)
        assert not np.array_equal(a[0].series, b[0].series)

    def test_values_in_unit_interval(self):
        ds = small_ds(noise_sigma=0.1)
        for s in ds.samples:
            assert s.series.min() >= 0.0 and s.series.max() <= 1.0

    def test_noise_free_data_is_centroid_separable(self):
        ds = small_ds(noise_sigma=0.0, n_samples=10)
        assert centroid_accuracy(ds) == 1.0

    def test_centroid_accuracy_degrades_monotonically_with_noise(self):
        accs = [centroid_accuracy(small_ds(noise_sigma=s, n_samples=10))
                for s in (0.0, 0.05, 0.2)]
        assert accs[0] == 1.0
        assert accs[0] >= accs[1] >= accs[2]
        assert accs[2] < accs[0]

    def test_class_histogram_covers_all_classes(self):
        ds = generate_synthetic(seed=2, n_samples=50, num_classes=6, timesteps=8,
                                channels=2, height=16, width=16)
        seen = np.zeros(6, dtype=bool)
        for s in ds.samples:
            seen[np.unique(s.label_map)] = True
        assert seen.all()

    def test_degenerate_extents_rejected(self):
        with pytest.raises(ValueError):
            generate_synthetic(seed=0, n_samples=1, num_classes=1, timesteps=8,
                               channels=2, height=8, width=8)
        with pytest.raises(ValueError):
            generate_synthetic(seed=0, n_samples=1, num_classes=3, timesteps=2,
                               channels=2, height=8, width=8)

    def test_variable_lengths_when_requested(self):
        ds = small_ds(min_valid_length=4, n_samples=20)
        lengths = {s.valid_length for s in ds.samples}
        assert len(lengths) > 1 and min(lengths) >= 4
        for s in ds.samples:
            assert np.array_equal(s.series[s.valid_length:],
                                  np.zeros_like(s.series[s.valid_length:]))


class TestPadBatch:
    def test_equal_lengths_identity_mask_all_true(self):
        ds = small_ds(n_samples=3)
        batch = pad_batch(ds.samples)
        assert batch.series.shape[1] == 10
        assert batch.valid_mask.all()
        for i, s in enumerate(ds.samples):
            assert np.array_equal(batch.series[i], s.series)

    def test_mixed_lengths_5_and_8(self, rng):
        mk = lambda t_valid: SitsSample(
            rng.uniform(0, 1, (8, 2, 4, 4)).astype(np.float32),
            rng.integers(0, 3, (4, 4)), t_valid)
        batch = pad_batch([mk(5), mk(8)])
        assert batch.series.shape[1] == 8
        assert np.array_equal(batch.valid_mask[0], [1, 1, 1, 1, 1, 0, 0, 0])
        assert np.array_equal(batch.valid_mask[1], np.ones(8, bool))
        assert np.array_equal(batch.series[0, 5:], np.zeros((3, 2, 4, 4)))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            pad_batch([])


class TestSample30:
    def sample_of_length(self, rng, t):
        return SitsSample(rng.uniform(0, 1, (t, 2, 4, 4)).astype(np.float32),
                          rng.integers(0, 3, (4, 4)), t)

    def test_eval_mode_even_spacing_60(self, rng):
        s = self.sample_of_length(rng, 60)
        out = sample_timesteps(s)
        assert out.valid_length == 30
        assert np.array_equal(out.series, s.series[np.arange(0, 60, 2)])

    def test_train_mode_sorted_without_replacement(self, rng):
        s = self.sample_of_length(rng, 45)
        out = sample_timesteps(s, rng=np.random.default_rng(3))
        assert out.series.shape[0] == 30

    def test_short_series_with_replacement_logged(self, rng, caplog):
        """One warning per random draw over the batches, none in eval mode."""
        import logging
        series = [self.sample_of_length(rng, t) for t in (12, 45, 8)]
        with caplog.at_level(logging.WARNING, logger="sits_ssm.data"):
            out = [s for chunk, _ in batches(series, 2, "sample30", np.random.default_rng(3))
                   for s in chunk]
            list(batches(series, 2, "sample30"))
        assert [s.series.shape[0] for s in out] == [30, 30, 30]
        assert caplog.messages == [
            "batches: 2 of 3 series are shorter than 30 steps, sampling with replacement"]

    def test_deterministic_eval_mode(self, rng):
        s = self.sample_of_length(rng, 41)
        assert np.array_equal(sample_timesteps(s).series, sample_timesteps(s).series)


class TestContainerIO:
    def test_round_trip_bit_exact(self, tmp_path):
        ds = small_ds(min_valid_length=5)
        path = tmp_path / "ds.sits"
        save_dataset(ds, path)
        back = load_dataset(path)
        assert len(back) == len(ds)
        assert back.num_classes == ds.num_classes
        for a, b in zip(ds.samples, back.samples):
            assert np.array_equal(a.series, b.series)
            assert np.array_equal(a.label_map, b.label_map)
            assert a.valid_length == b.valid_length

    def test_bad_magic_rejected_without_partial_data(self, tmp_path):
        path = tmp_path / "ds.sits"
        save_dataset(small_ds(), path)
        raw = bytearray(path.read_bytes())
        raw[0] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(DatasetFormatError):
            load_dataset(path)

    def test_truncation_rejected(self, tmp_path):
        path = tmp_path / "ds.sits"
        save_dataset(small_ds(), path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(DatasetFormatError):
            load_dataset(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "ds.sits"
        save_dataset(small_ds(), path)
        path.write_bytes(path.read_bytes() + b"x")
        with pytest.raises(DatasetFormatError):
            load_dataset(path)

    @pytest.mark.parametrize("label", [-1, 65536, 69644])
    def test_label_outside_u16_leaves_no_file(self, tmp_path, label):
        """Labels are stored as u16: 69644 would read back as 4108."""
        ds = small_ds()
        ds.samples[2].label_map[0, 0] = label
        path = tmp_path / "ds.sits"
        with pytest.raises(ValueError, match="u16"):
            save_dataset(ds, path)
        assert not path.exists()

    def test_empty_dataset_round_trip(self, tmp_path):
        path = tmp_path / "empty.sits"
        save_dataset(SitsDataset([], 0), path)
        back = load_dataset(path)
        assert len(back) == 0


    def test_huge_declared_extents_rejected_before_allocation(self, tmp_path):
        # 4000^4 float32 values would be 1 PB; only the header is present
        path = tmp_path / "huge.sits"
        path.write_bytes(MAGIC + struct.pack("<I", 1) + struct.pack("<5I", *[4000] * 4, 1))
        with pytest.raises(DatasetFormatError):
            load_dataset(path)

    @given(cut=st.integers(0, 2**16), flips=st.lists(st.integers(0, 2**16), max_size=4))
    @settings(deadline=None, max_examples=150)
    def test_truncated_or_bit_flipped_container(self, cut, flips):
        """A damaged container loads or raises DatasetFormatError, nothing else."""
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "ds.sits"
            save_dataset(small_ds(n_samples=2, timesteps=4, channels=1, height=2, width=3,
                                  min_valid_length=2), path)
            raw = bytearray(path.read_bytes())
            for bit in flips:
                raw[bit // 8 % len(raw)] ^= 1 << bit % 8
            path.write_bytes(bytes(raw[:cut % (len(raw) + 1)]))
            try:
                load_dataset(path)
            except DatasetFormatError:
                pass


class TestBatches:
    def test_pad_mode_keeps_order_and_samples(self):
        ds = small_ds(n_samples=5, min_valid_length=3)
        out = list(batches(ds, 2))
        assert [len(chunk) for chunk, _ in out] == [2, 2, 1]
        for chunk, batch in out:
            assert np.array_equal(batch.series, pad_batch(chunk).series)
        assert [s for chunk, _ in out for s in chunk] == ds.samples

    def test_sample30_draws_from_rng_in_sample_order(self):
        ds = small_ds(n_samples=3, timesteps=45)
        rng_a, rng_b = np.random.default_rng(4), np.random.default_rng(4)
        got = [s for chunk, _ in batches(ds.samples, 2, "sample30", rng_a) for s in chunk]
        want = [sample_timesteps(s, rng_b) for s in ds.samples]
        assert all(np.array_equal(g.series, w.series) for g, w in zip(got, want))

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            next(batches(small_ds(), 2, "sample31"))


class TestExports:
    def test_pgm_header_and_payload(self, tmp_path):
        labels = np.arange(12).reshape(3, 4) % 5
        path = tmp_path / "map.pgm"
        export_pgm(labels, path)
        raw = path.read_bytes()
        assert raw.startswith(b"P5\n4 3\n255\n")
        assert raw[len(b"P5\n4 3\n255\n"):] == labels.astype(np.uint8).tobytes()

    def test_pgm_rejects_wide_labels(self, tmp_path):
        with pytest.raises(ValueError):
            export_pgm(np.full((2, 2), 300), tmp_path / "bad.pgm")

    def test_legend_csv(self, tmp_path):
        path = tmp_path / "legend.csv"
        export_legend(3, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0].startswith("gray_level")
        assert len(lines) == 4
