"""Synthetic dataset generators: determinism, structure, learnability hooks."""

import numpy as np
import pytest

from repro.datasets import (
    BigEarthNetConfig,
    CXR_CLASSES,
    CxrConfig,
    IcuCohort,
    IcuConfig,
    LAND_COVER_CLASSES,
    SENTINEL2_BANDS,
    SyntheticBigEarthNet,
    SyntheticCovidx,
    VITAL_CHANNELS,
    berlin_severity,
    make_imputation_windows,
)
from repro.core.streaming import StreamingConfig
from repro.datasets.cxr import IMAGE_SIZE
from repro.datasets.icu import ARDS_FRACTION


class TestBigEarthNet:
    def test_shapes_and_dtypes(self):
        ds = SyntheticBigEarthNet(BigEarthNetConfig(
            n_samples=50, patch_size=12, n_classes=5, seed=0))
        X, y = ds.generate()
        assert X.shape == (50, 12, 12, 12)
        assert y.shape == (50,)
        assert y.dtype == np.int64
        assert len(SENTINEL2_BANDS) == 12

    def test_deterministic(self):
        cfg = BigEarthNetConfig(n_samples=20, patch_size=8, seed=3)
        X1, y1 = SyntheticBigEarthNet(cfg).generate()
        X2, y2 = SyntheticBigEarthNet(cfg).generate()
        np.testing.assert_array_equal(X1, X2)
        np.testing.assert_array_equal(y1, y2)

    def test_different_seeds_differ(self):
        X1, _ = SyntheticBigEarthNet(BigEarthNetConfig(
            n_samples=5, patch_size=8, seed=1)).generate()
        X2, _ = SyntheticBigEarthNet(BigEarthNetConfig(
            n_samples=5, patch_size=8, seed=2)).generate()
        assert not np.array_equal(X1, X2)

    def test_classes_spectrally_separable(self):
        """Water absorbs NIR, vegetation reflects it — mean band profiles
        must differ strongly between classes."""
        ds = SyntheticBigEarthNet(BigEarthNetConfig(
            n_samples=200, patch_size=8, n_classes=10, seed=0,
            noise_sigma=0.01))
        X, y = ds.generate()
        water = X[y == LAND_COVER_CLASSES.index("water-body")]
        forest = X[y == LAND_COVER_CLASSES.index("broadleaf-forest")]
        nir = SENTINEL2_BANDS.index("B08")
        assert forest[:, nir].mean() > 4 * water[:, nir].mean()

    def test_pixels_for_autoencoder(self):
        ds = SyntheticBigEarthNet(BigEarthNetConfig(n_classes=4, seed=0))
        spectra, labels = ds.pixels(100)
        assert spectra.shape == (100, 12)
        assert labels.max() < 4

    def test_config_validation(self):
        with pytest.raises(ValueError):
            BigEarthNetConfig(n_classes=99)
        with pytest.raises(ValueError):
            BigEarthNetConfig(patch_size=2)
        with pytest.raises(ValueError):
            BigEarthNetConfig(noise_sigma=-0.1)


class TestCovidx:
    def test_shapes_and_classes(self):
        X, y = SyntheticCovidx(CxrConfig(n_samples=60, seed=0)).generate()
        assert X.shape == (60, 1, IMAGE_SIZE, IMAGE_SIZE)
        assert set(np.unique(y)) <= {0, 1, 2}
        assert len(CXR_CLASSES) == 3

    def test_deterministic(self):
        cfg = CxrConfig(n_samples=10, seed=4)
        X1, y1 = SyntheticCovidx(cfg).generate()
        X2, y2 = SyntheticCovidx(cfg).generate()
        np.testing.assert_array_equal(X1, X2)

    def test_covid_is_bilateral_pneumonia_focal(self):
        """COVID opacities hit both lungs; pneumonia one lung only —
        measured via added brightness vs the normal template."""
        gen = SyntheticCovidx(CxrConfig(n_samples=300, seed=1,
                                        noise_sigma=0.0))
        X, y = gen.generate()
        normal = X[y == 0].mean(axis=0)[0]
        hw = IMAGE_SIZE
        left = (slice(None), slice(0, hw // 2))
        right = (slice(None), slice(hw // 2, hw))

        covid_extra = X[y == 2].mean(axis=0)[0] - normal
        pneu = X[y == 1] - normal[None, None]
        assert covid_extra[left].sum() > 0.1
        assert covid_extra[right].sum() > 0.1
        # Each pneumonia image is one-sided: per-image asymmetry is high.
        asym = [abs(img[0][left].sum() - img[0][right].sum())
                for img in pneu]
        total = [abs(img[0][left].sum()) + abs(img[0][right].sum())
                 for img in pneu]
        assert np.median(np.array(asym) / np.maximum(total, 1e-9)) > 0.3

    def test_external_validation_is_shifted_but_same_task(self):
        gen = SyntheticCovidx(CxrConfig(n_samples=20, seed=0))
        Xe, ye = gen.generate_external_validation(30)
        assert Xe.shape == (30, 1, IMAGE_SIZE, IMAGE_SIZE)
        X, _ = gen.generate()
        # Distribution shift: different gain.
        assert abs(Xe.mean() - X.mean()) > 0.005

    def test_config_validation(self):
        with pytest.raises(ValueError):
            CxrConfig(noise_sigma=-1)


class TestIcuCohort:
    def _cohort(self, **kw):
        defaults = dict(n_patients=12, seed=2)
        defaults.update(kw)
        return IcuCohort(IcuConfig(**defaults)).generate()

    def test_record_structure(self):
        records = self._cohort()
        assert len(records) == 12
        rec = records[0]
        assert rec.vitals.shape[1] == len(VITAL_CHANNELS)
        assert rec.mask.shape == rec.vitals.shape
        assert rec.truth.shape == rec.vitals.shape

    def test_varying_lengths(self):
        lengths = {r.n_hours for r in self._cohort(n_patients=20)}
        assert len(lengths) > 3

    def test_missingness_present_and_masked_as_nan(self):
        for rec in self._cohort():
            missing = ~rec.mask
            assert missing.any()
            assert np.isnan(rec.vitals[missing]).all()
            assert not np.isnan(rec.vitals[rec.mask]).any()

    def test_truth_is_dense(self):
        for rec in self._cohort():
            assert np.isfinite(rec.truth).all()

    def test_ards_fraction_controls_incidence(self):
        records = self._cohort(n_patients=80)
        incidence = sum(r.has_ards for r in records) / len(records)
        assert abs(incidence - ARDS_FRACTION) < 0.15

    def test_ards_pf_crosses_berlin_threshold(self):
        # Every ARDS stay that runs past the 12 h decline after onset.
        records = [r for r in self._cohort(n_patients=40, min_hours=48,
                                           max_hours=72)
                   if r.has_ards and r.n_hours > r.ards_onset_hour + 12]
        assert records
        for rec in records:
            pf = rec.pf_ratio()
            post = pf[rec.ards_onset_hour + 12:]
            assert post.min() < 300.0      # Berlin definition onset

    def test_healthy_patients_stay_oxygenated(self):
        records = [r for r in self._cohort(n_patients=20)
                   if not r.has_ards]
        assert records
        for rec in records:
            assert np.median(rec.pf_ratio()) > 250.0

    def test_physiological_coupling_hr_rises_with_hypoxia(self):
        records = [r for r in self._cohort(n_patients=40, min_hours=60,
                                           max_hours=80) if r.has_ards]
        hr = VITAL_CHANNELS.index("heart_rate")
        pre = np.concatenate([r.truth[:r.ards_onset_hour, hr]
                              for r in records])
        post = np.concatenate([r.truth[r.ards_onset_hour + 12:, hr]
                               for r in records])
        assert post.mean() > pre.mean() + 5.0

    def test_deterministic(self):
        a = self._cohort()
        b = self._cohort()
        for ra, rb in zip(a, b):
            np.testing.assert_array_equal(ra.truth, rb.truth)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            IcuConfig(n_patients=0)
        with pytest.raises(ValueError):
            IcuConfig(min_hours=4)


class TestBerlin:
    def test_severity_bands(self):
        assert berlin_severity(350) == "none"
        assert berlin_severity(250) == "mild"
        assert berlin_severity(150) == "moderate"
        assert berlin_severity(80) == "severe"

    def test_boundaries(self):
        assert berlin_severity(300) == "none"
        assert berlin_severity(299.9) == "mild"
        assert berlin_severity(100) == "moderate"

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            berlin_severity(-1)


class TestImputationWindows:
    def test_shapes(self):
        records = IcuCohort(IcuConfig(n_patients=5, seed=1)).generate()
        X, y, stats = make_imputation_windows(records, window=6,
                                              target_channel=1)
        assert X.shape[1:] == (6, len(VITAL_CHANNELS))
        assert y.shape == (X.shape[0], 1)
        assert stats["window"] == 6

    def test_no_nans_after_fill(self):
        records = IcuCohort(IcuConfig(n_patients=5, seed=1)).generate()
        X, y, _ = make_imputation_windows(records)
        assert np.isfinite(X).all() and np.isfinite(y).all()

    def test_normalisation_statistics(self):
        records = IcuCohort(IcuConfig(n_patients=10, seed=3)).generate()
        X, y, stats = make_imputation_windows(records, target_channel=0)
        # Observed (non-zero-filled) entries should be roughly standardised.
        assert abs(np.median(y)) < 1.5
        assert stats["std"].shape == (len(VITAL_CHANNELS),)

    def test_validation(self):
        records = IcuCohort(IcuConfig(n_patients=2, seed=0)).generate()
        with pytest.raises(ValueError):
            make_imputation_windows(records, window=0)
        with pytest.raises(ValueError):
            make_imputation_windows(records, target_channel=99)
        with pytest.raises(ValueError):
            make_imputation_windows([])


#: Range checks written ``x < 0`` let NaN through (every comparison with
#: NaN is false); each config names the bound it must hold instead.
NAN_CONFIGS = {
    "cxr-noise": lambda: CxrConfig(noise_sigma=float("nan")),
    "bigearthnet-noise": lambda: BigEarthNetConfig(noise_sigma=float("nan")),
    "streaming-rate": lambda: StreamingConfig(
        arrival_rate_per_s=float("nan"), service_time_s=1.0, n_servers=1),
    "streaming-service": lambda: StreamingConfig(
        arrival_rate_per_s=1.0, service_time_s=float("nan"), n_servers=1),
    "streaming-duration": lambda: StreamingConfig(
        arrival_rate_per_s=1.0, service_time_s=1.0, n_servers=1,
        duration_s=float("nan")),
}


@pytest.mark.parametrize("case", sorted(NAN_CONFIGS))
def test_nan_is_rejected_at_construction(case):
    with pytest.raises(ValueError):
        NAN_CONFIGS[case]()
