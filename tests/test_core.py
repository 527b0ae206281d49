import os
import warnings

import numpy as np
import pytest

import oracles
from picontrol.core import (ParameterError, ParamVector, PIHyperParams,
                            RngStream, ShapeError, gaussian_noise,
                            pack_params, read_csv, unpack_params, write_csv)


class _FakeModel:
    def __init__(self, values):
        self._values = np.asarray(values, dtype=float)

    @property
    def num_params(self):
        return self._values.size

    def get_params(self):
        return self._values.copy()

    def set_params(self, vec):
        self._values = np.asarray(vec, dtype=float).copy()


def test_pack_concatenates_with_layout():
    models = [("a", _FakeModel([1.0, 2.0, 3.0])), ("b", _FakeModel([4.0, 5.0]))]
    pv = pack_params(models)
    assert pv.size == 5
    assert pv.layout == (("a", 0, 3), ("b", 3, 2))
    assert np.array_equal(pv.values, [1, 2, 3, 4, 5])


def test_pack_zero_models():
    pv = pack_params([])
    assert pv.size == 0


def test_pack_unpack_round_trip_bitwise():
    rng = np.random.default_rng(0)
    for _ in range(20):
        models = [("m%d" % i, _FakeModel(rng.standard_normal(rng.integers(1, 9))))
                  for i in range(4)]
        before = [m.get_params().copy() for _, m in models]
        pv = pack_params(models)
        unpack_params(pv, models)
        for prev, (_, m) in zip(before, models):
            assert np.array_equal(prev, m.get_params())


def test_unpack_wrong_length_raises():
    models = [("a", _FakeModel([1.0, 2.0]))]
    pv = pack_params(models)
    bad = ParamVector((("a", 0, 3),), np.zeros(3))
    with pytest.raises(ShapeError):
        unpack_params(bad, models)


def test_unpack_wrong_name_raises():
    models = [("a", _FakeModel([1.0, 2.0]))]
    pv = pack_params(models)
    with pytest.raises(ShapeError):
        unpack_params(pv, [("b", models[0][1])])


def test_perturb_one_segment_only_touches_one_model():
    models = [("a", _FakeModel([1.0, 2.0])), ("b", _FakeModel([3.0]))]
    pv = pack_params(models)
    pv.segment("b")[:] += 10.0
    unpack_params(pv, models)
    assert np.array_equal(models[0][1].get_params(), [1.0, 2.0])
    assert np.array_equal(models[1][1].get_params(), [13.0])


def test_param_vector_segment_unknown_name():
    pv = pack_params([("a", _FakeModel([1.0]))])
    with pytest.raises(ShapeError):
        pv.segment("zzz")


def test_hyperparams_validation():
    good = PIHyperParams(0.01, 1500.0, 0.2, 100, 200, 200)
    assert good.nu == 1500.0
    with pytest.raises(ParameterError):
        PIHyperParams(0.0, 1500.0, 0.2, 100, 200, 200)
    with pytest.raises(ParameterError):
        PIHyperParams(0.01, -1.0, 0.2, 100, 200, 200)
    with pytest.raises(ParameterError):
        PIHyperParams(0.01, 1500.0, -0.2, 100, 200, 200)
    with pytest.raises(ParameterError):
        PIHyperParams(0.01, 1500.0, 0.2, 0, 200, 200)
    # counts are integers: fractions, bools and numeric strings are refused
    for bad in (2.9, 2.0, True, "5", None):
        with pytest.raises(ParameterError, match="recurrences must be an int"):
            PIHyperParams(0.01, 1500.0, 0.2, 100, 200, bad)
    numpy_count = PIHyperParams(0.01, 1500.0, 0.2, np.int64(4), 200, 200)
    assert numpy_count.num_samples == 4
    # reals are numbers: bools, numeric strings and null name their field
    for field, name in enumerate(("lambda", "nu", "sigma")):
        for bad in (True, "0.5", None):
            args = [0.01, 1500.0, 0.2, 100, 200, 200]
            args[field] = bad
            with pytest.raises(ParameterError,
                               match=f"{name} must be a real number"):
                PIHyperParams(*args)


def test_noise_is_deterministic_per_stream():
    rng = RngStream(123).child(7)
    a = gaussian_noise(rng, 5, 4, 2, 0.2)
    b = gaussian_noise(rng, 5, 4, 2, 0.2)
    assert np.array_equal(a, b)
    c = gaussian_noise(RngStream(123).child(8), 5, 4, 2, 0.2)
    assert not np.array_equal(a, c)


def test_noise_trajectory_blocks_do_not_depend_on_k():
    # drawing more trajectories must not change the earlier blocks
    rng = RngStream(5).child(1)
    small = gaussian_noise(rng, 3, 6, 2, 0.1)
    big = gaussian_noise(rng, 8, 6, 2, 0.1)
    assert np.array_equal(small, big[:3])


def test_noise_matches_per_trajectory_generators_bytewise():
    for seed in range(4):
        rng = RngStream(seed).child(3, seed)
        for K in (1, 7, 100):
            for m in (1, 2, 3):
                for sigma in (1e-3, 0.2, 3.7):
                    got = gaussian_noise(rng, K, 5, m, sigma)
                    want = oracles.per_trajectory_noise(rng.base_key(), K, 5,
                                                        m, sigma)
                    assert got.tobytes() == want.tobytes(), (seed, K, m, sigma)


def test_noise_key_wraps_modulo_2_64_without_warning(monkeypatch):
    b0 = np.uint64(12345)
    monkeypatch.setattr(RngStream, "base_key", lambda self: np.array(
        [b0, np.uint64(2**64 - 2)], dtype=np.uint64))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = gaussian_noise(RngStream(0), 5, 4, 2, 0.3)
    want = oracles.per_trajectory_noise((b0, 2**64 - 2), 5, 4, 2, 0.3)
    assert got.tobytes() == want.tobytes()


def test_noise_builds_at_most_one_generator_per_call(monkeypatch):
    builds = []
    real = np.random.Philox

    def counting(*args, **kwargs):
        builds.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(np.random, "Philox", counting)
    gaussian_noise(RngStream(3).child(1), 100, 30, 1, 0.2)
    assert len(builds) <= 1


def test_noise_rejects_bad_sigma():
    with pytest.raises(ParameterError):
        gaussian_noise(RngStream(0), 2, 2, 1, 0.0)
    with pytest.raises(ParameterError):
        gaussian_noise(RngStream(0), 2, 2, 1, -1.0)


def test_noise_statistics():
    # K*N*m = 1e5 draws at sigma = 0.005: mean within 4 sigma / sqrt(count),
    # std within 2% of sigma.
    sigma = 0.005
    noise = gaussian_noise(RngStream(2024), 100, 100, 10, sigma)
    count = noise.size
    assert abs(noise.mean()) < 4 * sigma / np.sqrt(count)
    assert abs(noise.std() / sigma - 1.0) < 0.02


def test_noise_shape_and_dtype():
    noise = gaussian_noise(RngStream(1), 4, 3, 2, 0.2)
    assert noise.shape == (4, 3, 2)
    assert noise.dtype == np.float64


def test_rng_stream_children_are_distinct():
    base = RngStream(99)
    seen = set()
    for i in range(50):
        vals = base.child(i).generator().random(3)
        seen.add(tuple(vals))
    assert len(seen) == 50


# ------------------------------------------------------------ csv artifacts


def test_csv_cells_round_trip_bitwise(tmp_path):
    floats = [-0.0, 5e-324, 0.1 + 0.2, 1e300, np.float64(-2.5e-7)]
    path = tmp_path / "a.csv"
    write_csv(path, ["a", "b", "c", "d", "e", "missing", "step", "label"],
              [floats + [None, 3, ""], [np.float32(0.1)] + floats[1:]
               + [None, np.int64(4), "x"]])
    header, first, second = read_csv(path)
    assert header == ["a", "b", "c", "d", "e", "missing", "step", "label"]
    back = np.array([float(v) for v in first[:5]])
    assert back.tobytes() == np.array(floats, dtype=float).tobytes()
    assert first[5:] == ["", "3", ""]
    assert second[0] == repr(float(np.float32(0.1)))
    assert second[5:] == ["", "4", "x"]


def test_csv_without_header_is_an_empty_file(tmp_path):
    path = tmp_path / "empty.csv"
    write_csv(path, None, [])
    assert path.read_bytes() == b""
    assert read_csv(path) == []


def test_csv_write_that_raises_keeps_the_previous_file(tmp_path):
    path = tmp_path / "a.csv"
    write_csv(path, ["x"], [[1.0]])
    before = path.read_bytes()

    def rows():
        yield [2.0]
        raise RuntimeError("interrupted")

    with pytest.raises(RuntimeError, match="interrupted"):
        write_csv(path, ["x"], rows())
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["a.csv"]
