import json
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pulsegate.errors import InvalidInputError
from pulsegate.fileio import (
    read_cube,
    read_features,
    read_waveform,
    sha256_file,
    write_cube,
    write_features,
    write_waveform,
)
from pulsegate.signal_core import VideoCube, Waveform


def test_waveform_csv_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    w = Waveform(rng.standard_normal(123), 30.0)
    path = tmp_path / "wave.csv"
    write_waveform(w, path)
    back = read_waveform(path)
    assert back.fps == pytest.approx(30.0)
    np.testing.assert_allclose(back.samples, w.samples, atol=1e-15)


def test_waveform_json_round_trip(tmp_path):
    w = Waveform(np.linspace(-1, 1, 50), 90.0)
    path = tmp_path / "wave.json"
    write_waveform(w, path)
    back = read_waveform(path)
    assert back.fps == 90.0
    np.testing.assert_allclose(back.samples, w.samples)


def test_waveform_csv_bad_header_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("time,val\n0,1\n1,2\n")
    with pytest.raises(InvalidInputError):
        read_waveform(path)


def test_cube_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    cube = VideoCube(rng.uniform(0, 1, (10, 4, 5, 3)), 30.0)
    path = tmp_path / "cube.bin"
    write_cube(cube, path)
    sidecar = json.loads((tmp_path / "cube.json").read_text())
    assert sidecar == {"t": 10, "h": 4, "w": 5, "c": 3, "fps": 30.0,
                       "dtype": "f32", "order": "THWC"}
    back = read_cube(path)
    assert back.fps == 30.0
    np.testing.assert_allclose(back.data, cube.data, atol=1e-7)


def test_cube_payload_size_checked(tmp_path):
    rng = np.random.default_rng(2)
    cube = VideoCube(rng.uniform(0, 1, (4, 2, 2, 3)), 10.0)
    path = tmp_path / "cube.bin"
    write_cube(cube, path)
    path.write_bytes(path.read_bytes()[:-4])
    with pytest.raises(InvalidInputError):
        read_cube(path)


@pytest.mark.parametrize("sidecar", ["[1]", '{"dtype": "f32", "order": "THWC", "t": 4}',
                                     '{"dtype": "f32", "order": "THWC", "t": "four", '
                                     '"h": 2, "w": 2, "c": 3, "fps": 10}', "{"])
def test_malformed_sidecar_rejected(tmp_path, sidecar):
    cube = VideoCube(np.zeros((4, 2, 2, 3)), 10.0)
    path = tmp_path / "cube.bin"
    write_cube(cube, path)
    (tmp_path / "cube.json").write_text(sidecar)
    with pytest.raises(InvalidInputError):
        read_cube(path)


def csv_text(times):
    return "t,value\n" + "".join(f"{t!r},{i}\n" for i, t in enumerate(times))


TICKS = [i / 30 for i in range(150)]  # 5 s at 30 fps


@pytest.mark.parametrize("text", [
    "", "t,value\n0.0,1.0\n0.1,x\n", "t,value\n0.0\n0.1,1\n",
    pytest.param(csv_text([0.0, 0.1, 0.1, 0.2]), id="repeated_time"),
    pytest.param(csv_text([0.0, 0.1, 0.3, 0.2, 0.4]), id="swapped_pair"),
    pytest.param(csv_text(TICKS[:75] + [t + 5.0 for t in TICKS[75:]]), id="gap_of_5_s"),
    pytest.param(csv_text([0.0, 0.1, 0.2, 0.36, 0.4]), id="step_of_1.6_mean_steps"),
    pytest.param(csv_text([0.0, float("nan"), 0.2, 0.3]), id="nan_time"),
])
def test_malformed_waveform_csv_rejected(tmp_path, text):
    path = tmp_path / "wave.csv"
    path.write_text(text)
    with pytest.raises(InvalidInputError, match=re.escape(str(path))):
        read_waveform(path)


@pytest.mark.parametrize("fps", [30.0, 90.0])
def test_millisecond_rounded_times_read(tmp_path, fps):
    path = tmp_path / "wave.csv"
    path.write_text(csv_text([round(i / fps, 3) for i in range(int(10 * fps))]))
    assert read_waveform(path).fps == pytest.approx(fps, rel=1e-3)


FEATURE_HEADER = "t_start,snr_db,sigma,env_mean,ibi_mean,ibi_std,dibi_mean,dibi_std,rmssd"
FEATURE_ROW = "0.0," + ",".join(["1.5"] * 8)


@pytest.mark.parametrize("text", [
    pytest.param("t_start,snr_db\n0.0,nope\n", id="short_header"),
    pytest.param(f"{FEATURE_HEADER}\n0.0,nope,{','.join(['1.5'] * 7)}\n", id="non_numeric_value"),
    pytest.param(f"{FEATURE_HEADER},label\n{FEATURE_ROW},1\n{FEATURE_ROW},2\n", id="label_2"),
    pytest.param(f"{FEATURE_HEADER},label\n{FEATURE_ROW},0\n", id="label_0"),
    pytest.param(f"{FEATURE_HEADER},label\n{FEATURE_ROW},1.0\n", id="label_1.0"),
    pytest.param(",".join(f"c{i}" for i in range(12)) + "\n" + ",".join(["1.5"] * 12) + "\n",
                 id="twelve_columns_wrong_header"),
    pytest.param(",".join(f"c{i}" for i in range(9)) + f"\n{FEATURE_ROW}\n",
                 id="header_names_no_feature"),
    pytest.param(f"{FEATURE_HEADER},extra\n{FEATURE_ROW},1.5\n", id="unknown_column"),
    pytest.param(f"{FEATURE_HEADER}\n{FEATURE_ROW},1.5\n", id="row_longer_than_header"),
    pytest.param(f"{FEATURE_HEADER},label\n{FEATURE_ROW}\n", id="row_without_its_label"),
    pytest.param("", id="empty_file"),
])
def test_malformed_feature_table_rejected(tmp_path, text):
    path = tmp_path / "feats.csv"
    path.write_text(text)
    with pytest.raises(InvalidInputError, match=re.escape(str(path))):
        read_features(path)


def test_features_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    t_starts = np.arange(5.0)
    matrix = rng.standard_normal((5, 8))
    labels = np.array([1, -1, 1, 1, -1])
    path = tmp_path / "feats.csv"
    write_features(path, t_starts, matrix, labels)
    t_back, m_back, l_back = read_features(path)
    np.testing.assert_allclose(t_back, t_starts)
    np.testing.assert_allclose(m_back, matrix, atol=1e-15)
    np.testing.assert_array_equal(l_back, labels)
    write_features(path, t_starts, matrix)
    _, _, no_labels = read_features(path)
    assert no_labels is None


def test_deterministic_bytes(tmp_path):
    w = Waveform(np.linspace(0, 1, 40), 25.0)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_waveform(w, a)
    write_waveform(w, b)
    assert sha256_file(a) == sha256_file(b)


finite = st.floats(allow_nan=False, allow_infinity=False)
samples = st.lists(finite, min_size=2, max_size=40)
fps_values = st.floats(0.5, 500.0)
round_trip = settings(max_examples=60, deadline=None, derandomize=True, database=None)


@round_trip
@given(values=samples, fps=fps_values)
def test_waveform_csv_round_trip_any_values(values, fps):
    w = Waveform(np.array(values), fps)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "wave.csv"
        write_waveform(w, path)
        expected = "t,value\r\n" + "".join(
            f"{i / w.fps!r},{v!r}\r\n" for i, v in enumerate(values))
        assert path.read_bytes() == expected.encode()
        back = read_waveform(path)
    np.testing.assert_array_equal(back.samples, w.samples)
    assert back.fps == pytest.approx(w.fps, rel=1e-12)


@round_trip
@given(values=samples, fps=fps_values)
def test_waveform_json_round_trip_any_values(values, fps):
    w = Waveform(np.array(values), fps)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "wave.json"
        write_waveform(w, path)
        back = read_waveform(path)
    np.testing.assert_array_equal(back.samples, w.samples)
    assert back.fps == w.fps


@round_trip
@given(data=st.data(), n=st.integers(1, 12), labelled=st.booleans())
def test_features_round_trip_any_values(data, n, labelled):
    t_starts = np.array(data.draw(st.lists(finite, min_size=n, max_size=n)))
    matrix = np.array(data.draw(st.lists(st.lists(finite, min_size=8, max_size=8),
                                         min_size=n, max_size=n)))
    labels = np.array(data.draw(st.lists(st.sampled_from([1, -1]), min_size=n, max_size=n)))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "feats.csv"
        write_features(path, t_starts, matrix, labels if labelled else None)
        header = "t_start,snr_db,sigma,env_mean,ibi_mean,ibi_std,dibi_mean,dibi_std,rmssd"
        rows = [",".join(map(repr, [t, *row])) + (f",{label}" if labelled else "")
                for t, row, label in zip(t_starts.tolist(), matrix.tolist(), labels.tolist())]
        expected = header + (",label" if labelled else "") + "\r\n"
        assert path.read_bytes() == (expected + "".join(r + "\r\n" for r in rows)).encode()
        t_back, m_back, l_back = read_features(path)
    np.testing.assert_array_equal(t_back, t_starts)
    np.testing.assert_array_equal(m_back, matrix)
    if labelled:
        np.testing.assert_array_equal(l_back, labels)
    else:
        assert l_back is None
