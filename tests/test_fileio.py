import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qubitpair as qp
from qubitpair import fileio

SQ2 = 1.0 / np.sqrt(2.0)
SINGLET = np.array([0.0, SQ2, -SQ2, 0.0], dtype=complex)


class TestFloatFormat:
    @settings(max_examples=500, deadline=None)
    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_roundtrip_bitexact(self, x):
        assert json.loads(fileio.dumps(x)) == x

    def test_dumps_loads_identity(self):
        obj = {"a": 0.1, "b": [1, 2.5e-17, None, True], "c": {"d": [[-0.0, 3.0]]}}
        assert json.loads(fileio.dumps(obj)) == obj


class TestStateFiles:
    def test_roundtrip_bitexact(self, tmp_path):
        path = tmp_path / "state.json"
        for psi in qp.sample_haar(50, 3):
            fileio.save_state(path, psi)
            assert np.array_equal(fileio.load_state(path), psi)
            # saving the loaded state reproduces the file byte for byte
            text = path.read_text()
            fileio.save_state(path, fileio.load_state(path))
            assert path.read_text() == text

    def test_slightly_off_norm_is_silently_fixed(self, tmp_path):
        path = tmp_path / "state.json"
        psi = SINGLET * (1 + 5e-10)
        fileio.save_state(path, psi)
        loaded = fileio.load_state(path)
        assert abs(np.vdot(loaded, loaded).real - 1) < 1e-12

    def test_worse_norm_warns(self, tmp_path):
        path = tmp_path / "state.json"
        fileio.save_state(path, SINGLET * (1 + 5e-8))
        with pytest.warns(RuntimeWarning):
            loaded = fileio.load_state(path)
        assert abs(np.vdot(loaded, loaded).real - 1) < 1e-12

    def test_bad_norm_rejected(self, tmp_path):
        path = tmp_path / "state.json"
        fileio.save_state(path, SINGLET * 1.01)
        with pytest.raises(fileio.ParseError):
            fileio.load_state(path)

    @pytest.mark.parametrize("text", [
        "not json at all",
        '{"amplitudes": [[1, 0], [0, 0], [0, 0]]}',
        '{"amplitudes": [[1, 0], [0, 0], [0, 0], [0]]}',
        '{"amplitudes": [[1, 0], [0, 0], [0, 0], [0, "x"]]}',
        '{"something": 1}',
    ])
    def test_malformed_rejected(self, tmp_path, text):
        path = tmp_path / "bad.json"
        path.write_text(text)
        with pytest.raises(fileio.ParseError):
            fileio.load_state(path)


class TestAngleFiles:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "angles.json"
        ang = qp.AngleSet(0.3, 1.1, -2.0, 2.2, 3.0, 0.5)
        fileio.save_angles(path, ang)
        assert fileio.load_angles(path) == ang

    def test_null_gamma_roundtrip(self, tmp_path):
        path = tmp_path / "angles.json"
        ang = qp.AngleSet(0.0, 1.0, 0.0, 2.0, 0.0, None)
        fileio.save_angles(path, ang)
        assert fileio.load_angles(path) == ang

    def test_out_of_range_rejected(self, tmp_path):
        path = tmp_path / "angles.json"
        path.write_text('{"chi": 3.0, "theta1": 0, "phi1": 0, "theta2": 0, '
                        '"phi2": 0, "gamma": 0}')
        with pytest.raises(fileio.ParseError):
            fileio.load_angles(path)

    def test_missing_field_rejected(self, tmp_path):
        path = tmp_path / "angles.json"
        path.write_text('{"chi": 0.3}')
        with pytest.raises(fileio.ParseError):
            fileio.load_angles(path)


class TestDecompositionFiles:
    def test_roundtrip_bitexact(self, tmp_path):
        path = tmp_path / "spinors.json"
        for psi in qp.sample_haar(20, 5):
            d = qp.decompose(psi)
            fileio.save_decomposition(path, d)
            loaded = fileio.load_decomposition(path)
            assert loaded.chi == d.chi
            assert np.array_equal(loaded.spinor1, d.spinor1)
            assert np.array_equal(loaded.spinor2, d.spinor2)

    def test_unnormalized_spinor_rejected(self, tmp_path):
        path = tmp_path / "spinors.json"
        path.write_text('{"chi": 0.4, "spinor1": [[1, 0], [1, 0]], '
                        '"spinor2": [[1, 0], [0, 0]]}')
        with pytest.raises(fileio.ParseError):
            fileio.load_decomposition(path)


class TestScheduleFiles:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "sched.json"
        schedule = [(qp.LocalHamiltonian(0.3, [1.0, -0.5, 0.25]), 0.5),
                    (qp.LocalHamiltonian(0.0, [0.0, 0.0, 2.0]), 0.125)]
        fileio.save_schedule(path, 1, schedule)
        qubit, loaded = fileio.load_schedule(path)
        assert qubit == 1
        for (h, dt), (h2, dt2) in zip(schedule, loaded):
            assert h2.h_i == h.h_i and dt2 == dt
            assert np.array_equal(h2.v, h.v)

    @pytest.mark.parametrize("text", [
        "[]",
        '[{"qubit": 3, "h_i": 0, "v": [0, 0, 0], "duration": 1}]',
        '[{"qubit": 1, "h_i": 0, "v": [0, 0], "duration": 1}]',
        '[{"qubit": 1, "h_i": 0, "v": [0, 0, 0], "duration": 0}]',
        '[{"qubit": 1, "h_i": 0, "v": [0, 0, 0], "duration": 1},'
        ' {"qubit": 2, "h_i": 0, "v": [0, 0, 0], "duration": 1}]',
    ])
    def test_invalid_schedules_rejected(self, tmp_path, text):
        path = tmp_path / "sched.json"
        path.write_text(text)
        with pytest.raises(fileio.ParseError):
            fileio.load_schedule(path)


GOOD_ENTRY = '{"qubit": 1, "h_i": 0.5, "v": [0.1, -0.2, 0.3], "duration": 0.25}'


class TestScheduleLoader:
    @pytest.mark.parametrize("bad, message", [
        ('"step"', "expected an object"),
        ('{"qubit": 3, "h_i": 0, "v": [0, 0, 1], "duration": 1}', "qubit must be 1 or 2"),
        ('{"qubit": 2, "h_i": 0, "v": [0, 0, 1], "duration": 1}', "mixed qubit tags"),
        ('{"qubit": 1, "h_i": true, "v": [0, 0, 1], "duration": 1}',
         "h_i: expected a finite real number, got True"),
        ('{"qubit": 1, "h_i": 0, "v": [0, "1", 1], "duration": 1}',
         "v: expected a finite real number, got '1'"),
        ('{"qubit": 1, "h_i": 0, "v": [0, 0, 1], "duration": Infinity}',
         "duration: expected a finite real number, got inf"),
        ('{"qubit": 1, "h_i": NaN, "v": [0, 0, 1], "duration": 1}',
         "h_i: expected a finite real number, got nan"),
        ('{"qubit": 1, "h_i": 0, "v": [0, 0, 1' + "0" * 400 + '], "duration": 1}',
         "v: expected a finite real number, got 1" + "0" * 400),
        ('{"qubit": 1, "h_i": 0, "v": [0, 0, 1]}',
         "duration: expected a finite real number, got None"),
        ('{"qubit": 1, "h_i": 0, "v": [0, 0, 1], "duration": 0}',
         "duration must be positive, got 0.0"),
        ('{"qubit": 1, "h_i": 0, "v": [0, 0], "duration": 1}', "v must be a real 3-vector"),
        ('{"qubit": 1, "h_i": 0, "v": {"x": 1, "y": 0, "z": 0}, "duration": 1}',
         "v must be a real 3-vector"),
    ])
    def test_rejection_names_the_entry(self, tmp_path, bad, message):
        path = tmp_path / "sched.json"
        path.write_text(f"[{GOOD_ENTRY}, {GOOD_ENTRY}, {bad}, {GOOD_ENTRY}]")
        with pytest.raises(fileio.ParseError, match=re.escape(f"{path}: entry 2: {message}")):
            fileio.load_schedule(path)

    def test_bad_first_entry_is_named(self, tmp_path):
        path = tmp_path / "sched.json"
        path.write_text(f'[{{"qubit": "1", "v": [0, 0, 1], "duration": 1}}, {GOOD_ENTRY}]')
        with pytest.raises(fileio.ParseError, match="entry 0: qubit must be 1 or 2"):
            fileio.load_schedule(path)

    def test_overflowing_span_names_the_entry(self, tmp_path):
        # each entry adds 1e308 to the running |h_i| dt + |v| dt: entry 2 overflows it
        big = '{"qubit": 1, "h_i": 0, "v": [1e300, 0, 0], "duration": 1e8}'
        path = tmp_path / "sched.json"
        path.write_text(f"[{GOOD_ENTRY}, {big}, {big}, {GOOD_ENTRY}]")
        with pytest.raises(fileio.ParseError, match="entry 2: the schedule's phases and rotation"):
            fileio.load_schedule(path)

    def test_first_offending_entry_wins(self, tmp_path):
        # a non-finite value in entry 1 is reported before a type error in entry 2
        path = tmp_path / "sched.json"
        path.write_text(f'[{GOOD_ENTRY}, {GOOD_ENTRY.replace("0.5", "-Infinity")}, '
                        f'{GOOD_ENTRY.replace("0.5", "false")}]')
        with pytest.raises(fileio.ParseError, match="entry 1: h_i: expected a finite real number"):
            fileio.load_schedule(path)

    def test_schedule_reloads_bit_exact(self, tmp_path):
        rng = np.random.default_rng(12)
        scale = 10.0 ** rng.integers(-300, 290, size=(200, 3))
        schedule = qp.Schedule(rng.normal(size=200), rng.normal(size=(200, 3)) * scale,
                               rng.uniform(1e-3, 1.0, size=200))
        path = tmp_path / "sched.json"
        fileio.save_schedule(path, 2, schedule)
        qubit, loaded = fileio.load_schedule(path)
        assert qubit == 2 and isinstance(loaded, qp.Schedule) and len(loaded) == 200
        assert np.array_equal(loaded.h, schedule.h)
        assert np.array_equal(loaded.v, schedule.v)
        assert np.array_equal(loaded.dt, schedule.dt)

    def test_integer_values_load_as_floats(self, tmp_path):
        path = tmp_path / "sched.json"
        path.write_text('[{"qubit": 1, "v": [0, 3, 9007199254740993], "duration": 2}]')
        _, loaded = fileio.load_schedule(path)
        assert loaded.h.tolist() == [0.0] and loaded.dt.tolist() == [2.0]
        assert loaded.v.tolist() == [[0.0, 3.0, float(9007199254740993)]]
