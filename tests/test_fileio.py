import dataclasses
import json
import math
import re
import sys
import textwrap
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qubitpair as qp
from qubitpair import fileio
from oracles import steps

SQ2 = 1.0 / np.sqrt(2.0)
SINGLET = np.array([0.0, SQ2, -SQ2, 0.0], dtype=complex)


def read_refusal(path, obj, load):
    """The words load refuses obj in, written as the file at path, or None where it loads (at
    any tier); the file is removed either way."""
    fileio.write_json(path, obj)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            load(path)
        return None
    except fileio.ParseError as exc:
        return str(exc)
    finally:
        path.unlink()


def written(path, write):
    """(text, None) for the file write(path) leaves, which is then removed, or (None, words) for
    its refusal, which leaves no file; a warning fails the write."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            write(path)
        except fileio.ParseError as exc:
            assert not path.exists()
            return None, str(exc)
    text = path.read_text()
    path.unlink()
    return text, None


def expected_write(text, refusal):
    """written's result for a value whose file holds text and the reader refuses in refusal."""
    return (None, refusal) if refusal else (text, None)


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
        signed_zeros = np.array([-0.0, complex(-0.0, SQ2), complex(-SQ2, 0.0), complex(0.0, -0.0)])
        for psi in [*qp.sample_haar(50, 3), signed_zeros]:
            fileio.save_state(path, psi)
            assert np.array_equal(fileio.load_state(path), psi)
            # saving the loaded state reproduces the file byte for byte
            text = path.read_text()
            fileio.save_state(path, fileio.load_state(path))
            assert path.read_text() == text

    @pytest.mark.parametrize("size", [4, 2])
    def test_as_is_band_is_the_unit_rule(self, tmp_path, size):
        # vectors scaled to the edge of the as-is band, where np.linalg.norm and the package's
        # sum of squares disagree on about 3%: a vector loads as-is exactly when as_state (or
        # as_spinor) accepts it, and whatever loads passes that rule
        rng = np.random.default_rng(83)
        path = tmp_path / "file.json"
        check = qp.as_state if size == 4 else qp.as_spinor
        as_is = 0
        for _ in range(400):
            z = rng.normal(size=2 * size)
            v = (z[0::2] + 1j * z[1::2]) / np.linalg.norm(z) * math.sqrt(1 + 1e-12)
            if size == 4:
                fileio.save_state(path, v)
                loaded = fileio.load_state(path)
            else:
                fileio.save_decomposition(path, qp.SpinorDecomposition(0.3, v, v))
                loaded = fileio.load_decomposition(path).spinor1
            try:
                check(v)
                accepted = True
            except ValueError:
                accepted = False
            assert np.array_equal(loaded, v) == accepted
            check(loaded)
            as_is += accepted
        assert 0 < as_is < 400

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
        fileio.write_json(path, {"amplitudes": fileio.pairs(SINGLET * 1.01)})
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

    @pytest.mark.parametrize("text, message", [
        ('{"something": 1}', "expected an object with an 'amplitudes' field"),
        ("[1]", "expected an object with an 'amplitudes' field"),
        ('{"amplitudes": [[1, 0], [0, 0], [0, 0]]}', "amplitudes must list 4 [re, im] pairs"),
        ('{"amplitudes": {"a": [1, 0]}}', "amplitudes must list 4 [re, im] pairs"),
        ('{"amplitudes": [[1, 0], [0, 0], [0, 0], [0]]}',
         "amplitudes[3]: expected an [re, im] pair, got [0]"),
        ('{"amplitudes": [[1, 0], [0, 0], [0, 0], [0, "x"]]}',
         "amplitudes[3]: expected a finite real number, got 'x'"),
        ('{"amplitudes": [[1, 0], [NaN, 0], [0, 0], [0, 0]]}',
         "amplitudes[1]: expected a finite real number, got nan"),
        ('{"amplitudes": [[2, 0], [0, 0], [0, 0], [0, 0]]}',
         "amplitudes: not normalized (|v| = 2.0)"),
    ])
    def test_messages(self, tmp_path, text, message):
        path = tmp_path / "bad.json"
        path.write_text(text)
        with pytest.raises(fileio.ParseError) as caught:
            fileio.load_state(path)
        assert str(caught.value) == f"{path}: {message}"

    @pytest.mark.parametrize("psi", [
        [math.nan, 0, 0, 0], [0, 0, complex(0, -math.inf), 0], [1, 1, 0, 0],
        SINGLET * (1 + 1.1e-6), SINGLET * (1 - 1.1e-6), SINGLET, SINGLET * (1 + 6e-13),
        SINGLET * (1 - 9e-10), SINGLET * (1 + 9e-7)],
        ids=["nan", "-inf", "norm sqrt(2)", "refused +", "refused -", "as-is", "silent +",
             "silent -", "warned"])
    def test_writer_refuses_what_the_reader_refuses(self, tmp_path, psi):
        # the writer holds the amplitudes to load_state's rule first: a refusal in the reader's
        # words and no file, or, at every tier the reader accepts, its file and no warning
        path = tmp_path / "state.json"
        obj = {"amplitudes": fileio.pairs(np.asarray(psi, dtype=complex))}
        assert written(path, lambda p: fileio.save_state(p, psi)) == expected_write(
            fileio.dumps(obj) + "\n", read_refusal(path, obj, fileio.load_state))

    def test_warning_names_the_field_and_the_caller(self, tmp_path):
        path = tmp_path / "state.json"
        fileio.save_state(path, SINGLET * (1 + 5e-8))
        with pytest.warns(RuntimeWarning) as record:
            fileio.load_state(path)
        assert str(record[0].message).startswith(f"{path}: amplitudes: norm off by ")
        assert record[0].filename == __file__


def per_element_pairs(z):
    """The reference form of fileio.pairs: two numpy scalar calls per element."""
    return [[float(np.real(v)), float(np.imag(v))] for v in np.asarray(z)]


class TestStateListFiles:
    def test_written_text_is_the_per_element_form(self, tmp_path):
        # a unit state of signed zeros and subnormals is written; the float range's far edge,
        # which no state holds, goes through pairs alone
        edge = np.array([[-0.0, complex(5e-324, -0.0), complex(-0.0, 1.0),
                          complex(-5e-324, -0.0)]])
        far = np.array([-0.0, complex(5e-324, -0.0), complex(1e308, -1e308),
                        complex(-5e-324, 1e308)])
        states = np.concatenate([qp.sample_haar(200, 31), edge])
        path = tmp_path / "corpus.json"
        fileio.save_state_list(path, states)
        reference = [{"amplitudes": per_element_pairs(s)} for s in states]
        assert path.read_text() == json.dumps(reference) + "\n"
        for psi in [*states[-3:], far]:
            assert json.dumps(fileio.pairs(psi)) == json.dumps(per_element_pairs(psi))

    def test_writer_refuses_what_the_reader_refuses(self, tmp_path, capsys):
        # the writer holds every state to load_state's rule, the whole array at once, before it
        # opens the file: state by state it refuses what the reader refuses, in the reader's
        # words naming the state, and writes nothing; the states sit a few ulps either side of
        # |psi| - 1 = +-1e-6, and some are not finite or overflow
        rng = np.random.default_rng(38)
        offsets = np.where(np.arange(300) % 2, 1e-6, -1e-6) + rng.integers(-40, 41, 300) * 2e-16
        states = [*(qp.sample_haar(300, 38) * (1 + offsets)[:, None]), [math.nan, 0, 0, 0],
                  [0, complex(0, math.inf), 0, 0], [1, 1, 0, 0],
                  [-0.0, complex(5e-324, -0.0), complex(1e308, -1e308), complex(-5e-324, 1e308)]]
        path = tmp_path / "corpus.json"
        refused = 0
        for psi in states:
            refusal = read_refusal(path, {"amplitudes": fileio.pairs(psi)}, fileio.load_state)
            rows = [SINGLET, np.asarray(psi, dtype=complex)]
            assert written(path, lambda p: fileio.save_state_list(p, rows)) == expected_write(
                fileio.dumps([{"amplitudes": fileio.pairs(s)} for s in rows]) + "\n",
                refusal and refusal.replace(f"{path}: ", f"{path}: state 1: ", 1))
            refused += bool(refusal)
        assert 150 < refused < len(states) - 100, refused
        with pytest.raises(fileio.ParseError) as caught:
            fileio.save_state_list(None, [SINGLET, [math.nan, 0, 0, 0]])
        assert str(caught.value) == ("<stdout>: state 1: amplitudes[0]: "
                                     "expected a finite real number, got nan")
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("count", [0, fileio.STATE_LIST_CHUNK - 1, fileio.STATE_LIST_CHUNK,
                                       fileio.STATE_LIST_CHUNK + 1])
    def test_chunks_write_one_dumps_of_the_whole_list(self, tmp_path, capsys, count):
        states = qp.sample_haar(count + 1, 35)[:count]
        expected = json.dumps([{"amplitudes": fileio.pairs(s)} for s in states]) + "\n"
        path = tmp_path / "corpus.json"
        fileio.save_state_list(path, states)
        assert path.read_text() == expected
        capsys.readouterr()
        fileio.save_state_list(None, states)
        assert capsys.readouterr().out == expected

    def test_writer_holds_one_chunk_at_a_time(self, tmp_path):
        # the writer's peak is one chunk's lists and text, not the whole list's
        peaks = []
        for count in (4000, 40000):
            states = qp.sample_haar(count, 36)
            tracemalloc.start()
            try:
                fileio.save_state_list(tmp_path / "corpus.json", states)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.5 * peaks[0], peaks


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

    @pytest.mark.parametrize("gamma", [None, 0.5, -3.0])
    def test_saved_text_is_the_six_fields(self, tmp_path, gamma):
        path = tmp_path / "angles.json"
        ang = qp.AngleSet(0.3, 1.1, -2.0, 2.2, 3.0, gamma)
        fileio.save_angles(path, ang)
        expected = {"chi": ang.chi, "theta1": ang.theta1, "phi1": ang.phi1,
                    "theta2": ang.theta2, "phi2": ang.phi2, "gamma": ang.gamma}
        assert path.read_text() == json.dumps(expected) + "\n"

    @pytest.mark.parametrize("fields", [
        (3.0, 0.5, 0.1, 0.5, 0.2, 0.3), (math.nan, 0.5, 0.1, 0.5, 0.2, 0.3),
        (True, 0.5, 0.1, 0.5, 0.2, 0.3), (np.float32(0.3), 0.5, 0.1, 0.5, 0.2, 0.3),
        (0.3, 0.5, 0.1, 3.5, 0.2, 0.3), (0.0, 1.0, 0.0, 2.0, 0.0, None),
    ], ids=["chi-3", "chi-nan", "chi-true", "chi-float32", "theta2-3.5", "null-gamma"])
    def test_writer_refuses_what_the_reader_refuses(self, tmp_path, fields):
        # the writer holds the six fields to load_angles' rules first: a refusal in the reader's
        # words and no file, or the file the reader accepts; a numpy float32, which no JSON file
        # holds, is refused in the words the reader gives any value that is not a JSON real
        angles = qp.AngleSet(*fields)
        obj = dataclasses.asdict(angles)
        path = tmp_path / "angles.json"
        if isinstance(angles.chi, np.float32):
            expected = None, f"{path}: chi: expected a finite real number, got {angles.chi!r}"
        else:
            expected = expected_write(fileio.dumps(obj) + "\n",
                                      read_refusal(path, obj, fileio.load_angles))
        assert written(path, lambda p: fileio.save_angles(p, angles)) == expected

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

    def test_non_object_rejected(self, tmp_path):
        path = tmp_path / "angles.json"
        path.write_text("[1, 2]")
        with pytest.raises(fileio.ParseError) as caught:
            fileio.load_angles(path)
        assert str(caught.value) == f"{path}: expected an object of angles"


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

    @pytest.mark.parametrize("fields, message", [
        ('"chi": 0.4, "spinor1": [[1, 0], [0, 0]]', "expected fields chi, spinor1, spinor2"),
        ('"chi": "x", "spinor1": [[1, 0], [0, 0]], "spinor2": [[1, 0], [0, 0]]',
         "chi: expected a finite real number, got 'x'"),
        ('"chi": 3.0, "spinor1": [[1, 0], [0, 0]], "spinor2": [[1, 0], [0, 0]]',
         "chi out of [0, pi/2]: 3.0"),
        ('"chi": 0.4, "spinor1": [[1, 0]], "spinor2": [[1, 0], [0, 0]]',
         "spinor1 must list 2 [re, im] pairs"),
        ('"chi": 0.4, "spinor1": [[1, 0], [0, 0]], "spinor2": [[1, 0], 5]',
         "spinor2[1]: expected an [re, im] pair, got 5"),
        ('"chi": 0.4, "spinor1": [[1, 0], [0, 0]], "spinor2": [[true, 0], [0, 0]]',
         "spinor2[0]: expected a finite real number, got True"),
        ('"chi": 0.4, "spinor1": [[2, 0], [0, 0]], "spinor2": [[2, 0], [0, 0]]',
         "spinor1: not normalized (|v| = 2.0)"),
        ('"chi": 0.4, "spinor1": [[1, 0], [0, 0]], "spinor2": [[0, 0], [0, -2]]',
         "spinor2: not normalized (|v| = 2.0)"),
    ])
    def test_messages(self, tmp_path, fields, message):
        path = tmp_path / "spinors.json"
        path.write_text("{%s}" % fields)
        with pytest.raises(fileio.ParseError) as caught:
            fileio.load_decomposition(path)
        assert str(caught.value) == f"{path}: {message}"

    @pytest.mark.parametrize("chi, f1, f2", [
        (3.0, 1, 1), (-0.1, 1, 1), (math.nan, 1, 1), (0.4, math.nan, 1), (0.4, 1, math.inf),
        (0.4, 1, 1.01), (0.4, 1 + 1.1e-6, 1), (0.0, 1, 1), (qp.states.HALF_PI, 1, 1),
        (0.4, 1 + 9e-7, 1 - 6e-13), (0.4, 1 - 9e-10, 1 + 9e-7)])
    def test_writer_refuses_what_the_reader_refuses(self, tmp_path, chi, f1, f2):
        # the writer holds chi and both spinors to load_decomposition's rules first: a refusal in
        # the reader's words and no file, or, at every tier the reader accepts, its file and no
        # warning
        d = qp.decompose(qp.sample_haar(1, 5)[0])
        d = qp.SpinorDecomposition(chi, d.spinor1 * f1, d.spinor2 * f2)
        path = tmp_path / "spinors.json"
        obj = {"chi": chi, "spinor1": fileio.pairs(d.spinor1), "spinor2": fileio.pairs(d.spinor2)}
        assert written(path, lambda p: fileio.save_decomposition(p, d)) == expected_write(
            fileio.dumps(obj) + "\n", read_refusal(path, obj, fileio.load_decomposition))

    @pytest.mark.parametrize("name", ["spinor1", "spinor2"])
    def test_warning_names_the_spinor_and_the_caller(self, tmp_path, name):
        path = tmp_path / "spinors.json"
        d = qp.decompose(qp.sample_haar(1, 5)[0])
        fileio.save_decomposition(path, dataclasses.replace(
            d, **{name: getattr(d, name) * (1 + 5e-8)}))
        with pytest.warns(RuntimeWarning) as record:
            fileio.load_decomposition(path)
        assert len(record) == 1
        assert str(record[0].message).startswith(f"{path}: {name}: norm off by ")
        assert record[0].filename == __file__


class TestScheduleFiles:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "sched.json"
        schedule = [(qp.LocalHamiltonian(0.3, [1.0, -0.5, 0.25]), 0.5),
                    (qp.LocalHamiltonian(0.0, [0.0, 0.0, 2.0]), 0.125)]
        fileio.save_schedule(path, 1, schedule)
        qubit, loaded = fileio.load_schedule(path)
        assert qubit == 1
        for (h, dt), (h2, dt2) in zip(schedule, steps(loaded), strict=True):
            assert h2.h_i == h.h_i and dt2 == dt
            assert np.array_equal(h2.v, h.v)

    def test_saved_text_is_the_column_object(self, tmp_path):
        steps = [(qp.LocalHamiltonian(0.3, [1.0, -0.5, 0.25]), 0.5),
                 (qp.LocalHamiltonian(-2.0, [0.0, 0.0, 2.0]), 1)]
        expected = fileio.dumps({"qubit": 2, "h_i": [0.3, -2.0],
                                 "v": [1.0, -0.5, 0.25, 0.0, 0.0, 2.0],
                                 "duration": [0.5, 1.0]}) + "\n"
        path = tmp_path / "sched.json"
        for schedule in (steps, qp.as_schedule(steps)):
            fileio.save_schedule(path, 2, schedule)
            assert path.read_text() == expected

    @pytest.mark.parametrize("qubit, schedule, message", [
        (3, [(qp.ZERO_HAMILTONIAN, 0.5)], "qubit must be 1 or 2, got 3"),
        (True, [(qp.ZERO_HAMILTONIAN, 0.5)], "qubit must be 1 or 2, got True"),
        (1, [], "h_i, v and duration must list S >= 1, 3S and S values, got lengths [0, 0, 0]"),
        (1, [(qp.ZERO_HAMILTONIAN, 0.5), (qp.ZERO_HAMILTONIAN, 0.0)],
         "entry 1: duration must be positive, got 0.0"),
        (2, [(qp.ZERO_HAMILTONIAN, -0.5), (qp.ZERO_HAMILTONIAN, 0.5)],
         "entry 0: duration must be positive, got -0.5"),
    ], ids=["tag 3", "tag True", "empty", "zero duration", "negative duration"])
    def test_writer_refuses_what_the_reader_refuses(self, tmp_path, qubit, schedule, message):
        # the writer runs the reader's rules on its column object first, in the reader's words
        path = tmp_path / "sched.json"
        with pytest.raises(fileio.ParseError) as caught:
            fileio.save_schedule(path, qubit, schedule)
        assert str(caught.value) == f"{path}: {message}"
        assert not path.exists()

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.lists(st.tuples(st.floats(-1e308, 1e308),
                              st.tuples(*[st.floats(-1e308, 1e308)] * 3),
                              st.floats(5e-324, 1e308)), min_size=1, max_size=50))
    @example([(1e308, (0.0, 0.0, 0.0), 1.0)] * 2)  # each phase finite, their span not
    @example([(0.0, (1e300, 0.0, 0.0), 1e8)] * 3)
    def test_every_schedule_with_positive_durations_reloads_bit_for_bit(self, tmp_path_factory,
                                                                         rows):
        # files and the library share Schedule's one magnitude rule: what constructs also saves
        # and reloads, bit for bit
        try:
            schedule = qp.Schedule(*zip(*rows))
        except qp.StepOverflow:
            return
        path = tmp_path_factory.getbasetemp() / "reloaded.json"  # rewritten by every example
        fileio.save_schedule(path, 1, schedule)
        qubit, loaded = fileio.load_schedule(path)
        assert qubit == 1
        for name in ("h", "v", "dt"):
            assert getattr(loaded, name).tobytes() == getattr(schedule, name).tobytes()

    @pytest.mark.parametrize("text, message", [
        ('{"qubit": 1, "h_i": [], "v": [], "duration": []}',
         "h_i, v and duration must list S >= 1, 3S and S values, got lengths [0, 0, 0]"),
        ('{"qubit": 3, "h_i": [0], "v": [0, 0, 0], "duration": [1]}',
         "qubit must be 1 or 2, got 3"),
        ('{"qubit": 1, "h_i": [0], "v": [0, 0], "duration": [1]}',
         "h_i, v and duration must list S >= 1, 3S and S values, got lengths [1, 2, 1]"),
        ('{"qubit": 1, "h_i": [0], "v": [0, 0, 0], "duration": [0]}',
         "entry 0: duration must be positive, got 0.0"),
        ('{"qubit": [1, 2], "h_i": [0, 0], "v": [0, 0, 0, 0, 0, 0], "duration": [1, 1]}',
         "qubit must be 1 or 2, got [1, 2]"),
    ])
    def test_invalid_schedules_rejected(self, tmp_path, text, message):
        path = tmp_path / "sched.json"
        path.write_text(text)
        with pytest.raises(fileio.ParseError) as caught:
            fileio.load_schedule(path)
        assert str(caught.value) == f"{path}: {message}"


GOOD_ENTRY = '{"qubit": 1, "h_i": 0.5, "v": [0.1, -0.2, 0.3], "duration": 0.25}'


def entry_list(qubit, schedule):
    """A Schedule as the entry layout, one object per step."""
    return [{"qubit": qubit, "h_i": h_i, "v": v, "duration": dt}
            for h_i, v, dt in zip(schedule.h.tolist(), schedule.v.tolist(), schedule.dt.tolist())]


def as_columns(entries):
    """An entry list's steps written as the column layout, value for value (a missing h_i as
    reference_load_schedule's 0.0, a missing duration as null), or None where columns cannot
    hold them: an entry that is not an object, a tag that is not one integer 1 or 2, a v not a
    list of 3."""
    if not all(isinstance(e, dict) for e in entries):
        return None
    tags = [e.get("qubit") for e in entries]
    if not (all(type(q) is int and q in (1, 2) for q in tags) and len(set(tags)) == 1):
        return None
    if not all(isinstance(e.get("v"), list) and len(e["v"]) == 3 for e in entries):
        return None
    return {"qubit": entries[0]["qubit"], "h_i": [e.get("h_i", 0.0) for e in entries],
            "v": [x for e in entries for x in e["v"]],
            "duration": [e.get("duration") for e in entries]}


def write_columns(path, entries):
    path.write_text(json.dumps(as_columns(entries)))


VALUE_FAULTS = [  # rules on one step's values: a column file can break each at any step
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
    ('{"qubit": 1, "h_i": 0, "v": [0, 0, 1], "duration": -0.25}',
     "duration must be positive, got -0.25"),
    ('{"qubit": 1, "h_i": null, "v": [0, 0, 1], "duration": 1}',
     "h_i: expected a finite real number, got None"),
]


class TestScheduleLoader:
    @pytest.mark.parametrize("entries", [1, 3])
    def test_entry_list_is_refused(self, tmp_path, entries):
        # the one layout is the column object save_schedule writes; a list of step objects is
        # refused as a whole, whatever its entries hold
        path = tmp_path / "sched.json"
        path.write_text("[" + ", ".join([GOOD_ENTRY] * entries) + "]")
        with pytest.raises(fileio.ParseError) as caught:
            fileio.load_schedule(path)
        assert str(caught.value) == f"{path}: expected an object of schedule columns"

    @pytest.mark.parametrize("bad, message", VALUE_FAULTS)
    @pytest.mark.parametrize("index", [0, 2, 3])
    def test_column_rejection_names_the_entry(self, tmp_path, bad, message, index):
        # one bad step among four good ones, at the first, a middle and the last step: the one
        # pass over the columns names that step at either end of the file
        entries = [json.loads(GOOD_ENTRY)] * 4
        entries[index] = json.loads(bad)
        path = tmp_path / "sched.json"
        write_columns(path, entries)
        with pytest.raises(fileio.ParseError) as caught:
            fileio.load_schedule(path)
        assert str(caught.value) == f"{path}: entry {index}: {message}"

    @pytest.mark.parametrize("columns, message", [
        ({"h_i": [0.5], "v": [0, 0, 1], "duration": [1]}, "missing column 'qubit'"),
        ({"qubit": 1, "v": [0, 0, 1], "duration": [1]}, "missing column 'h_i'"),
        ({"qubit": 1, "h_i": [0.5], "duration": [1]}, "missing column 'v'"),
        ({"qubit": 1, "h_i": [0.5], "v": [0, 0, 1]}, "missing column 'duration'"),
        ({"qubit": 1, "h_i": [0.5, 0.5], "v": [0, 0, 1, 0, 0, 1], "duration": [1]},
         "h_i, v and duration must list S >= 1, 3S and S values, got lengths [2, 6, 1]"),
        ({"qubit": 1, "h_i": [0.5, 0.5], "v": [0, 0, 1, 0, 0], "duration": [1, 1]},
         "h_i, v and duration must list S >= 1, 3S and S values, got lengths [2, 5, 2]"),
        ({"qubit": 1, "h_i": [0.5], "v": [[0, 0, 1]], "duration": [1]},
         "h_i, v and duration must list S >= 1, 3S and S values, got lengths [1, 1, 1]"),
        ({"qubit": 1, "h_i": 0.5, "v": [0, 0, 1], "duration": [1]},
         "h_i, v and duration must list S >= 1, 3S and S values, got lengths [None, 3, 1]"),
        ({"qubit": 1, "h_i": [], "v": [], "duration": []},
         "h_i, v and duration must list S >= 1, 3S and S values, got lengths [0, 0, 0]"),
        ({"qubit": 3, "h_i": [0.5], "v": [0, 0, 1], "duration": [1]},
         "qubit must be 1 or 2, got 3"),
        ({"qubit": True, "h_i": [0.5], "v": [0, 0, 1], "duration": [1]},
         "qubit must be 1 or 2, got True"),
        ({"qubit": [1], "h_i": [0.5], "v": [0, 0, 1], "duration": [1]},
         "qubit must be 1 or 2, got [1]"),
        ({"qubit": 1.0, "h_i": [0.5], "v": [0, 0, 1], "duration": [1]},
         "qubit must be 1 or 2, got 1.0"),
        ({"qubit": 2.0, "h_i": [0.5], "v": [0, 0, 1], "duration": [1]},
         "qubit must be 1 or 2, got 2.0"),
        ({"qubit": "1", "h_i": [0.5], "v": [0, 0, 1], "duration": [1]},
         "qubit must be 1 or 2, got '1'"),
    ])
    def test_column_layout_faults_name_the_file(self, tmp_path, columns, message):
        # a column file's own rules are about the whole file, so no entry is named
        path = tmp_path / "sched.json"
        path.write_text(json.dumps(columns))
        with pytest.raises(fileio.ParseError) as caught:
            fileio.load_schedule(path)
        assert str(caught.value) == f"{path}: {message}"

    def test_overflowing_span_names_the_entry(self, tmp_path):
        # each entry adds 1e308 to the running |h_i| dt + |v| dt: entry 2 overflows it
        big = '{"qubit": 1, "h_i": 0, "v": [1e300, 0, 0], "duration": 1e8}'
        path = tmp_path / "sched.json"
        write_columns(path, json.loads(f"[{GOOD_ENTRY}, {big}, {big}, {GOOD_ENTRY}]"))
        with pytest.raises(fileio.ParseError, match="entry 2: the schedule's phases and rotation"):
            fileio.load_schedule(path)

    def test_first_offending_entry_wins(self, tmp_path):
        # a non-finite value in entry 1 is reported before a type error in entry 2
        path = tmp_path / "sched.json"
        write_columns(path, json.loads(f'[{GOOD_ENTRY}, {GOOD_ENTRY.replace("0.5", "-Infinity")}, '
                                       f'{GOOD_ENTRY.replace("0.5", "false")}]'))
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

    def test_readme_recipe_converts_an_entry_list(self, tmp_path, monkeypatch):
        # README's conversion of the refused one-object-per-step layout, run as printed there,
        # writes the same steps as a column file, bit for bit
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        recipe, = [textwrap.dedent(block) for block in re.findall(r"```python\n(.*?)```",
                                                                  readme, re.S)
                   if "old.json" in block]
        rng = np.random.default_rng(12)
        scale = 10.0 ** rng.integers(-300, 290, size=(200, 3))
        schedule = qp.Schedule(rng.normal(size=200), rng.normal(size=(200, 3)) * scale,
                               rng.uniform(1e-3, 1.0, size=200))
        (tmp_path / "old.json").write_text(json.dumps(entry_list(1, schedule)))
        monkeypatch.chdir(tmp_path)
        exec(recipe, {})
        qubit, loaded = fileio.load_schedule(tmp_path / "new.json")
        assert qubit == 1
        for name in ("h", "v", "dt"):
            assert getattr(loaded, name).tobytes() == getattr(schedule, name).tobytes()

    def test_long_file_loads_without_a_collection(self, tmp_path, collections_during):
        # a schedule file parses into 3 lists whatever its length, so its load needs no
        # collector pause
        rng = np.random.default_rng(29)
        schedule = qp.Schedule(rng.normal(size=2000), rng.normal(size=(2000, 3)),
                               rng.uniform(0.01, 1.0, 2000))
        path = tmp_path / "sched.json"
        fileio.save_schedule(path, 1, schedule)
        loaded = []
        assert collections_during(lambda: loaded.append(fileio.load_schedule(path))) == []
        assert loaded[0][0] == 1 and np.array_equal(loaded[0][1].v, schedule.v)

    @pytest.mark.parametrize("index", [0, 1000, 1999])
    @pytest.mark.parametrize("bad, message", [(None, None), *VALUE_FAULTS, (
        '{"qubit": 1, "h_i": 1.7e308, "v": [0, 1.7e308, 0], "duration": 1}',
        "the schedule's phases and rotation angles overflow")])
    def test_one_pass_over_the_columns(self, tmp_path, monkeypatch, bad, message, index):
        # each column is read once and one Schedule is built, whichever entry breaks a rule
        # first, so a rejected file costs about one load
        counts = {"_reals": 0, "Schedule": 0}

        def counted(name, function):
            def call(*args):
                counts[name] += 1
                return function(*args)
            return call

        for name in counts:
            monkeypatch.setattr(fileio, name, counted(name, getattr(fileio, name)))
        entries = [json.loads(GOOD_ENTRY)] * 2000
        if bad is not None:
            entries[index] = json.loads(bad)
        path = tmp_path / "sched.json"
        write_columns(path, entries)
        if bad is None:
            assert len(fileio.load_schedule(path)[1]) == 2000
            assert counts == {"_reals": 3, "Schedule": 1}
            return
        with pytest.raises(fileio.ParseError) as caught:
            fileio.load_schedule(path)
        assert str(caught.value) == f"{path}: entry {index}: {message}"
        assert counts["_reals"] == 3 and counts["Schedule"] <= 1

    def test_integer_values_load_as_floats(self, tmp_path):
        path = tmp_path / "sched.json"
        path.write_text('{"qubit": 1, "h_i": [0], "v": [0, 3, 9007199254740993], "duration": [2]}')
        _, loaded = fileio.load_schedule(path)
        assert loaded.h.tolist() == [0.0] and loaded.dt.tolist() == [2.0]
        assert loaded.v.tolist() == [[0.0, 3.0, float(9007199254740993)]]


def reference_load_schedule(path):
    """The loader's former per-entry loop: every rule checked entry by entry, in order."""
    obj = fileio.read_json(path)
    if not isinstance(obj, list) or not obj:
        raise fileio.ParseError(f"{path}: expected a non-empty list of schedule entries")
    qubit = None
    rows = []
    span = 0.0  # running sum of |h_i| * duration + |v| * duration
    for i, entry in enumerate(obj):
        try:  # the messages below name the field; the entry is named once, on failure
            if not isinstance(entry, dict):
                raise fileio.ParseError("expected an object")
            q = entry.get("qubit")
            if type(q) is not int or q not in (1, 2):
                raise fileio.ParseError(f"qubit must be 1 or 2, got {q!r}")
            if qubit is None:
                qubit = q
            elif q != qubit:
                raise fileio.ParseError("mixed qubit tags in one schedule file")
            h_i = fileio._real(entry.get("h_i", 0.0), "h_i")
            v = entry.get("v")
            if not isinstance(v, list) or len(v) != 3:
                raise fileio.ParseError("v must be a real 3-vector")
            v = [fileio._real(x, "v") for x in v]
            duration = fileio._real(entry.get("duration"), "duration")
            if not duration > 0.0:
                raise fileio.ParseError(f"duration must be positive, got {duration!r}")
            span += (abs(h_i) + math.hypot(*v)) * duration
            if not math.isfinite(span):
                raise fileio.ParseError("the schedule's phases and rotation angles overflow")
        except fileio.ParseError as exc:
            raise fileio.ParseError(f"{path}: entry {i}: {exc}") from None
        rows.append((h_i, *v, duration))
    rows = np.array(rows)
    return qubit, rows[:, 0], rows[:, 1:4], rows[:, 4]


def pick(rng, options):
    return options[rng.integers(len(options))]


def with_bad_component(v, rng):
    if not isinstance(v, list) or not v:
        return v
    v = list(v)
    v[rng.integers(len(v))] = pick(rng, BAD_REALS + [3])
    return v


# int(MAX) + 1 rounds to the finite MAX as a float, but is past the float range as an int
BAD_REALS = [True, False, "0.5", None, math.inf, -math.inf, math.nan, 10 ** 400, -10 ** 400,
             int(sys.float_info.max) + 1, [1.0]]
MUTATIONS = {  # one fault each; several may hit one entry
    "not an object": lambda e, r: pick(r, ["step", 3, [1, 2], None, 1.5]),
    "qubit": lambda e, r: {**e, "qubit": pick(r, [3, 0, "1", True, 1.0, 2.0, None, [1]])},
    "no qubit": lambda e, r: {k: x for k, x in e.items() if k != "qubit"},
    "other tag": lambda e, r: {**e, "qubit": 1 if e.get("qubit") == 2 else 2},
    "h_i": lambda e, r: {**e, "h_i": pick(r, BAD_REALS + [7, 2 ** 60])},
    "no h_i": lambda e, r: {k: x for k, x in e.items() if k != "h_i"},
    "v shape": lambda e, r: {**e, "v": pick(r, [[0.5, 1.0], [0, 0, 0, 1], {"x": 1, "y": 0, "z": 0},
                                                 "v", None, 2.0])},
    "v value": lambda e, r: {**e, "v": with_bad_component(e.get("v"), r)},
    "no v": lambda e, r: {k: x for k, x in e.items() if k != "v"},
    "no duration": lambda e, r: {k: x for k, x in e.items() if k != "duration"},
    "duration": lambda e, r: {**e, "duration": pick(r, BAD_REALS + [0, 0.0, -0.0, -1.5, -3, 2])},
    "overflowing span": lambda e, r: {**e, **pick(r, [
        {"v": [1e300, 0.0, 0.0], "duration": 1e8},         # overflows on the second such entry
        {"h_i": 1.7e308, "v": [0.0, 1.7e308, 0.0]},        # |h_i| + |v| overflows
        {"v": [1e200, -1e200, 1e200], "duration": 1e200},  # (|h_i| + |v|) * dt overflows
        {"v": [1e290, 1e290, 1e290], "duration": 1e-3}])},  # a |v| past sqrt(max), finite
}


def random_schedule_file(rng):
    """1 to 6 entries, each faultless with probability 0.8, else hit by 1 to 3 mutations."""
    qubit = int(rng.integers(1, 3))
    entries = []
    for _ in range(rng.integers(1, 7)):
        entry = {"qubit": qubit, "h_i": float(rng.normal()), "v": rng.normal(size=3).tolist(),
                 "duration": float(rng.uniform(0.01, 1.0))}
        if rng.random() < 0.2:
            for _ in range(rng.integers(1, 4)):
                if isinstance(entry, dict):
                    entry = pick(rng, list(MUTATIONS.values()))(entry, rng)
        entries.append(entry)
    return entries


def outcome(load, path):
    """A loader's result as comparable values: the qubit and the arrays' bytes, or the message."""
    try:
        qubit, *arrays = load(path)
    except fileio.ParseError as exc:
        return "error", str(exc)
    return (type(qubit), qubit), [(a.shape, a.tobytes()) for a in arrays]


def column_load(path):
    qubit, schedule = fileio.load_schedule(path)
    return qubit, schedule.h, schedule.v, schedule.dt


HALF_SPAN = {"v": [1e300, 0.0, 0.0], "duration": 1e8}  # adds 1e308 to the running span


class TestColumnLoaderAgainstEntryLoop:
    def test_seeded_random_files(self, tmp_path):
        rng = np.random.default_rng(2024)
        path = tmp_path / "sched.json"
        kinds = {"valid": 0, "error": 0}
        for _ in range(2500):
            entries = random_schedule_file(rng)
            path.write_text(json.dumps(entries))
            expected = outcome(reference_load_schedule, path)
            # the same steps as columns, where columns can hold them, load or fail the same
            if as_columns(entries) is not None:
                write_columns(path, entries)
                assert outcome(column_load, path) == expected, path.read_text()
                kinds["error" if expected[0] == "error" else "valid"] += 1
        # both outcomes well represented; most faults the generator draws are structural, which
        # columns cannot hold, so fewer failing files have a column form
        assert min(kinds["valid"], kinds["error"]) >= 200, kinds

    @pytest.mark.parametrize("faults, entry", [
        ({1: {"v": [0.0, "1", 1.0]}, 2: {"h_i": math.nan}}, 1),
        ({2: {"v": [0.0, 0.0, math.inf]}, 3: {"h_i": True}}, 2),
        ({1: HALF_SPAN, 2: HALF_SPAN, 3: {"duration": 0}}, 2),
        ({0: {"h_i": 1.7e308, "v": [0.0, 1.7e308, 0.0]}, 1: {"h_i": None}}, 0),
        ({1: HALF_SPAN, 2: {**HALF_SPAN, "h_i": None}}, 2),
        ({1: {"h_i": "0.5", "duration": -1.0}}, 1),
        ({3: {"h_i": math.inf, "v": [0.0, None, 0.0], "duration": 0}}, 3),
    ], ids=["v before h_i", "v before h_i, last component", "span before value",
            "span at the first entry", "value at the span's entry", "h_i before duration",
            "h_i before v before duration"])
    def test_the_first_fault_in_step_order_wins(self, tmp_path, faults, entry):
        # faults in several columns, or several rules at one entry: the entry loop's first
        # failure, found by one pass over the columns; HALF_SPAN twice overflows the span
        entries = [json.loads(GOOD_ENTRY) for _ in range(5)]
        for index, fault in faults.items():
            entries[index].update(fault)
        path = tmp_path / "sched.json"
        path.write_text(json.dumps(entries))
        expected = outcome(reference_load_schedule, path)
        assert expected[0] == "error" and f"entry {entry}: " in expected[1]
        write_columns(path, entries)
        assert outcome(column_load, path) == expected

    @pytest.mark.parametrize("index", [0, 1000, 1999])
    @pytest.mark.parametrize("fault", [{"h_i": math.nan}, {"v": [0.5, 1.0]}, {"duration": 0},
                                       {"h_i": 1.7e308, "v": [0.0, 1.7e308, 0.0]}])
    def test_long_file_names_its_one_bad_entry(self, tmp_path, index, fault):
        rng = np.random.default_rng(index)
        entries = [{"qubit": 1, "h_i": float(h), "v": v.tolist(), "duration": float(dt)}
                   for h, v, dt in zip(rng.normal(size=2000), rng.normal(size=(2000, 3)),
                                       rng.uniform(0.01, 1.0, 2000))]
        entries[index].update(fault)
        path = tmp_path / "sched.json"
        path.write_text(json.dumps(entries))
        expected = outcome(reference_load_schedule, path)
        assert expected[0] == "error" and f"entry {index}: " in expected[1]
        columns = as_columns(entries)
        if columns is None:  # the 2-vector leaves the v column one short: a whole-file fault
            columns = {"qubit": 1, "h_i": [e["h_i"] for e in entries],
                       "v": [x for e in entries for x in e["v"]],
                       "duration": [e["duration"] for e in entries]}
            expected = ("error", f"{path}: h_i, v and duration must list S >= 1, 3S and S "
                                 f"values, got lengths [2000, 5999, 2000]")
        path.write_text(json.dumps(columns))
        assert outcome(column_load, path) == expected
