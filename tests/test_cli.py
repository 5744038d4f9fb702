import dataclasses
import gc
import json
import math
import warnings

import numpy as np
import pytest

import qubitpair as qp
from qubitpair import fileio
from qubitpair.cli import _ERROR_CODES, COUNT_CEILING, FORMATS, main

SQ2 = 1.0 / np.sqrt(2.0)
SINGLET = np.array([0.0, SQ2, -SQ2, 0.0], dtype=complex)


def write_state(path, psi):
    fileio.save_state(path, psi)
    return str(path)


def write_schedule(path, qubit, schedule):
    fileio.save_schedule(path, qubit, schedule)
    return str(path)


def read_json(path):
    return json.loads(path.read_text())


def stdout_json(capsys):
    return json.loads(capsys.readouterr().out)


class TestConvert:
    def test_singlet_to_spinors(self, tmp_path):
        src = write_state(tmp_path / "in.json", SINGLET)
        out = tmp_path / "out.json"
        assert main(["convert", "--in", src, "--from", "amplitudes",
                     "--to", "spinors", "--out", str(out)]) == 0
        obj = read_json(out)
        assert obj["chi"] == pytest.approx(np.pi / 2, abs=1e-12)
        assert obj["spinor1"] == [[1, 0], [0, 0]]
        assert obj["spinor2"] == [[0, 0], [1, 0]]

    def test_zero_state_to_angles_has_null_gamma(self, tmp_path):
        src = write_state(tmp_path / "in.json", [1, 0, 0, 0])
        out = tmp_path / "out.json"
        assert main(["convert", "--in", src, "--from", "amplitudes",
                     "--to", "angles", "--out", str(out)]) == 0
        obj = read_json(out)
        assert obj["gamma"] is None
        assert obj["chi"] == 0

    def test_maximal_to_angles_fails_cleanly(self, tmp_path, capsys):
        src = write_state(tmp_path / "in.json", SINGLET)
        code = main(["convert", "--in", src, "--from", "amplitudes",
                     "--to", "angles", "--out", str(tmp_path / "out.json")])
        assert code == 2
        assert stdout_json(capsys)["error"]["code"] == "MAX_ENTANGLED"

    def test_malformed_input_is_parse_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        code = main(["convert", "--in", str(bad), "--from", "amplitudes",
                     "--to", "angles", "--out", str(tmp_path / "out.json")])
        assert code == 2
        assert stdout_json(capsys)["error"]["code"] == "PARSE"

    def test_angles_without_gamma_cannot_build_entangled_state(self, tmp_path, capsys):
        src = tmp_path / "angles.json"
        fileio.save_angles(src, qp.AngleSet(0.5, 1.0, 0.0, 1.0, 0.0, None))
        code = main(["convert", "--in", str(src), "--from", "angles",
                     "--to", "amplitudes", "--out", str(tmp_path / "out.json")])
        assert code == 2
        assert stdout_json(capsys)["error"]["code"] == "SEPARABLE_GAMMA"

    def test_full_cycle_amplitudes_angles_amplitudes(self, tmp_path):
        ang = qp.AngleSet(0.7, 1.2, 0.4, 2.1, -1.0, 0.9)
        psi = qp.state_from_angles(ang)
        src = write_state(tmp_path / "in.json", psi)
        mid = tmp_path / "angles.json"
        out = tmp_path / "back.json"
        assert main(["convert", "--in", src, "--from", "amplitudes",
                     "--to", "angles", "--out", str(mid)]) == 0
        assert main(["convert", "--in", str(mid), "--from", "angles",
                     "--to", "amplitudes", "--out", str(out)]) == 0
        assert np.max(np.abs(fileio.load_state(out) - psi)) < 1e-9

    def test_spinors_to_amplitudes(self, tmp_path):
        psi = qp.sample_haar(1, 8)[0]
        mid = tmp_path / "spinors.json"
        fileio.save_decomposition(mid, qp.decompose(psi))
        out = tmp_path / "out.json"
        assert main(["convert", "--in", str(mid), "--from", "spinors",
                     "--to", "amplitudes", "--out", str(out)]) == 0
        assert np.max(np.abs(fileio.load_state(out) - psi)) < 1e-10


class TestDecomposeCommand:
    def test_matches_library(self, tmp_path):
        psi = qp.sample_haar(1, 21)[0]
        src = write_state(tmp_path / "in.json", psi)
        out = tmp_path / "dec.json"
        assert main(["decompose", "--in", src, "--out", str(out)]) == 0
        d = fileio.load_decomposition(out)
        ref = qp.decompose(psi)
        assert d.chi == ref.chi
        assert np.array_equal(d.spinor1, ref.spinor1)

    def test_is_convert_to_spinors(self, tmp_path):
        # one path: decompose writes the bytes convert --from amplitudes --to spinors writes
        for k, psi in enumerate([*qp.sample_haar(5, 22), SINGLET, [1, 0, 0, 0]]):
            src = write_state(tmp_path / f"in{k}.json", psi)
            a, b = tmp_path / f"dec{k}.json", tmp_path / f"conv{k}.json"
            assert main(["decompose", "--in", src, "--out", str(a)]) == 0
            assert main(["convert", "--in", src, "--from", "amplitudes", "--to", "spinors",
                         "--out", str(b)]) == 0
            assert a.read_bytes() == b.read_bytes()


class TestEvolve:
    def _files(self, tmp_path, steps=5, scalar=True, seed=33):
        rng = np.random.default_rng(seed)
        psi = qp.sample_haar(1, seed)[0]
        sched = lambda: [(qp.LocalHamiltonian(float(rng.normal()) if scalar else 0.0,
                                              rng.normal(size=3)),
                          float(rng.uniform(0.05, 0.3))) for _ in range(steps)]
        return (write_state(tmp_path / "state.json", psi),
                write_schedule(tmp_path / "s1.json", 1, sched()),
                write_schedule(tmp_path / "s2.json", 2, sched()))

    def test_zero_schedules_deviation_zero(self, tmp_path):
        psi = qp.sample_haar(1, 1)[0]
        state = write_state(tmp_path / "state.json", psi)
        s1 = write_schedule(tmp_path / "s1.json", 1, [(qp.ZERO_HAMILTONIAN, 1.0)])
        s2 = write_schedule(tmp_path / "s2.json", 2, [(qp.ZERO_HAMILTONIAN, 1.0)])
        out = tmp_path / "out.json"
        assert main(["evolve", "--in", state, "--schedule1", s1, "--schedule2", s2,
                     "--backend", "both", "--out", str(out)]) == 0
        obj = read_json(out)
        # identity evolution leaves only the decompose/reconstruct rounding
        assert obj["max_component_deviation"] < 1e-12
        assert obj["backends_agree"] is True

    def test_random_schedules_agree(self, tmp_path):
        state, s1, s2 = self._files(tmp_path, scalar=False)
        out = tmp_path / "out.json"
        assert main(["evolve", "--in", state, "--schedule1", s1, "--schedule2", s2,
                     "--backend", "both", "--out", str(out)]) == 0
        assert read_json(out)["max_component_deviation"] < 1e-9

    def test_scalar_parts_still_agree(self, tmp_path):
        state, s1, s2 = self._files(tmp_path, scalar=True)
        out = tmp_path / "out.json"
        assert main(["evolve", "--in", state, "--schedule1", s1, "--schedule2", s2,
                     "--backend", "both", "--out", str(out)]) == 0
        assert read_json(out)["max_component_deviation"] < 1e-9

    @pytest.mark.parametrize("backend", ["full", "separable", "both"])
    def test_long_evolve_leaves_no_work_for_the_collector(self, tmp_path, backend,
                                                          collections_during):
        # a 2,000-step run sets off no collection and leaves no cyclic garbage behind: a parser
        # built per call, a dict and a v list per schedule entry and a v list per separable
        # step each used to
        state, s1, s2 = self._files(tmp_path, steps=2000)
        argv = ["evolve", "--in", state, "--schedule1", s1, "--schedule2", s2,
                "--backend", backend, "--out", str(tmp_path / "out.json")]
        assert collections_during(lambda: main(argv)) == []
        gc.disable()
        try:
            assert main(argv) == 0
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_single_backends_match_each_other(self, tmp_path):
        state, s1, s2 = self._files(tmp_path, seed=44)
        full_out = tmp_path / "full.json"
        sep_out = tmp_path / "sep.json"
        assert main(["evolve", "--in", state, "--schedule1", s1, "--schedule2", s2,
                     "--backend", "full", "--out", str(full_out)]) == 0
        assert main(["evolve", "--in", state, "--schedule1", s1, "--schedule2", s2,
                     "--backend", "separable", "--out", str(sep_out)]) == 0
        full = np.array([complex(re, im) for re, im in read_json(full_out)["amplitudes"]])
        sep_obj = read_json(sep_out)
        sep = np.array([complex(re, im) for re, im in sep_obj["amplitudes"]])
        assert np.max(np.abs(full - sep)) < 1e-9
        assert {"chi", "spinor1", "spinor2", "beta1", "beta2"} <= set(sep_obj)

    def test_separable_output_rebuilds_its_own_amplitudes(self, tmp_path):
        # at scalar energies near 1e6 the betas' roundings leave a remainder past the 1e-9
        # agreement bound; the file carries it, so its own fields give its amplitudes
        rng = np.random.default_rng(47)
        sched = lambda: [(qp.LocalHamiltonian(1e6 + float(rng.normal()), rng.normal(size=3)),
                          float(rng.uniform(0.05, 0.3))) for _ in range(2000)]
        out = tmp_path / "out.json"
        state = write_state(tmp_path / "state.json", qp.sample_haar(1, 47)[0])
        assert main(["evolve", "--in", state,
                     "--schedule1", write_schedule(tmp_path / "s1.json", 1, sched()),
                     "--schedule2", write_schedule(tmp_path / "s2.json", 2, sched()),
                     "--backend", "separable", "--out", str(out)]) == 0
        obj = read_json(out)
        as_complex = lambda pairs: np.array([complex(re, im) for re, im in pairs])
        d = qp.SpinorDecomposition(obj["chi"], as_complex(obj["spinor1"]),
                                   as_complex(obj["spinor2"]))
        rebuilt = (qp.PhaseLedger(obj["beta1"], obj["beta2"], obj["remainder"]).phase
                   * qp.reconstruct(d))
        assert abs(obj["remainder"]) > 1e-9
        assert np.max(np.abs(rebuilt - as_complex(obj["amplitudes"]))) <= 1e-15

    def test_off_phase_state_file_keeps_its_phase(self, tmp_path):
        # decompose turns i*psi back by a quarter turn; the separable output's beta1 carries
        # that turn, so both backends end on the same amplitudes, global phase included
        state, s1, s2 = self._files(tmp_path, seed=45)
        off = write_state(tmp_path / "off.json", 1j * fileio.load_state(state))
        outs = {}
        for name, path in (("canonical", state), ("off", off)):
            for backend in ("full", "separable"):
                out = tmp_path / f"{name}-{backend}.json"
                assert main(["evolve", "--in", path, "--schedule1", s1, "--schedule2", s2,
                             "--backend", backend, "--out", str(out)]) == 0
                outs[name, backend] = read_json(out)
        full, sep = (np.array([complex(re, im) for re, im in outs["off", backend]["amplitudes"]])
                     for backend in ("full", "separable"))
        assert np.max(np.abs(full - sep)) < 1e-9
        turn = outs["off", "separable"]["beta1"] - outs["canonical", "separable"]["beta1"]
        assert abs(abs(turn) - math.pi / 2) < 1e-12

    @pytest.mark.parametrize("backend", ["full", "separable", "both"])
    @pytest.mark.parametrize("literal", ["Infinity", "-Infinity", "NaN"])
    def test_non_finite_schedule_value_is_parse_error(self, tmp_path, capsys, backend, literal):
        state, _, s2 = self._files(tmp_path, seed=66)
        s1 = tmp_path / "bad.json"
        s1.write_text('[{"qubit": 1, "h_i": %s, "v": [0, 0, 1], "duration": 0.1}]' % literal)
        code = main(["evolve", "--in", state, "--schedule1", str(s1), "--schedule2", s2,
                     "--backend", backend])
        assert code == 2
        assert stdout_json(capsys)["error"]["code"] == "PARSE"

    @pytest.mark.parametrize("backend", ["full", "separable", "both"])
    @pytest.mark.parametrize("tag", ["true", "1.0"])
    def test_non_integer_qubit_tag_is_parse_error(self, tmp_path, capsys, backend, tag):
        # JSON's true and 1.0 compare equal to 1, but a tag is the integer 1 or 2
        state, _, s2 = self._files(tmp_path, seed=68)
        s1 = tmp_path / "tagged.json"
        s1.write_text('[{"qubit": %s, "h_i": 0.5, "v": [0, 0, 1], "duration": 0.1}]' % tag)
        code = main(["evolve", "--in", state, "--schedule1", str(s1), "--schedule2", s2,
                     "--backend", backend])
        assert code == 2
        error = stdout_json(capsys)["error"]
        assert error["code"] == "PARSE"
        assert "entry 0: qubit must be 1 or 2, got " in error["message"]

    @pytest.mark.parametrize("backend", ["full", "separable", "both"])
    @pytest.mark.parametrize("columns, message", [
        ('"h_i": [0.5, 0.5], "v": [0, 0, 1, 0, 0, 1], "duration": [0.1]',
         "h_i, v and duration must list S >= 1, 3S and S values, got lengths [2, 6, 1]"),
        ('"h_i": [0.5, 0.5], "v": [0, 0, 1, 0, 0], "duration": [0.1, 0.1]',
         "h_i, v and duration must list S >= 1, 3S and S values, got lengths [2, 5, 2]"),
        ('"h_i": [0.5], "duration": [0.1]', "missing column 'v'"),
    ], ids=["unequal-lengths", "v-not-3S", "missing-column"])
    def test_column_layout_fault_is_parse_error(self, tmp_path, capsys, backend, columns,
                                                message):
        state, _, s2 = self._files(tmp_path, seed=69)
        s1 = tmp_path / "columns.json"
        s1.write_text('{"qubit": 1, %s}' % columns)
        code = main(["evolve", "--in", state, "--schedule1", str(s1), "--schedule2", s2,
                     "--backend", backend])
        assert code == 2
        error = stdout_json(capsys)["error"]
        assert error["code"] == "PARSE" and error["message"] == f"{s1}: {message}"

    @pytest.mark.parametrize("backend", ["full", "separable", "both"])
    @pytest.mark.parametrize("entries", [
        '{"qubit": 1, "h_i": 0, "v": [1e200, 0, 0], "duration": 1e200}',
        '{"qubit": 1, "h_i": 1e200, "v": [0, 0, 1], "duration": 1e200}',
        # each phase is finite, their sum is not
        '{"qubit": 1, "h_i": 1e154, "v": [0, 0, 1], "duration": 1e154}, ' * 2
        + '{"qubit": 1, "h_i": 0, "v": [0, 0, 1], "duration": 1}',
    ])
    def test_overflowing_schedule_angle_is_parse_error(self, tmp_path, capsys, backend, entries):
        state, _, s2 = self._files(tmp_path, seed=67)
        s1 = tmp_path / "huge.json"
        s1.write_text("[%s]" % entries)
        code = main(["evolve", "--in", state, "--schedule1", str(s1), "--schedule2", s2,
                     "--backend", backend])
        assert code == 2
        assert stdout_json(capsys)["error"]["code"] == "PARSE"

    @pytest.mark.parametrize("backend", ["full", "separable", "both"])
    def test_phases_whose_sum_overflows_stay_finite(self, tmp_path, backend):
        # each file passes the load check; beta1 + beta2 overflows the float range
        state, _, _ = self._files(tmp_path, seed=68)
        paths = []
        for qubit in (1, 2):
            path = tmp_path / f"s{qubit}.json"
            path.write_text('[{"qubit": %d, "h_i": 1e154, "v": [0, 0, 1], "duration": 1e154}]'
                            % qubit)
            paths.append(str(path))
        out = tmp_path / "out.json"
        assert main(["evolve", "--in", state, "--schedule1", paths[0], "--schedule2", paths[1],
                     "--backend", backend, "--out", str(out)]) == 0

        def reject(token):
            raise ValueError(f"non-finite value {token} in the output")

        obj = json.loads(out.read_text(), parse_constant=reject)
        keys = ["final_state_full", "final_state_separable"] if backend == "both" else ["amplitudes"]
        for key in keys:
            assert np.all(np.isfinite(np.array(obj[key])))
        if backend == "both":
            assert obj["backends_agree"] is True

    def test_long_run_of_one_hamiltonian_exits_zero(self, tmp_path):
        # 20,000 equal steps take a rotated spinor past the 1e-12 unit-norm rule; the separable
        # run builds its amplitudes from them anyway, and both backends still agree
        rng = np.random.default_rng(0)
        step = (qp.LocalHamiltonian(0.0, rng.normal(size=3)), float(rng.uniform(0.01, 0.1)))
        argv = ["evolve", "--in", write_state(tmp_path / "state.json", qp.sample_haar(1, 0)[0]),
                "--schedule1", write_schedule(tmp_path / "s1.json", 1, [step] * 20_000),
                "--schedule2", write_schedule(tmp_path / "s2.json", 2, [step] * 20_000)]
        for backend in ("separable", "both"):
            out = tmp_path / f"{backend}.json"
            assert main([*argv, "--backend", backend, "--out", str(out)]) == 0
        assert read_json(tmp_path / "both.json")["backends_agree"] is True

    def test_swapped_schedule_tag_rejected(self, tmp_path, capsys):
        state, s1, s2 = self._files(tmp_path, seed=55)
        code = main(["evolve", "--in", state, "--schedule1", s2, "--schedule2", s1])
        assert code == 2
        assert stdout_json(capsys)["error"]["code"] == "PARSE"


def test_every_error_code_is_emitted(tmp_path, capsys):
    # each code of the exit-2 contract is one some input reaches; a code no command can raise
    # is dead contract and goes
    src = tmp_path / "angles.json"
    fileio.save_angles(src, qp.AngleSet(0.5, 1.0, 0.0, 1.0, 0.0, None))
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    runs = {"SEPARABLE_GAMMA": (str(src), "angles", "amplitudes"),
            "MAX_ENTANGLED": (write_state(tmp_path / "singlet.json", SINGLET), "amplitudes",
                              "angles"),
            "PARSE": (str(bad), "amplitudes", "angles")}
    assert set(runs) == {code for _, code in _ERROR_CODES}
    for code, (path, from_fmt, to_fmt) in runs.items():
        assert main(["convert", "--in", path, "--from", from_fmt, "--to", to_fmt,
                     "--out", str(tmp_path / "out.json")]) == 2
        assert stdout_json(capsys)["error"]["code"] == code


class TestVerifyCommand:
    def test_roundtrip_suite_passes(self, tmp_path, capsys):
        out = tmp_path / "verify.json"
        code = main(["verify", "--suite", "roundtrip", "--trials", "100",
                     "--seed", "7", "--out", str(out)])
        assert code == 0
        obj = read_json(out)
        assert obj["passed"] is True
        assert all(p["passed"] for p in obj["properties"])
        err = capsys.readouterr().err
        assert "PASS" in err and "FAIL" not in err

    def test_all_suites_small(self, tmp_path):
        out = tmp_path / "verify.json"
        assert main(["verify", "--suite", "all", "--trials", "40",
                     "--seed", "11", "--out", str(out)]) == 0
        assert read_json(out)["passed"] is True


class TestBenchCommand:
    def test_small_run_valid_but_low_confidence(self, tmp_path):
        out = tmp_path / "bench.json"
        assert main(["bench", "--steps", "200", "--trials", "2", "--seed", "3",
                     "--out", str(out)]) == 0
        obj = read_json(out)
        assert obj["status"] == "VALID"
        assert obj["timing_confidence"] == "LOW_CONFIDENCE"
        assert obj["max_deviation"] < 1e-9

    def test_single_step_boundary(self, tmp_path):
        out = tmp_path / "bench.json"
        assert main(["bench", "--steps", "1", "--trials", "1", "--seed", "3",
                     "--out", str(out)]) == 0
        assert read_json(out)["timing_confidence"] == "LOW_CONFIDENCE"

    def test_deviation_deterministic_across_runs(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["bench", "--steps", "300", "--trials", "2", "--seed", "5",
                     "--out", str(a)]) == 0
        assert main(["bench", "--steps", "300", "--trials", "2", "--seed", "5",
                     "--out", str(b)]) == 0
        assert read_json(a)["max_deviation"] == read_json(b)["max_deviation"]


@pytest.mark.parametrize("argv", [
    ["bench", "--steps", "0"],
    ["bench", "--trials", "0"],
    ["sample", "--count", "0"],
    ["verify", "--trials", "0"],
])
def test_count_below_one_is_usage_error(argv, capsys):
    assert main(argv) == 2
    error = stdout_json(capsys)["error"]
    assert error["code"] == "PARSE"
    assert argv[1] in error["message"]


@pytest.mark.parametrize("count", [COUNT_CEILING + 1, 10**13])
@pytest.mark.parametrize("argv", [
    ["bench", "--steps"],
    ["bench", "--trials"],
    ["sample", "--count"],
    ["verify", "--trials"],
])
def test_count_past_the_ceiling_is_usage_error(argv, count, capsys, monkeypatch):
    # refused before any work: a call into the work would fail the test instead of allocating
    def no_work(*args):
        raise AssertionError(f"work started for {argv}")

    for name in ("run_benchmark", "run_suite", "sample_haar", "sample_fixed_concurrence"):
        monkeypatch.setattr(qp.cli, name, no_work)
    assert main([*argv, str(count)]) == 2
    error = stdout_json(capsys)["error"]
    assert error["code"] == "PARSE"
    assert argv[1] in error["message"] and str(COUNT_CEILING) in error["message"]


@pytest.mark.parametrize("option", ["--count", "--steps", "--trials"])
def test_count_at_the_ceiling_is_accepted(option):
    qp.cli._check_count(option, COUNT_CEILING)


@pytest.mark.parametrize("argv", [
    ["verify", "--suite", "roundtrip", "--trials", "1", "--seed", "-1"],
    ["sample", "--count", "1", "--seed", "-1"],
    ["bench", "--steps", "1", "--trials", "1", "--seed", "-1"],
])
def test_negative_seed_is_usage_error(argv, capsys):
    assert main(argv) == 2
    error = stdout_json(capsys)["error"]
    assert error["code"] == "PARSE"
    assert "--seed" in error["message"]


@pytest.mark.parametrize("content", [
    b'\xff{"amplitudes": []}',       # not UTF-8: a UnicodeDecodeError while reading
    b"[" * 2000 + b"]" * 2000,       # nested past the parser's recursion limit
], ids=["undecodable", "deeply-nested"])
@pytest.mark.parametrize("command", ["convert", "evolve"])
def test_unparseable_file_is_parse_error(tmp_path, capsys, content, command):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    if command == "convert":
        argv = ["convert", "--in", str(bad), "--from", "amplitudes", "--to", "angles",
                "--out", str(tmp_path / "out.json")]
    else:
        state = write_state(tmp_path / "state.json", SINGLET)
        s2 = write_schedule(tmp_path / "s2.json", 2, [(qp.ZERO_HAMILTONIAN, 1.0)])
        argv = ["evolve", "--in", state, "--schedule1", str(bad), "--schedule2", s2]
    assert main(argv) == 2
    error = stdout_json(capsys)["error"]
    assert error["code"] == "PARSE"
    assert error["message"].startswith(f"{bad}: not valid JSON: ")


# |v| - 1 for each tier of the unit-vector readers: as-is while the package's sum of squares is
# within 1e-12 of 1, renormalized silently to |v| - 1 = 1e-9, with a warning to 1e-6, refused beyond
NORM_TIERS = [(0.0, "as-is"), (4e-13, "as-is"), (-4e-13, "as-is"),
              (6e-13, "silent"), (-6e-13, "silent"), (9e-10, "silent"), (-9e-10, "silent"),
              (1.1e-9, "warned"), (-1.1e-9, "warned"), (9e-7, "warned"), (-9e-7, "warned"),
              (1.1e-6, "refused"), (-1.1e-6, "refused")]

# |psi|^2 - 1 reads 9.996e-13 by np.linalg.norm but 1.00009e-12 by the package's own sum
EDGE_STATE = [[0.27601061554587936, 0.41426920152481617], [0.1491500221195052, -0.380363725714479],
              [0.3401169735268012, -0.2331001559973958], [0.40868791824033807, -0.4982326995638337]]
# each spinor is inside the as-is band, the state they rebuild is not
EDGE_SCALE = math.sqrt(1 + 0.9e-12)
EDGE_SPINORS = {"chi": 0.7, "spinor1": [[0.6 * EDGE_SCALE, 0.0], [0.0, 0.8 * EDGE_SCALE]],
                "spinor2": [[0.8 * EDGE_SCALE, 0.0], [-0.6 * EDGE_SCALE, 0.0]]}


class TestReaderEdgeSweep:
    """Every command that reads a file kind, at each of that reader's tiers, ends in exit 0 or
    2 and never in an exception; warnings come exactly from the warned tier."""

    def _run_all(self, capsys, commands, out, tier):
        for argv in commands:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code = main(argv + ["--out", str(out)])
            stdout, stderr = capsys.readouterr()
            assert code in (0, 2) and "Traceback" not in stderr, (argv, code, stderr)
            error = json.loads(stdout)["error"]["code"] if code == 2 else None
            if tier == "refused":
                assert error == "PARSE", argv
            else:
                assert error in (None, "SEPARABLE_GAMMA", "MAX_ENTANGLED"), (argv, error)
            warned = [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)]
            assert bool(warned) == (tier == "warned"), (argv, warned)

    def _state_commands(self, tmp_path, path):
        # evolve reads its state file the same way for every backend, and "both" must find the
        # backends agreeing on every input the reader accepts, off the canonical phase too
        s1 = write_schedule(tmp_path / "s1.json", 1,
                            [(qp.LocalHamiltonian(0.3, [0.2, -0.4, 1.1]), 0.7)])
        s2 = write_schedule(tmp_path / "s2.json", 2,
                            [(qp.LocalHamiltonian(-0.5, [1.0, 0.3, 0.0]), 0.2)])
        return ([["convert", "--in", path, "--from", "amplitudes", "--to", to] for to in FORMATS]
                + [["decompose", "--in", path]]
                + [["evolve", "--in", path, "--schedule1", s1, "--schedule2", s2, "--backend", b]
                   for b in ("full", "separable", "both")])

    @pytest.mark.parametrize("delta, tier", NORM_TIERS)
    def test_state_files(self, tmp_path, capsys, delta, tier):
        bases = [qp.sample_haar(1, 71)[0], [1, 0, 0, 0], SINGLET,
                 qp.sample_fixed_concurrence(1, 72, qp.states.HALF_PI - 1e-10)[0],
                 qp.sample_fixed_concurrence(1, 73, 1e-10)[0],
                 [complex(*z) for z in EDGE_STATE]]
        for k, base in enumerate(bases):
            # the file save_state writes for an accepted tier; it refuses the refused tier
            path = tmp_path / f"state{k}.json"
            fileio.write_json(path, {"amplitudes": fileio.pairs(
                np.asarray(base, dtype=complex) * (1 + delta))})
            self._run_all(capsys, self._state_commands(tmp_path, str(path)),
                          tmp_path / "out.json", tier)

    @pytest.mark.parametrize("delta, tier", NORM_TIERS)
    def test_spinor_files(self, tmp_path, capsys, delta, tier):
        ds = [qp.decompose(qp.sample_haar(1, 74)[0]), qp.decompose(SINGLET),
              qp.decompose(np.array([1, 0, 0, 0], dtype=complex)),
              qp.SpinorDecomposition(0.7, np.array([0.6, 0.8j]), np.array([0.8, -0.6]))]
        for k, d in enumerate(ds):
            # the tier's error on one spinor, and on both, each with the other as-is
            for f1, f2 in ((1 + delta, 1.0), (1.0, 1 + delta), (1 + delta, 1 + delta)):
                # the file save_decomposition writes for an accepted tier, as for state files
                path = tmp_path / f"spinors{k}.json"
                fileio.write_json(path, {"chi": d.chi, "spinor1": fileio.pairs(d.spinor1 * f1),
                                         "spinor2": fileio.pairs(d.spinor2 * f2)})
                commands = [["convert", "--in", str(path), "--from", "spinors", "--to", to]
                            for to in FORMATS]
                self._run_all(capsys, commands, tmp_path / "out.json", tier)

    @pytest.mark.parametrize("chi", [
        0.0, math.nextafter(qp.EPS_DEGEN, 0.0), qp.EPS_DEGEN, 0.7,
        qp.states.HALF_PI - qp.EPS_DEGEN, math.nextafter(qp.states.HALF_PI - qp.EPS_DEGEN, 2.0),
        qp.states.HALF_PI, math.nextafter(qp.states.HALF_PI, 2.0)])
    @pytest.mark.parametrize("gamma", [None, 0.4])
    def test_angle_files(self, tmp_path, capsys, chi, gamma):
        # the angle reader's edges are those of chi, with and without gamma, at and off the poles
        for k, (theta1, theta2) in enumerate(((0.0, math.pi), (1.1, 2.3))):
            path = tmp_path / f"angles{k}.json"
            path.write_text(json.dumps({"chi": chi, "theta1": theta1, "phi1": 0.3,
                                        "theta2": theta2, "phi2": -2.0, "gamma": gamma}))
            commands = [["convert", "--in", str(path), "--from", "angles", "--to", to]
                        for to in FORMATS]
            self._run_all(capsys, commands, tmp_path / "out.json",
                          "refused" if chi > qp.states.HALF_PI else "as-is")

    def test_edge_files_convert(self, tmp_path, capsys):
        # the two files that used to end in a traceback: a state file inside the as-is band by
        # np.linalg.norm but not by the package's sum, and the spinor pair above
        state = tmp_path / "state.json"
        state.write_text(json.dumps({"amplitudes": EDGE_STATE}))
        spinors = tmp_path / "spinors.json"
        spinors.write_text(json.dumps(EDGE_SPINORS))
        commands = self._state_commands(tmp_path, str(state)) + [
            ["convert", "--in", str(spinors), "--from", "spinors", "--to", to] for to in FORMATS]
        for argv in commands:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert main(argv + ["--out", str(tmp_path / "out.json")]) == 0, argv
            assert capsys.readouterr() == ("", "")

    def test_both_backends_off_the_canonical_phase(self, tmp_path):
        state = tmp_path / "state.json"
        state.write_text(json.dumps({"amplitudes": EDGE_STATE}))
        s1 = write_schedule(tmp_path / "s1.json", 1, [(qp.ZERO_HAMILTONIAN, 1.0)])
        s2 = write_schedule(tmp_path / "s2.json", 2, [(qp.ZERO_HAMILTONIAN, 1.0)])
        assert main(["evolve", "--in", str(state), "--schedule1", s1, "--schedule2", s2,
                     "--backend", "both", "--out", str(tmp_path / "out.json")]) == 0


class TestSampleCommand:
    def test_writes_normalized_states(self, tmp_path):
        out = tmp_path / "samples.json"
        assert main(["sample", "--count", "3", "--seed", "1", "--out", str(out)]) == 0
        records = read_json(out)
        assert len(records) == 3
        for rec in records:
            psi = np.array([complex(re, im) for re, im in rec["amplitudes"]])
            assert abs(np.vdot(psi, psi).real - 1) < 1e-12

    def test_fixed_chi_samples(self, tmp_path):
        out = tmp_path / "samples.json"
        assert main(["sample", "--count", "5", "--seed", "2",
                     "--fixed-chi", str(np.pi / 2), "--out", str(out)]) == 0
        psi = np.array([[complex(re, im) for re, im in rec["amplitudes"]]
                        for rec in read_json(out)])
        for state in psi:
            assert abs(qp.concurrence(state) - 1.0) < 1e-12
        assert np.array_equal(psi, qp.sample_fixed_concurrence(5, 2, np.pi / 2))

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["sample", "--count", "4", "--seed", "9", "--out", str(a)]) == 0
        assert main(["sample", "--count", "4", "--seed", "9", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_stdout_matches_out_file_and_reloads_bitexact(self, tmp_path, capsys):
        out = tmp_path / "samples.json"
        assert main(["sample", "--count", "4", "--seed", "9", "--out", str(out)]) == 0
        assert main(["sample", "--count", "4", "--seed", "9"]) == 0
        text = capsys.readouterr().out
        assert text == out.read_text()
        psi = np.array([[complex(re, im) for re, im in rec["amplitudes"]]
                        for rec in json.loads(text)])
        assert np.array_equal(psi, qp.sample_haar(4, 9))

    def test_bad_fixed_chi_is_usage_error(self, tmp_path, capsys):
        code = main(["sample", "--count", "1", "--seed", "1", "--fixed-chi", "9"])
        assert code == 2
        assert stdout_json(capsys)["error"]["code"] == "PARSE"

    def test_missing_file_is_exit_2(self, tmp_path, capsys):
        code = main(["convert", "--in", str(tmp_path / "nope.json"),
                     "--from", "amplitudes", "--to", "angles",
                     "--out", str(tmp_path / "out.json")])
        assert code == 2


# the deviation exactly at the bound disagrees; the next float below it agrees
AGREEMENT_EDGE = [(1e-9, False), (math.nextafter(1e-9, 0.0), True)]


class TestBackendAgreementRule:
    @pytest.mark.parametrize("deviation,agree", AGREEMENT_EDGE)
    def test_rule(self, deviation, agree):
        assert qp.dynamics.backends_agree(deviation) is agree

    @pytest.mark.parametrize("deviation,agree", AGREEMENT_EDGE)
    def test_evolve_both(self, tmp_path, capsys, monkeypatch, deviation, agree):
        zeros = np.zeros(4, dtype=complex)
        monkeypatch.setattr(qp.cli, "compare_backends",
                            lambda *a: qp.EvolutionReport(zeros, zeros, deviation))
        state = write_state(tmp_path / "state.json", qp.sample_haar(1, 1)[0])
        s1 = write_schedule(tmp_path / "s1.json", 1, [(qp.ZERO_HAMILTONIAN, 1.0)])
        s2 = write_schedule(tmp_path / "s2.json", 2, [(qp.ZERO_HAMILTONIAN, 1.0)])
        code = main(["evolve", "--in", state, "--schedule1", s1, "--schedule2", s2,
                     "--backend", "both"])
        assert code == (0 if agree else 1)
        assert stdout_json(capsys)["backends_agree"] is agree

    @pytest.mark.parametrize("deviation,agree", AGREEMENT_EDGE)
    def test_bench_status(self, monkeypatch, deviation, agree):
        # the full end state is off the separable one (zero) by exactly ``deviation``
        monkeypatch.setattr(qp.bench, "evolve_full_schedule",
                            lambda *a: np.array([deviation, 0, 0, 0], dtype=complex))
        monkeypatch.setattr(qp.bench, "evolve_separable_state",
                            lambda *a: (None, None, np.zeros(4, dtype=complex)))
        report = qp.run_benchmark(steps=3, trials=2, seed=1)
        assert report.max_deviation == deviation
        assert report.status == ("VALID" if agree else "INVALID")

    @pytest.mark.parametrize("deviation,agree", AGREEMENT_EDGE)
    def test_verify_backend_equivalence(self, capsys, monkeypatch, deviation, agree):
        real = qp.dynamics.compare_backends
        monkeypatch.setattr(qp.dynamics, "compare_backends", lambda *a: dataclasses.replace(
            real(*a), max_component_deviation=deviation))
        code = main(["verify", "--suite", "dynamics", "--trials", "4", "--seed", "1"])
        out, err = capsys.readouterr()
        (prop,) = [p for p in json.loads(out)["properties"] if p["name"] == "backend_equivalence"]
        assert prop["worst"] == deviation and prop["passed"] is agree
        assert ("PASS" if agree else "FAIL") + " backend_equivalence" in err
        assert code == (0 if agree else 1)
