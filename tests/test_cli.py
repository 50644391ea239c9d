"""End-to-end subcommand runs: exit codes, check lines, files, reruns."""

import contextlib
import io
import json
import math
import os
import struct
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glhs import cli, core
from glhs.cli import _COMMANDS, main
from glhs.core import AtomicFile, FormatError, StreamReader
from glhs.halfspace import Halfspace, read_halfspace, write_halfspace
from glhs.harness import make_record, parse_record, read_records
from glhs.labelcover import (
    LabelCoverInstance,
    Labeling,
    read_instance,
    read_labeling,
    write_instance,
    write_labeling,
)
from glhs.reduction import planted_disjunction

GADGET = ["--k", "12", "--eps", "0.82", "--p", "0.25"]
_GEN_LC = ["gen-lc", "--kind", "projection", "--vertices", "5", "--edges", "6", "--k", "3",
           "--m", "4", "--n", "2", "--d", "2", "--seed", "2"]


def _write_records(records, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(rec.line() + "\n" for rec in records)


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _check_lines(out):
    return [parse_record(ln) for ln in out.splitlines() if ln.startswith("check\t")]


class TestVerifyMoments:
    def test_matched_pair_passes(self, capsys, tmp_path):
        records_path = tmp_path / "moments.report"
        code, out, err = _run(
            capsys,
            ["verify", "moments", *GADGET, "--gamma", "0.0078125",
             "--records", str(records_path)],
        )
        assert code == 0
        assert err == ""
        recs = {r.check_id: r for r in _check_lines(out)}
        assert recs["moments.residuals"].status == "pass"
        assert recs["moments.gap"].status == "pass"
        assert recs["moments.noisy-gap"].status == "pass"
        assert recs["moments.enum-oracle"].status == "pass"
        assert recs["moments.boundary-eps"].status == "exploratory"
        assert out.splitlines()[-1].endswith("OK")
        saved = read_records(str(records_path))
        assert {r.check_id for r in saved} == set(recs)
        assert records_path.read_text().startswith("# config:")

    def test_paper_couplings_are_infeasible(self, capsys):
        code, out, err = _run(
            capsys, ["verify", "moments", "--k", "64", "--eps", "paper", "--p", "paper"]
        )
        assert code == 2
        assert err.startswith("error:")
        assert "eps2" in err

    def test_explicit_infeasible_point_names_the_weight(self, capsys):
        code, _, err = _run(
            capsys,
            ["verify", "moments", "--k", "64", "--eps", "0.125", "--p", "0.25"],
        )
        assert code == 2
        assert "eps2" in err
        assert "12*(1-eps)" in err


class TestGenLc:
    def test_unique_instance_roundtrip(self, capsys, tmp_path):
        inst_path = tmp_path / "u.lc"
        lab_path = tmp_path / "u.lab"
        argv = [
            "gen-lc", "--kind", "unique", "--vertices", "10", "--edges", "8",
            "--k", "3", "--r", "4", "--seed", "7",
            "--out", str(inst_path), "--labeling", str(lab_path),
        ]
        code, out, _ = _run(capsys, argv)
        assert code == 0
        recs = {r.check_id: r for r in _check_lines(out)}
        assert recs["gen-lc.planted-strong"].status == "pass"
        assert recs["gen-lc.connected"].status == "exploratory"
        inst = read_instance(str(inst_path))
        lab = read_labeling(str(lab_path))
        assert inst.unique
        assert (inst.num_vertices, inst.num_edges, inst.k, inst.m) == (10, 8, 3, 4)
        assert lab.num_vertices == 10

        again = tmp_path / "u2.lc"
        argv[argv.index(str(inst_path))] = str(again)
        argv[argv.index(str(lab_path))] = str(tmp_path / "u2.lab")
        assert main(argv) == 0
        capsys.readouterr()
        assert again.read_bytes() == inst_path.read_bytes()

    def test_projection_instance_audits_preimage(self, capsys, tmp_path):
        inst_path = tmp_path / "p.lc"
        code, out, _ = _run(
            capsys,
            ["gen-lc", "--kind", "projection", "--vertices", "9", "--edges", "10",
             "--k", "3", "--m", "8", "--n", "4", "--d", "2", "--seed", "1",
             "--out", str(inst_path)],
        )
        assert code == 0
        recs = {r.check_id: r for r in _check_lines(out)}
        assert recs["gen-lc.preimage"].status == "pass"
        assert recs["gen-lc.preimage"].statistic <= 2.0
        assert not read_instance(str(inst_path)).unique

    def test_smooth_expansion(self, capsys, tmp_path):
        inst_path = tmp_path / "s.lc"
        code, out, _ = _run(
            capsys,
            ["gen-lc", "--kind", "smooth", "--w-vertices", "4", "--vertices", "6",
             "--degree", "2", "--k", "2", "--m", "4", "--n", "2", "--d", "2",
             "--seed", "3", "--out", str(inst_path)],
        )
        assert code == 0
        inst = read_instance(str(inst_path))
        assert inst.num_edges == 4 * 2**2
        recs = {r.check_id: r for r in _check_lines(out)}
        assert recs["gen-lc.planted-strong"].status == "pass"

    def test_missing_parameter_is_a_usage_error(self, capsys):
        code, _, err = _run(capsys, ["gen-lc", "--kind", "unique", "--seed", "4"])
        assert code == 2
        assert "required" in err

    SIZES = {
        "unique": {"vertices": "10", "edges": "8", "k": "3", "r": "4"},
        "projection": {"vertices": "9", "edges": "10", "k": "3", "m": "8", "n": "4", "d": "2"},
        "smooth": {"w-vertices": "4", "vertices": "6", "degree": "2", "k": "2",
                   "m": "4", "n": "2", "d": "2"},
    }

    @pytest.mark.parametrize("value", ["-1", "0"])
    @pytest.mark.parametrize(
        "kind, flag", [(kind, flag) for kind, sizes in SIZES.items() for flag in sizes]
    )
    def test_size_flags_below_range_are_usage_errors(self, capsys, tmp_path, monkeypatch,
                                                     kind, flag, value):
        # checked before any generator runs: --k -1 used to index the word
        # layout and die with an IndexError traceback
        monkeypatch.chdir(tmp_path)
        sizes = {**self.SIZES[kind], flag: value}
        argv = ["gen-lc", "--kind", kind, "--seed", "1", "--out", "g.lc"]
        code, stdout, err = _run(capsys, argv + [a for f, v in sizes.items() for a in (f"--{f}", v)])
        assert code == 2
        assert stdout == ""
        low = 2 if flag == "k" else 1
        assert err == f"error: --{flag} must be >= {low}, got {value}\n"
        assert list(tmp_path.iterdir()) == []


class TestSampleAndReduce:
    def test_sample_stream_and_byte_identical_rerun(self, capsys, tmp_path):
        a, b = tmp_path / "a.stream", tmp_path / "b.stream"
        argv = [
            "sample", *GADGET, "--gamma", "0.03125", "--r", "2",
            "--count", "64", "--seed", "5", "--out", str(a),
        ]
        assert main(argv) == 0
        capsys.readouterr()
        argv[argv.index(str(a))] = str(b)
        assert main(argv) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()
        reader = StreamReader(str(a))
        assert reader.header.count == 64
        assert (reader.header.rows, reader.header.cols) == (12, 2)
        assert "kind=dict-test" in reader.header.meta

    def test_reduce_requires_and_uses_an_instance(self, capsys, tmp_path):
        inst_path = tmp_path / "p.lc"
        assert main(
            ["gen-lc", "--kind", "projection", "--vertices", "5", "--edges", "6",
             "--k", "3", "--m", "4", "--n", "2", "--d", "2", "--seed", "2",
             "--out", str(inst_path)]
        ) == 0
        capsys.readouterr()
        out_a = tmp_path / "ra.stream"
        out_b = tmp_path / "rb.stream"
        argv = [
            "reduce", "--instance", str(inst_path), "--k", "3", "--eps", "0.5",
            "--p", "0.25", "--gamma", "0.25", "--completeness-only",
            "--count", "40", "--seed", "9", "--out", str(out_a),
        ]
        assert main(argv) == 0
        capsys.readouterr()
        argv[argv.index(str(out_a))] = str(out_b)
        assert main(argv) == 0
        capsys.readouterr()
        assert out_a.read_bytes() == out_b.read_bytes()
        reader = StreamReader(str(out_a))
        assert (reader.header.rows, reader.header.cols) == (5, 4)
        assert "kind=lc-reduce" in reader.header.meta

    def test_reduce_without_instance_is_rejected_by_the_parser(self, capsys):
        with pytest.raises(SystemExit):
            main(["reduce", *GADGET, "--count", "4", "--seed", "1", "--out", "x"])
        capsys.readouterr()


class TestDictTest:
    def test_completeness_and_soundness_records(self, capsys):
        code, out, _ = _run(
            capsys,
            ["dict-test", *GADGET, "--gamma", "0.015625", "--r", "1",
             "--samples", "2000", "--seed", "3", "--floor", "0.5",
             "--gap-bound", "0.9"],
        )
        assert code == 0
        recs = {r.check_id: r for r in _check_lines(out)}
        assert recs["completeness.acceptance"].status == "pass"
        assert recs["completeness.floor"].status == "pass"
        assert recs["soundness.majority.gap"].status == "pass"

    def test_failed_floor_exits_one(self, capsys):
        code, out, _ = _run(
            capsys,
            ["dict-test", *GADGET, "--gamma", "0.015625", "--r", "1",
             "--samples", "500", "--seed", "3", "--floor", "0.999"],
        )
        assert code == 1
        recs = {r.check_id: r for r in _check_lines(out)}
        assert recs["completeness.floor"].status == "fail"
        assert out.splitlines()[-1].endswith("FAIL")


class TestVerifyLemmas:
    def test_critical_index(self, capsys):
        code, out, _ = _run(
            capsys,
            ["verify", "critical-index", "--count", "60", "--dim", "12",
             "--tau", "0.5", "--seed", "2"],
        )
        assert code == 0
        recs = {r.check_id: r for r in _check_lines(out)}
        assert recs["critical-index.decay-chain"].status == "pass"
        minimality = recs["critical-index.prefix-minimality"]
        assert minimality.status == "pass"
        # 10 of the 60 vectors have 2 <= c_tau < inf at tau 0.5
        assert dict(minimality.params)["checked"] == "10"

    def test_small_ball(self, capsys):
        code, out, _ = _run(
            capsys,
            ["verify", "small-ball", "--cases", "6", "--t", "8",
             "--trials", "4000", "--seed", "1"],
        )
        assert code == 0
        recs = {r.check_id: r for r in _check_lines(out)}
        assert recs["small-ball.unique-point"].status == "pass"
        assert recs["small-ball.noisy-mass"].status == "pass"

    def test_small_ball_interval_survives_rounding(self, capsys):
        # at seed 1, center -/+ m/6 rounded to an interval longer than m/3
        code, out, err = _run(
            capsys,
            ["verify", "small-ball", "--cases", "60", "--trials", "2000", "--seed", "1"],
        )
        assert code == 0, err
        recs = {r.check_id: r for r in _check_lines(out)}
        assert recs["small-ball.unique-point"].status == "pass"

    def test_spread(self, capsys):
        code, out, _ = _run(
            capsys,
            ["verify", "spread", "--cases", "2", "--trials", "8000", "--seed", "4"],
        )
        assert code == 0
        recs = {r.check_id: r for r in _check_lines(out)}
        assert recs["spread.interval-bound"].status == "pass"
        assert recs["spread.noise-mass-floor"].status == "pass"

    def test_invariance(self, capsys):
        code, out, _ = _run(
            capsys, ["verify", "invariance", "--families", "6", "--seed", "0"]
        )
        assert code == 0
        recs = {r.check_id: r for r in _check_lines(out)}
        assert recs["invariance.quartic"].status == "pass"
        assert recs["invariance.cubic-exact-zero"].status == "pass"
        assert recs["invariance.hybrid-steps"].status == "pass"
        assert recs["invariance.sgn-gap"].status == "pass"

    def test_invariance_r_guard(self, capsys):
        code, _, err = _run(capsys, ["verify", "invariance", "--r", "9"])
        assert code == 2
        assert err == "error: --r must be in [1, 6], got 9\n"

    def test_smoothness_and_niceness(self, capsys, tmp_path):
        inst_path = tmp_path / "p.lc"
        assert main(
            ["gen-lc", "--kind", "projection", "--vertices", "9", "--edges", "12",
             "--k", "3", "--m", "8", "--n", "4", "--d", "2", "--seed", "5",
             "--out", str(inst_path)]
        ) == 0
        capsys.readouterr()
        code, out, _ = _run(
            capsys,
            ["verify", "smoothness", "--instance", str(inst_path), "--d", "2"],
        )
        assert code == 0
        recs = {r.check_id: r for r in _check_lines(out)}
        assert recs["smoothness.max-collision"].status == "exploratory"
        assert recs["smoothness.preimage"].status == "pass"

        h_path = tmp_path / "ones.hs"
        write_halfspace(Halfspace.from_grid(np.ones((9, 8)), 1.0), str(h_path))
        code, out, _ = _run(
            capsys,
            ["verify", "niceness", "--instance", str(inst_path),
             "--halfspace", str(h_path), "--tau", "0.5", "--beta", "100",
             "--j", "1000", "--d", "2"],
        )
        assert code == 0
        recs = {r.check_id: r for r in _check_lines(out)}
        assert recs["niceness.non-nice-fraction"].status == "pass"
        assert recs["niceness.non-nice-fraction"].statistic == 0.0


class TestLearnAndDecode:
    def test_learn_writes_a_grid_shaped_halfspace(self, capsys, tmp_path, monkeypatch):
        stream = tmp_path / "train.stream"
        assert main(
            ["sample", *GADGET, "--gamma", "0.03125", "--r", "2",
             "--count", "300", "--seed", "11", "--out", str(stream)]
        ) == 0
        capsys.readouterr()
        opened = []

        class CountingReader(StreamReader):
            def __init__(self, path):
                opened.append(path)
                super().__init__(path)

        # learn opens its stream once: it trains on the reader's records and
        # reports agreement on a second pass over the same reader
        monkeypatch.setattr(cli, "StreamReader", CountingReader)
        h_path = tmp_path / "learned.hs"
        code, out, _ = _run(
            capsys,
            ["learn", "--stream", str(stream), "--epochs", "2", "--seed", "0",
             "--out", str(h_path)],
        )
        assert code == 0
        recs = {r.check_id: r for r in _check_lines(out)}
        assert recs["learn.negation-identity"].status == "pass"
        assert recs["learn.train-agreement"].status == "exploratory"
        assert opened == [str(stream)]
        h = read_halfspace(str(h_path))
        assert (h.rows, h.cols) == (12, 2)

    def test_learn_may_overwrite_its_stream(self, capsys, tmp_path):
        # the halfspace is written after both passes over the stream
        stream = tmp_path / "train.stream"
        assert main(["sample", *GADGET, "--gamma", "0.03125", "--r", "2", "--count", "300",
                     "--seed", "11", "--out", str(stream)]) == 0
        capsys.readouterr()
        code, _, err = _run(capsys, ["learn", "--stream", str(stream), "--epochs", "2",
                                     "--out", str(stream)])
        assert code == 0 and err == ""
        assert (read_halfspace(str(stream)).rows, read_halfspace(str(stream)).cols) == (12, 2)

    def test_decode_recovers_the_planted_labeling(self, capsys, tmp_path):
        inst_path = tmp_path / "u.lc"
        lab_path = tmp_path / "u.lab"
        assert main(
            ["gen-lc", "--kind", "unique", "--vertices", "10", "--edges", "8",
             "--k", "3", "--r", "4", "--seed", "7",
             "--out", str(inst_path), "--labeling", str(lab_path)]
        ) == 0
        capsys.readouterr()
        lab = read_labeling(str(lab_path))
        h_path = tmp_path / "planted.hs"
        write_halfspace(planted_disjunction(lab).as_halfspace(), str(h_path))
        decoded_path = tmp_path / "decoded.lab"
        code, out, _ = _run(
            capsys,
            ["decode", "--halfspace", str(h_path), "--instance", str(inst_path),
             "--t", "1", "--trials", "4", "--seed", "2",
             "--labeling", str(lab_path), "--expect-full",
             "--out", str(decoded_path)],
        )
        assert code == 0
        recs = {r.check_id: r for r in _check_lines(out)}
        assert recs["decode.weak-rate"].status == "pass"
        assert recs["decode.weak-rate"].statistic == 1.0
        assert recs["decode.matches-planted"].status == "pass"
        decoded = read_labeling(str(decoded_path))
        assert np.array_equal(decoded.assignment, lab.assignment)


class TestChunkSize:
    """Stream commands give the same bytes and stdout whatever the cell
    budget per chunk: every row owns its counter addresses."""

    @pytest.fixture(scope="class")
    def unique(self, tmp_path_factory):
        path = str(tmp_path_factory.mktemp("unique") / "u.lc")
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["gen-lc", "--kind", "unique", "--vertices", "5", "--edges", "6",
                         "--k", "3", "--r", "4", "--seed", "2", "--out", path]) == 0
        return path

    def _runs(self, capsys, tmp_path, monkeypatch, argv, width, budgets):
        """(exit code, stdout, stderr, output files) of argv under each budget,
        in rows of `width` bits per chunk (None: the default budget)."""
        runs = []
        for rows in budgets:
            if rows is not None:
                monkeypatch.setattr(core, "CHUNK_CELLS", rows * width)
            work = tmp_path / str(rows)
            work.mkdir()
            monkeypatch.chdir(work)
            code, out, err = _run(capsys, argv)
            runs.append((code, out, err, sorted((p.name, p.read_bytes()) for p in work.iterdir())))
        return runs

    @pytest.mark.parametrize("command", ["sample", "reduce-projection", "reduce-unique",
                                         "dict-test", "verify-spread", "verify-small-ball"])
    def test_samplers_ignore_the_chunk_size(self, capsys, tmp_path, monkeypatch, inputs,
                                            unique, command):
        reduce = ["reduce", "--k", "3", "--eps", "0.5", "--p", "0.25", "--gamma", "0.25",
                  "--completeness-only", "--count", "30", "--seed", "9", "--out", "o.bin"]
        argv, width = {
            "sample": (["sample", *GADGET, "--gamma", "0.03125", "--r", "2", "--count", "30",
                        "--seed", "5", "--out", "o.bin"], 24),
            "reduce-projection": ([*reduce, "--instance", inputs["p.lc"]], 20),
            "reduce-unique": ([*reduce, "--instance", unique], 20),
            "dict-test": (["dict-test", *GADGET, "--gamma", "0.03125", "--r", "1",
                           "--samples", "30", "--seed", "3"], 12),
            # tau 0.5: 17 coordinates a vector
            "verify-spread": (["verify", "spread", "--cases", "2", "--tau", "0.5",
                               "--trials", "300", "--seed", "7", "--records", "o.rec"], 17),
            "verify-small-ball": (["verify", "small-ball", "--cases", "3", "--t", "8",
                                   "--trials", "300", "--seed", "7", "--records", "o.rec"], 8),
        }[command]
        runs = self._runs(capsys, tmp_path, monkeypatch, argv, width, (None, 1, 7))
        assert runs[0][0] == 0 and runs[0][1]
        assert runs[1] == runs[0] and runs[2] == runs[0]

    @pytest.mark.parametrize("schedule", [[], ["--rate", "0.3", "--schedule", "inverse"]])
    def test_learn_ignores_the_chunk_size(self, capsys, tmp_path, monkeypatch, schedule):
        # 12 x 3 = 36 bits a row, not a multiple of 8
        stream = str(tmp_path / "train.bin")
        assert main(["sample", *GADGET, "--gamma", "0.03125", "--r", "3", "--count", "300",
                     "--seed", "5", "--out", stream]) == 0
        capsys.readouterr()
        argv = ["learn", "--stream", stream, "--epochs", "3", "--out", "h.hs", *schedule]
        runs = self._runs(capsys, tmp_path, monkeypatch, argv, 36, (None, 7))
        assert runs[0][0] == 0 and runs[0][3][0][0] == "h.hs"
        assert runs[1] == runs[0]


class TestReportFolding:
    def test_fold_exit_codes(self, capsys, tmp_path):
        ok_path = tmp_path / "ok.report"
        bad_path = tmp_path / "bad.report"
        _write_records(
            [make_record("a", {"k": 1}, 0.0, "<= 1", True),
             make_record("b", {}, 0.5, "reported", None)],
            str(ok_path),
        )
        _write_records([make_record("c", {}, 2.0, "<= 1", False)], str(bad_path))
        code, out, _ = _run(capsys, ["report", str(ok_path)])
        assert code == 0
        assert out.splitlines()[-1].endswith("OK")
        code, out, _ = _run(capsys, ["report", str(ok_path), str(bad_path)])
        assert code == 1
        assert out.splitlines()[-1].endswith("FAIL")
        assert len(_check_lines(out)) == 3


class TestConfigFile:
    def test_config_fills_missing_values(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"k": 12, "eps": "0.82", "p": "0.25"}))
        code, out, _ = _run(capsys, ["verify", "moments", "--config", str(cfg)])
        assert code == 0
        assert "OK" in out.splitlines()[-1]

    def test_explicit_flags_win(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"k": 64, "eps": "paper", "p": "paper"}))
        code, _, err = _run(
            capsys,
            ["verify", "moments", "--config", str(cfg), "--k", "12",
             "--eps", "0.82", "--p", "0.25"],
        )
        assert code == 0
        assert err == ""

    def test_bad_config_files(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = _run(
            capsys, ["verify", "moments", *GADGET, "--config", str(bad)]
        )
        assert code == 2
        assert "not valid JSON" in err
        lst = tmp_path / "list.json"
        lst.write_text("[1, 2]")
        code, _, err = _run(
            capsys, ["verify", "moments", *GADGET, "--config", str(lst)]
        )
        assert code == 2
        assert "JSON object" in err
        code, _, err = _run(
            capsys,
            ["verify", "moments", *GADGET, "--config", str(tmp_path / "none.json")],
        )
        assert code == 2
        assert "cannot read" in err


class TestHostileInput:
    @pytest.mark.parametrize("route", ["argv", "config"])
    @pytest.mark.parametrize("tau", ["1e-200", "1e-4"])
    def test_spread_tau_has_a_floor(self, capsys, tmp_path, monkeypatch, route, tau):
        # a case's vector has ceil((2/tau)^2) + 1 coordinates: 1e-4 would ask
        # for 4e8 of them, and 1e-200 overflows
        monkeypatch.chdir(tmp_path)
        argv = ["verify", "spread", "--cases", "1", "--trials", "10", "--seed", "1"]
        if route == "argv":
            argv += ["--tau", tau]
        else:
            (tmp_path / "c.json").write_text(json.dumps({"tau": float(tau)}))
            argv += ["--config", "c.json"]
        code, out, err = _run(capsys, argv)
        assert code == 2 and out == ""
        assert err.startswith("error: --tau must be in [0.01, 1]") and err.count("\n") == 1

    @pytest.mark.parametrize("route", ["argv", "config"])
    @pytest.mark.parametrize("text", ["1e-999999999", "1E+999999999", "0.5e-401"])
    def test_rational_exponents_are_bounded(self, capsys, tmp_path, monkeypatch, route, text):
        # Fraction(text) costs the square of the exponent: these would hang
        monkeypatch.chdir(tmp_path)
        argv = ["verify", "moments", "--k", "16", "--p", "0.25"]
        if route == "argv":
            argv += ["--eps", text]
        else:
            (tmp_path / "c.json").write_text(json.dumps({"eps": text}))
            argv += ["--config", "c.json"]
        start = time.perf_counter()
        code, out, err = _run(capsys, argv)
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == ""
        assert err.startswith("error: --eps must be ") and err.count("\n") == 1

    @pytest.fixture
    def instance(self, capsys, tmp_path):
        path = tmp_path / "p.lc"
        assert main(
            ["gen-lc", "--kind", "projection", "--vertices", "5", "--edges", "6",
             "--k", "3", "--m", "4", "--n", "2", "--d", "2", "--seed", "2",
             "--out", str(path)]
        ) == 0
        capsys.readouterr()
        return path

    @pytest.mark.parametrize("command", ["sample", "reduce", "dict-test"])
    @pytest.mark.parametrize(
        "flag, value",
        [("count", "-5"), ("seed", "-3"), ("seed", str(2**64)),
         ("seed", "99999999999999999999999"), ("k", "0"), ("k", "-1")],
    )
    def test_out_of_range_counts_and_seeds(self, capsys, tmp_path, instance,
                                           command, flag, value):
        out = tmp_path / "x.stream"
        argv = {
            "sample": ["sample", *GADGET, "--r", "2", "--count", "8", "--seed", "1",
                       "--out", str(out)],
            "reduce": ["reduce", "--instance", str(instance), "--k", "3", "--eps", "0.5",
                       "--p", "0.25", "--completeness-only", "--count", "8",
                       "--seed", "1", "--out", str(out)],
            "dict-test": ["dict-test", *GADGET, "--r", "2", "--samples", "8",
                          "--seed", "1"],
        }[command]
        name = "--samples" if command == "dict-test" and flag == "count" else f"--{flag}"
        argv[argv.index(name) + 1] = value
        code, stdout, err = _run(capsys, argv)
        assert code == 2
        assert stdout == ""
        assert err.startswith("error: " + name) and err.count("\n") == 1
        assert list(tmp_path.glob("x.stream*")) == []

    @pytest.mark.parametrize(
        "argv, flag, value",
        [
            (["verify", "critical-index"], "count", "0"),
            (["verify", "critical-index"], "count", "-5"),
            (["verify", "critical-index"], "dim", "-3"),
            (["verify", "critical-index"], "tau", "0"),
            (["verify", "critical-index"], "tau", "1.5"),
            (["verify", "spread", "--seed", "1"], "cases", "0"),
            (["verify", "spread", "--seed", "1"], "cases", "-2"),
            (["verify", "spread", "--seed", "1"], "trials", "0"),
            (["verify", "spread", "--seed", "1"], "gamma", "0"),
            (["verify", "spread", "--seed", "1"], "tau", "0"),
            (["verify", "small-ball", "--seed", "1"], "cases", "0"),
            (["verify", "small-ball", "--seed", "1"], "t", "0"),
            (["verify", "small-ball", "--seed", "1"], "gamma", "0"),
            (["verify", "small-ball", "--seed", "1"], "trials", "0"),
            (["verify", "invariance"], "families", "0"),
            (["verify", "invariance"], "r", "0"),
            (["sample", *GADGET, "--count", "8", "--seed", "1", "--out", "x.stream"], "r", "0"),
            (["sample", *GADGET, "--count", "8", "--seed", "1", "--out", "x.stream"],
             "stream-id", "-1"),
            (["verify", "moments", "--eps", "0.82"], "k", "0"),
            (["verify", "smoothness", "--instance", "i.lc"], "j", "0"),
            (["verify", "smoothness", "--instance", "i.lc"], "j", "-2"),
            (["verify", "niceness", "--instance", "i.lc", "--d", "2"], "j", "0"),
            (["verify", "niceness", "--instance", "i.lc", "--d", "2"], "j", "-2"),
        ],
    )
    def test_zero_and_negative_flags_are_usage_errors(self, capsys, tmp_path, monkeypatch,
                                                      argv, flag, value):
        # an explicit 0 is a value, not "unset": it must not fall back to the default
        monkeypatch.chdir(tmp_path)
        code, stdout, err = _run(capsys, [*argv, f"--{flag}", value])
        assert code == 2
        assert stdout == ""
        assert err.startswith(f"error: --{flag} must be ") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "flag, value", [("epochs", "0"), ("rate", "0"), ("rate", "-1")]
    )
    def test_learn_flags_out_of_range(self, capsys, tmp_path, flag, value):
        stream = tmp_path / "s.stream"
        assert main(["sample", *GADGET, "--r", "2", "--count", "8", "--seed", "1",
                     "--out", str(stream)]) == 0
        capsys.readouterr()
        code, _, err = _run(capsys, ["learn", "--stream", str(stream), f"--{flag}", value])
        assert code == 2
        assert err.startswith(f"error: --{flag} must be ")

    @pytest.mark.parametrize(
        "flag, value", [("t", "0"), ("tau", "0"), ("trials", "0")]
    )
    def test_decode_flags_out_of_range(self, capsys, tmp_path, instance, flag, value):
        h_path = tmp_path / "h.hs"
        write_halfspace(Halfspace.from_grid(np.ones((5, 4)), 1.0), str(h_path))
        code, _, err = _run(
            capsys,
            ["decode", "--halfspace", str(h_path), "--instance", str(instance),
             "--seed", "1", f"--{flag}", value],
        )
        assert code == 2
        assert err.startswith(f"error: --{flag} must be ")

    def test_halfspace_record_without_cols(self, capsys, tmp_path, instance):
        h_path = tmp_path / "bad.hs"
        write_halfspace(Halfspace.from_grid(np.ones((5, 4)), 1.0), str(h_path))
        h_path.write_text(
            "".join(ln for ln in h_path.read_text().splitlines(True)
                    if not ln.startswith("cols"))
        )
        for argv in (
            ["decode", "--halfspace", str(h_path), "--instance", str(instance),
             "--seed", "1"],
            ["verify", "niceness", "--instance", str(instance),
             "--halfspace", str(h_path), "--tau", "0.5"],
        ):
            code, _, err = _run(capsys, argv)
            assert code == 2
            assert err.startswith("error:") and "cols" in err
            assert err.count("\n") == 1

    @pytest.mark.parametrize("content, names", [
        (b"check\ta\tb=1,c\t1\tx\tpass\n", ["line 1", "'c' has no '='"]),
        (b"# echo\n\ncheck\ta\tb=1\tzz\tx\tpass\n", ["line 3", "'zz'"]),
        (b"check\ta\tb=1\t1\tx\tpass\n\xff\n", ["not UTF-8"]),
    ])
    def test_bad_record_line_names_file_and_line(self, capsys, tmp_path, content, names):
        path = tmp_path / "r.rec"
        path.write_bytes(content)
        code, stdout, err = _run(capsys, ["report", str(path)])
        assert code == 2
        assert stdout == ""
        assert err.startswith(f"error: record file {path}") and err.count("\n") == 1
        assert all(name in err for name in names)

    @pytest.mark.parametrize("content, names", [
        (b"GLHS-HS 1\nrows 1\ncols 2\ntheta 0\nweights 1 inf\n", ["finite"]),
        (b"GLHS-HS 1\nrows 1\ncols 1\ntheta 0\nweights 1 2\n", ["1x1"]),
        (b"\xffGLHS-HS 1\n", ["utf-8"]),
    ])
    def test_bad_halfspace_names_the_file(self, capsys, tmp_path, instance, content, names):
        path = tmp_path / "h.hs"
        path.write_bytes(content)
        code, _, err = _run(capsys, ["verify", "niceness", "--instance", str(instance),
                                     "--halfspace", str(path), "--tau", "0.5"])
        assert code == 2
        assert err.startswith(f"error: halfspace record {path}: ") and err.count("\n") == 1
        assert all(name in err for name in names)

    def test_stream_metadata_that_is_not_utf8(self, capsys, tmp_path):
        path = tmp_path / "s.bin"
        path.write_bytes(_V1_STREAM.replace(b"meta", b"\xffeta"))
        code, _, err = _run(capsys, ["learn", "--stream", str(path), "--epochs", "1"])
        assert code == 2
        assert err.startswith(f"error: stream {path}: header metadata is not UTF-8")

    @pytest.mark.parametrize("command", ["niceness", "decode", "reduce"])
    def test_instance_without_edges(self, capsys, tmp_path, command):
        inst, hs, out = (str(tmp_path / name) for name in ("e.lc", "h.hs", "out"))
        write_instance(
            LabelCoverInstance(k=2, num_vertices=3, m=2, n=2,
                               edges=np.zeros((0, 2), np.int32),
                               projections=np.zeros((0, 2, 2), np.int32)),
            inst,
        )
        write_halfspace(Halfspace.from_grid(np.ones((3, 2)), 0.0), hs)
        code, stdout, err = _run(capsys, {
            "niceness": ["verify", "niceness", "--instance", inst, "--halfspace", hs,
                         "--tau", "0.5"],
            "decode": ["decode", "--halfspace", hs, "--instance", inst, "--seed", "1",
                       "--out", out],
            "reduce": ["reduce", "--instance", inst, "--k", "2", "--eps", "0.5", "--p",
                       "0.25", "--completeness-only", "--count", "8", "--seed", "1",
                       "--out", out],
        }[command])
        assert code == 2
        assert stdout == ""
        assert err.startswith("error:") and "edge" in err and err.count("\n") == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["e.lc", "h.hs"]

    @given(st.dictionaries(
        st.sampled_from(["k", "r", "eps", "p", "gamma", "seed", "stream-id"]),
        st.one_of(st.none(), st.booleans(), st.integers(-3, 40), st.floats(-50, 50),
                  st.sampled_from([2**64, -(2**70), math.inf, -math.inf, math.nan,
                                   "paper", "abc", "3", "1e999", "nan"])),
    ))
    @settings(max_examples=60, deadline=None)
    def test_reduce_config_scalars_never_trace_back(self, tmp_path_factory, overrides):
        # any JSON scalar for a flag the config may fill gives a clean exit
        # code, one error line on exit 2, and no temporary or partial output;
        # --count stays on the command line so no draw can ask for a huge stream
        work = tmp_path_factory.mktemp("cfg")
        assert main(
            ["gen-lc", "--kind", "projection", "--vertices", "5", "--edges", "6",
             "--k", "3", "--m", "4", "--n", "2", "--d", "2", "--seed", "2",
             "--out", str(work / "p.lc")]
        ) == 0
        config = {"k": 3, "eps": "0.5", "p": "0.25", "seed": 1, **overrides}
        (work / "c.json").write_text(json.dumps(config))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["reduce", "--instance", str(work / "p.lc"), "--completeness-only",
                         "--count", "8", "--config", str(work / "c.json"),
                         "--out", str(work / "x.stream")])
        assert code in (0, 1, 2)
        assert code != 2 or (err.getvalue().startswith("error: ")
                             and err.getvalue().count("\n") == 1)
        assert list(work.glob("*.tmp")) == []
        assert (work / "x.stream").exists() == (code != 2)

    @pytest.mark.parametrize("value", [[1, 2], {"a": 1}])
    def test_config_value_that_is_not_a_scalar(self, capsys, tmp_path, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"k": value, "eps": "0.82", "p": "0.25"}))
        code, _, err = _run(capsys, ["verify", "moments", "--config", str(cfg)])
        assert code == 2
        assert err.startswith("error:") and "'k'" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command", ["dict-test", "sample", "learn", "learn-out",
                                         "gen-lc", "gen-lc-labeling", "decode"])
    def test_output_that_cannot_be_created_fails_before_the_work(self, capsys, tmp_path,
                                                                  monkeypatch, inputs,
                                                                  command):
        stream = tmp_path / "s.bin"
        assert main(["sample", *GADGET, "--r", "2", "--count", "40", "--seed", "1",
                     "--out", str(stream)]) == 0
        bad = str(tmp_path / "nodir" / "x")
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        argv = {
            "dict-test": ["dict-test", *GADGET, "--r", "2", "--samples", "50", "--seed", "1",
                          "--records", bad],
            "sample": ["sample", *GADGET, "--r", "2", "--count", "8", "--seed", "1",
                       "--out", "o.bin", "--records", bad],
            "learn": ["learn", "--stream", str(stream), "--records", bad],
            "learn-out": ["learn", "--stream", str(stream), "--out", bad],
            "gen-lc": [*_GEN_LC, "--out", bad],
            "gen-lc-labeling": [*_GEN_LC, "--out", "ok.lc", "--labeling", bad],
            "decode": ["decode", "--halfspace", inputs["p.hs"], "--instance", inputs["p.lc"],
                       "--seed", "1", "--out", bad],
        }[command]
        for work_fn in ("run_experiment", "write_dict_test_stream", "perceptron_train",
                        "gen_planted_projection", "weak_sat_rate_of_decoder"):
            monkeypatch.setattr(cli, work_fn, lambda *a, **k: pytest.fail("the work started"))
        before = sorted(p.name for p in tmp_path.iterdir())
        capsys.readouterr()
        code, out, err = _run(capsys, argv)
        assert code == 2
        assert err == f"error: missing file: {bad}\n"
        assert out == ""  # no check line: the run never started
        assert sorted(p.name for p in tmp_path.iterdir()) == before
        assert list(work.iterdir()) == []

    @pytest.mark.parametrize("command", ["gen-lc", "decode"])
    def test_output_naming_a_directory_fails_before_the_work(self, capsys, tmp_path,
                                                              monkeypatch, inputs, command):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "adir").mkdir()
        argv = {
            "gen-lc": [*_GEN_LC, "--out", "adir"],
            "decode": ["decode", "--halfspace", inputs["p.hs"], "--instance", inputs["p.lc"],
                       "--seed", "1", "--out", "adir"],
        }[command]
        for work_fn in ("gen_planted_projection", "weak_sat_rate_of_decoder"):
            monkeypatch.setattr(cli, work_fn, lambda *a, **k: pytest.fail("the work started"))
        code, out, err = _run(capsys, argv)
        assert code == 2
        assert err.startswith("error:") and "Is a directory" in err and err.count("\n") == 1
        assert out == ""
        assert [p.name for p in tmp_path.iterdir()] == ["adir"]
        assert list((tmp_path / "adir").iterdir()) == []

    @pytest.mark.parametrize("command", ["gen-lc", "decode"])
    def test_failing_input_or_second_output_leaves_no_output(self, capsys, tmp_path,
                                                             monkeypatch, inputs, command):
        # gen-lc's --labeling cannot be created, decode's planted --labeling
        # cannot be read: the run exits 2 and leaves neither --out nor a
        # temporary behind
        monkeypatch.chdir(tmp_path)
        missing = str(tmp_path / "nodir" / "l.lab")
        argv = {
            "gen-lc": [*_GEN_LC, "--out", "ok.lc", "--labeling", missing],
            "decode": ["decode", "--halfspace", inputs["p.hs"], "--instance", inputs["p.lc"],
                       "--seed", "1", "--out", "ok.lab", "--labeling", missing],
        }[command]
        code, out, err = _run(capsys, argv)
        assert code == 2
        assert err == f"error: missing file: {missing}\n"
        assert out == ""
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["sample", "learn"])
    def test_out_and_records_naming_one_file(self, capsys, tmp_path, command):
        # both outputs are open at once; each has its own temporary file and
        # the records, committed last, are what the path holds
        stream, both = str(tmp_path / "s.bin"), str(tmp_path / "both")
        assert main(["sample", *GADGET, "--r", "2", "--count", "40", "--seed", "1",
                     "--out", stream]) == 0
        argv = {
            "sample": ["sample", *GADGET, "--r", "2", "--count", "8", "--seed", "1"],
            "learn": ["learn", "--stream", stream],
        }[command]
        capsys.readouterr()
        code, out, _ = _run(capsys, [*argv, "--out", both, "--records", both])
        assert code == 0
        assert [rec.line() for rec in read_records(both)] == [
            ln for ln in out.splitlines() if ln.startswith("check\t")
        ]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["both", "s.bin"]

    def test_stream_into_missing_directory_names_the_target(self, capsys, tmp_path):
        out = tmp_path / "nodir" / "x.stream"
        code, _, err = _run(
            capsys,
            ["sample", *GADGET, "--r", "2", "--count", "8", "--seed", "1", "--out", str(out)],
        )
        assert code == 2
        assert err == f"error: missing file: {out}\n"

    @pytest.mark.parametrize("kind", ["hs", "lc", "lab", "cli-records"])
    def test_failed_write_keeps_the_previous_file(self, capsys, tmp_path, monkeypatch,
                                                  instance, kind):
        inst = read_instance(str(instance))
        path = tmp_path / f"out.{kind}"
        path.write_text("previous\n")
        write = {
            "hs": lambda p: write_halfspace(Halfspace.from_grid(np.ones((2, 3)), 1.0), p),
            "lc": lambda p: write_instance(inst, p),
            "lab": lambda p: write_labeling(Labeling(np.array([0, 1, 0]), 4), p),
            "cli-records": lambda p: main(
                ["verify", "moments", *GADGET, "--records", p]
            ),
        }[kind]

        class DiskFull:
            """Writes half of the first text it gets, then fails."""

            def __init__(self, fh):
                self.fh = fh

            def write(self, text):
                self.fh.write(text[: len(text) // 2])
                raise OSError(28, "No space left on device")

        enter = AtomicFile.__enter__
        monkeypatch.setattr(AtomicFile, "__enter__", lambda self: DiskFull(enter(self)))
        if kind == "cli-records":
            assert write(str(path)) == 2
            assert "No space left" in capsys.readouterr().err
        else:
            with pytest.raises(OSError, match="No space left"):
                write(str(path))
        assert path.read_text() == "previous\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out." + kind, "p.lc"]


# ---------------------------------------------------------------------------
# tests generated from the flag table


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """An instance, its planted labeling, a matching halfspace and a stream."""
    work = tmp_path_factory.mktemp("inputs")
    paths = {name: str(work / name) for name in ("p.lc", "p.lab", "p.hs", "s.bin")}
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["gen-lc", "--kind", "projection", "--vertices", "5", "--edges", "6",
                     "--k", "3", "--m", "4", "--n", "2", "--d", "2", "--seed", "2",
                     "--out", paths["p.lc"], "--labeling", paths["p.lab"]]) == 0
        assert main(["sample", *GADGET, "--r", "2", "--count", "16", "--seed", "1",
                     "--out", paths["s.bin"]]) == 0
    write_halfspace(Halfspace.from_grid(np.ones((5, 4)), 1.0), paths["p.hs"])
    return paths


def _base(inputs):
    """A small valid argv per subcommand; outputs go to the working directory."""
    lc, lab, hs, stream = (inputs[name] for name in ("p.lc", "p.lab", "p.hs", "s.bin"))
    return {
        "gen-lc": ["--kind", "projection", "--vertices", "5", "--edges", "6", "--k", "3",
                   "--m", "4", "--n", "2", "--d", "2", "--r", "2", "--w-vertices", "2",
                   "--degree", "2", "--seed", "1", "--out", "out.lc", "--labeling", "out.lab"],
        "sample": [*GADGET, "--r", "2", "--count", "8", "--seed", "1", "--out", "out.bin"],
        "reduce": ["--instance", lc, "--k", "3", "--eps", "0.5", "--p", "0.25",
                   "--completeness-only", "--count", "8", "--seed", "1", "--out", "out.bin"],
        "dict-test": [*GADGET, "--r", "1", "--samples", "50", "--seed", "1"],
        "verify moments": GADGET,
        "verify critical-index": ["--count", "20", "--dim", "8"],
        "verify small-ball": ["--cases", "2", "--t", "6", "--trials", "200", "--seed", "1"],
        "verify spread": ["--cases", "1", "--tau", "0.2", "--trials", "200", "--seed", "1"],
        "verify invariance": ["--families", "1", "--r", "2"],
        "verify smoothness": ["--instance", lc],
        "verify niceness": ["--instance", lc, "--halfspace", hs, "--tau", "0.5"],
        "learn": ["--stream", stream, "--epochs", "1", "--out", "out.hs"],
        "decode": ["--halfspace", hs, "--instance", lc, "--t", "1", "--trials", "2",
                   "--seed", "1", "--out", "out.lab", "--labeling", lab],
    }


TABLE = {name: rows for name, (_, _, rows) in _COMMANDS.items()}


def _without(argv, name):
    """argv with --name and its value (if it takes one) removed."""
    if f"--{name}" not in argv:
        return list(argv)
    at = argv.index(f"--{name}")
    takes_value = at + 1 < len(argv) and not argv[at + 1].startswith("--")
    return argv[:at] + argv[at + 1 + takes_value:]


def _bound(text):
    base, _, exp = text.partition("^")
    return Fraction(base) ** int(exp or 1)


def _outside(flag):
    """Values just outside a numeric row's range, plus non-finite values for
    float and rational rows, each as (command-line text, JSON value)."""
    spec = flag.range
    if spec.startswith(("(", "[")):
        lo, hi = (_bound(part) for part in spec[1:-1].split(", "))
        ends = [(lo, spec[0] == "[", -1), (hi, spec[-1] == "]", 1)]
    else:
        op, bound = spec.split()
        ends = [(_bound(bound), op == ">=", -1)]
    values = []
    for bound, closed, side in ends:
        if not closed:
            value = bound
        elif flag.kind == "int":
            value = bound + side
        elif flag.kind == "float":
            value = math.nextafter(float(bound), side * math.inf)
        else:
            value = bound + Fraction(side, 10**9)
        if flag.kind == "int":
            values.append((str(int(value)), int(value)))
        elif flag.kind == "float":
            values.append((repr(float(value)), float(value)))
        else:
            values.append((str(value), str(value)))
    if flag.kind != "int":
        values += [("nan", math.nan), ("inf", math.inf), ("-inf", -math.inf)]
    return values


RANGE_CASES = [
    pytest.param(command, flag, text, value, id=f"{command}--{flag.name}={text}")
    for command, table in TABLE.items()
    for flag in table if flag.range and flag.kind != "choice"
    for text, value in _outside(flag)
]


NICENESS = ["verify", "niceness", "--instance", "p.lc", "--halfspace", "p.hs", "--tau", "0.2"]


class TestFlagTable:
    def test_every_base_argv_runs(self, capsys, tmp_path, monkeypatch, inputs):
        # the argv the generated cases start from is valid, so the flag under
        # test is the only fault in each of them
        monkeypatch.chdir(tmp_path)
        for command, argv in _base(inputs).items():
            code, _, err = _run(capsys, [*command.split(), *argv, "--records", "out.rec"])
            assert code in (0, 1), (command, err)
        assert {p.name for p in tmp_path.iterdir()} == {
            "out.lc", "out.lab", "out.bin", "out.hs", "out.rec"}

    @pytest.mark.parametrize("route", ["argv", "config"])
    @pytest.mark.parametrize("command, flag, text, value", RANGE_CASES)
    def test_out_of_range_values_are_usage_errors(self, capsys, tmp_path, monkeypatch,
                                                  inputs, route, command, flag, text, value):
        monkeypatch.chdir(tmp_path)
        argv = [*command.split(), *_without(_base(inputs)[command], flag.name),
                "--records", "out.rec"]
        if route == "argv":
            argv.append(f"--{flag.name}={text}")  # '=' keeps "-inf" a value
        else:
            (tmp_path / "c.json").write_text(json.dumps({flag.name: value}))
            argv += ["--config", "c.json"]
        code, stdout, err = _run(capsys, argv)
        assert code == 2
        assert stdout == ""
        assert err.startswith(f"error: --{flag.name} must be ") and err.count("\n") == 1
        assert [p.name for p in tmp_path.iterdir()] == (["c.json"] if route == "config" else [])

    @pytest.mark.parametrize("command", sorted(TABLE))
    def test_help_prints_each_range(self, capsys, command):
        with pytest.raises(SystemExit):
            main([*command.split(), "--help"])
        text = " ".join(capsys.readouterr().out.split())
        for flag in TABLE[command]:
            if flag.range:
                assert flag.range in text, flag.name

    @pytest.mark.parametrize("argv, config, flag", [
        # with d = -1 the k*d^16/J bound would read k/J, since (-1)^16 = 1
        pytest.param([*NICENESS, "--j", "10", "--d", "-1"], {}, "d", id="niceness-d-negative"),
        pytest.param([*NICENESS, "--j", "10", "--d", "0"], {}, "d", id="niceness-d-zero"),
        pytest.param(["verify", "smoothness", "--instance", "p.lc", "--d", "-3"], {}, "d",
                     id="smoothness-d"),
        pytest.param(["dict-test", *GADGET, "--samples", "50", "--seed", "1", "--floor", "nan"],
                     {}, "floor", id="floor-nan"),
        pytest.param(["dict-test", *GADGET, "--samples", "50", "--seed", "1",
                      "--gap-bound", "nan"], {}, "gap-bound", id="gap-bound-nan"),
        pytest.param([*NICENESS, "--beta", "nan"], {}, "beta", id="beta-nan"),
        pytest.param([*NICENESS, "--beta", "-5"], {}, "beta", id="beta-negative"),
        # config values of the wrong JSON type
        pytest.param(["dict-test", *GADGET, "--samples", "50", "--seed", "1"],
                     {"floor": "0.5"}, "floor", id="config-floor-string"),
        pytest.param(["learn", "--stream", "s.bin"], {"out": 1}, "out", id="config-out-number"),
        pytest.param(["verify", "smoothness"], {"instance": 0}, "instance",
                     id="config-instance-number"),
        pytest.param(["dict-test", *GADGET, "--samples", "50", "--seed", "1"],
                     {"completeness_only": 1}, "completeness-only", id="config-switch-number"),
        pytest.param(["learn", "--stream", "s.bin"], {"no-average": "yes"}, "no-average",
                     id="config-switch-string"),
        pytest.param(["learn", "--stream", "s.bin"], {"schedule": "cosine"}, "schedule",
                     id="config-choice"),
    ])
    def test_reported_cases_are_usage_errors(self, capsys, tmp_path, monkeypatch, inputs,
                                             argv, config, flag):
        # each value would make a check meaningless or reach a handler
        # untyped; it must stop the run before any output is written
        monkeypatch.chdir(tmp_path)
        argv = [inputs.get(arg, arg) for arg in argv]
        (tmp_path / "c.json").write_text(json.dumps(config))
        code, stdout, err = _run(capsys, [*argv, "--config", "c.json"])
        assert code == 2
        assert stdout == ""
        assert err.startswith(f"error: --{flag} must be ") and err.count("\n") == 1
        assert [p.name for p in tmp_path.iterdir()] == ["c.json"]

    def test_config_switches_are_read(self, capsys, tmp_path, inputs):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"completeness-only": True}))
        code, out, _ = _run(capsys, ["dict-test", *GADGET, "--samples", "50", "--seed", "1",
                                     "--config", str(cfg)])
        assert code == 0
        ids = {r.check_id for r in _check_lines(out)}
        assert ids and not any(i.startswith("soundness") for i in ids)
        cfg.write_text(json.dumps({"no_average": True, "completeness_only": False}))
        code, out, _ = _run(capsys, ["learn", "--stream", inputs["s.bin"], "--epochs", "1",
                                     "--config", str(cfg)])
        assert code == 0
        assert dict(_check_lines(out)[0].params)["averaged"] == "False"

    @pytest.mark.parametrize("command", ["moments", "smoothness", "niceness"])
    def test_unread_seed_is_not_a_flag(self, capsys, command):
        with pytest.raises(SystemExit):
            main(["verify", command, "--seed", "1"])
        assert "unrecognized arguments: --seed" in capsys.readouterr().err

    # flags that size the work stay on the command line, where the base argv
    # sets them, so no draw can ask for a huge run
    SIZING = {
        "gen-lc": ("vertices", "edges", "k", "r", "m", "n", "d", "w-vertices", "degree"),
        "sample": ("count", "k", "r"),
        "reduce": ("count",),
        "dict-test": ("samples", "k", "r"),
        "verify moments": ("k",),
        "verify critical-index": ("count", "dim"),
        "verify small-ball": ("cases", "t", "trials"),
        "verify spread": ("cases", "tau", "trials"),
        "verify invariance": ("families",),
        "learn": ("epochs",),
        "decode": ("t", "trials"),
    }

    @pytest.mark.parametrize("command", [c for c in TABLE if c != "report"])
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_config_scalars_never_trace_back(self, inputs, command, data):
        # any JSON scalar for a flag the config may fill gives a clean exit
        # code, one error line on exit 2, and no temporary file; a drawn flag
        # leaves the base argv so that the config value is the one used
        names = [flag.name for flag in TABLE[command] if flag.required != "argv"
                 and flag.name not in ("config", *self.SIZING.get(command, ()))]
        overrides = data.draw(st.dictionaries(
            st.sampled_from(names),
            st.one_of(st.none(), st.booleans(), st.integers(-3, 40), st.floats(-50, 50),
                      st.sampled_from([2**64, -(2**70), math.inf, -math.inf, math.nan,
                                       "paper", "abc", "3", "1e999", "nan"])),
        ))
        argv = _base(inputs)[command]
        for name in overrides:
            argv = _without(argv, name)
        _assert_clean_exit([*command.split(), *argv, "--config", "c.json"],
                           {"c.json": json.dumps(overrides).encode()})


def _assert_clean_exit(argv, files):
    """main(argv) in a fresh directory holding `files` (name -> bytes) exits
    0, 1 or 2, with one error line on 2, and leaves no temporary file."""
    err, cwd = io.StringIO(), os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        for name, content in files.items():
            (Path(work) / name).write_bytes(content)
        os.chdir(work)
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(argv)
        finally:
            os.chdir(cwd)
        assert not [name for name in os.listdir(work) if name.endswith(".tmp")]
    assert code in (0, 1, 2)
    assert code != 2 or (err.getvalue().startswith("error: ")
                         and err.getvalue().count("\n") == 1)


def _hostile(good: bytes, other: bytes):
    """Truncations, byte overwrites and splices of a valid file: `good`
    spliced with itself or with `other`, a valid file of another shape."""
    return st.one_of(
        st.integers(0, len(good) - 1).map(lambda n: good[:n]),
        st.lists(st.tuples(st.integers(0, len(good) - 1), st.integers(0, 255)),
                 min_size=1, max_size=6).map(
            lambda edits: bytes(
                dict(edits).get(i, byte) for i, byte in enumerate(good))),
        st.tuples(st.sampled_from([good, other]), st.integers(0, len(good)),
                  st.integers(0, len(other))).map(
            lambda s: good[:s[1]] + s[0][min(s[2], len(s[0])):]),
    )


# a version-1 GLHS stream: 2 rows x 3 cols, 2 examples, metadata "meta"
_V1_STREAM = (
    struct.pack("<4sBIIBQI", b"GLHS", 1, 2, 3, 0, 2, 4) + b"meta"
    + bytes([0b101010, 1, 0b010101, 0])
)


def _read_whole_stream(path: str) -> list:
    return list(StreamReader(path).read_batches(3))


def _read_stream_records(path: str) -> None:
    """`read_records` of a stream that parses holds what `read_batches` yields,
    packed, and no set bit past a row."""
    reader = StreamReader(path)
    packed, labels = reader.read_records()
    dim = reader.header.bits_per_example
    batches = list(reader.read_batches(3))
    bits = np.concatenate([b for b, _ in batches]) if batches else np.zeros((0, dim), np.uint8)
    unpacked = np.unpackbits(packed, axis=1, bitorder="little")
    assert np.array_equal(unpacked[:, :dim], bits)
    assert not unpacked[:, dim:].any()
    assert labels.tolist() == [x for _, lab in batches for x in lab.tolist()]


def _parses_or_format_error(parse, content: bytes) -> None:
    """parse(path) of a file holding `content` succeeds or raises a
    FormatError that names the path."""
    with tempfile.TemporaryDirectory() as work:
        path = os.path.join(work, "f")
        Path(path).write_bytes(content)
        try:
            parse(path)
        except FormatError as exc:
            assert path in str(exc)


class TestHostileFiles:
    """Damaged inputs end in exit 0, 1 or 2 with no traceback (main raises
    nothing) and leave no temporary file."""

    @pytest.fixture(scope="class")
    def files(self, tmp_path_factory):
        work = tmp_path_factory.mktemp("hostile")
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["gen-lc", "--kind", "projection", "--vertices", "5", "--edges", "6",
                         "--k", "3", "--m", "4", "--n", "2", "--d", "2", "--seed", "2",
                         "--out", str(work / "p.lc")]) == 0
            for name, r, count in (("a.bin", "2", "12"), ("b.bin", "3", "5")):
                assert main(["sample", *GADGET, "--r", r, "--count", count, "--seed", "1",
                             "--out", str(work / name), "--records", str(work / f"{name}.rec")]
                            ) == 0
        write_halfspace(Halfspace.from_grid(np.linspace(-1, 1, 20).reshape(5, 4), 0.5),
                        str(work / "a.hs"))
        write_halfspace(Halfspace.from_grid(np.ones((2, 3)), 1.0), str(work / "b.hs"))
        return {p.name: p.read_bytes() for p in work.iterdir()}, str(work / "p.lc")

    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_stream_through_learn(self, files, data):
        blobs, _ = files
        content = data.draw(_hostile(blobs["a.bin"], blobs["b.bin"]))
        _assert_clean_exit(["learn", "--stream", "s.bin", "--epochs", "1", "--out", "h.hs"],
                           {"s.bin": content})

    @given(data=st.data(), command=st.sampled_from(["decode", "niceness"]))
    @settings(max_examples=100, deadline=None)
    def test_halfspace_through_decode_and_niceness(self, files, data, command):
        blobs, instance = files
        content = data.draw(_hostile(blobs["a.hs"], blobs["b.hs"]))
        argv = {
            "decode": ["decode", "--halfspace", "h.hs", "--instance", instance, "--seed", "1",
                       "--trials", "2", "--out", "out.lab"],
            "niceness": ["verify", "niceness", "--halfspace", "h.hs", "--instance", instance,
                         "--tau", "0.5"],
        }[command]
        _assert_clean_exit(argv, {"h.hs": content})

    def test_version_one_seed_is_valid(self, tmp_path):
        (tmp_path / "v1.bin").write_bytes(_V1_STREAM)
        [(bits, labels)] = _read_whole_stream(str(tmp_path / "v1.bin"))
        assert bits.tolist() == [[0, 1, 0, 1, 0, 1], [1, 0, 1, 0, 1, 0]]
        assert labels.tolist() == [1, 0]

    @given(data=st.data(), seed=st.sampled_from(["a.bin", "v1"]))
    @settings(max_examples=300, deadline=None)
    def test_stream_reader_parses_or_raises_format_error(self, files, data, seed):
        blobs, _ = files
        good = _V1_STREAM if seed == "v1" else blobs["a.bin"]
        content = data.draw(_hostile(good, blobs["b.bin"]))
        _parses_or_format_error(_read_whole_stream, content)

    @given(data=st.data(), seed=st.sampled_from(["a.bin", "v1"]))
    @settings(max_examples=150, deadline=None)
    def test_stream_records_parse_or_raise_format_error(self, files, data, seed):
        blobs, _ = files
        good = _V1_STREAM if seed == "v1" else blobs["a.bin"]
        content = data.draw(_hostile(good, blobs["b.bin"]))
        _parses_or_format_error(_read_stream_records, content)

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_halfspace_reader_parses_or_raises_format_error(self, files, data):
        blobs, _ = files
        _parses_or_format_error(read_halfspace, data.draw(_hostile(blobs["a.hs"], blobs["b.hs"])))

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_record_reader_parses_or_raises_format_error(self, files, data):
        blobs, _ = files
        content = data.draw(_hostile(blobs["a.bin.rec"], blobs["b.bin.rec"]))
        # a parsed record must print again, as `report` prints it
        _parses_or_format_error(lambda p: [rec.line() for rec in read_records(p)], content)

    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_records_through_report(self, files, data):
        blobs, _ = files
        content = data.draw(_hostile(blobs["a.bin.rec"], blobs["b.bin.rec"]))
        _assert_clean_exit(["report", "r.rec", "r.rec"], {"r.rec": content})
