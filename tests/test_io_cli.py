"""Tests for the JSON tuple format and the command line front end."""

import json

import numpy as np
import pytest

from defectseq.cli import main
from defectseq.errors import TupleFormatError
from defectseq.io import (
    TUPLE_FORMAT,
    TUPLE_FORMAT_VERSION,
    payload_to_tuple,
    read_tuple,
    report_json,
    tuple_to_payload,
    write_tuple,
)
from defectseq.models import random_contractive
from defectseq.tuples import OperatorTuple


def sample_tuple(seed=0, d=2, h=4):
    return random_contractive(d, h, 1, seed)


class TestTuplePayload:
    def test_payload_shape(self):
        T = sample_tuple()
        p = tuple_to_payload(T)
        assert p["format"] == TUPLE_FORMAT
        assert p["version"] == TUPLE_FORMAT_VERSION
        assert p["d"] == 2 and p["dim"] == 4
        arr = np.asarray(p["ops"])
        assert arr.shape == (2, 4, 4, 2)

    def test_round_trip_is_bit_exact(self):
        for seed in range(5):
            T = sample_tuple(seed, d=int(1 + seed % 3), h=3 + seed)
            back = payload_to_tuple(
                json.loads(json.dumps(tuple_to_payload(T))))
            assert back.d == T.d and back.h == T.h
            for x, y in zip(T.ops, back.ops):
                assert np.array_equal(x, y)

    def test_label_survives(self):
        T = sample_tuple().relabel("example input")
        back = payload_to_tuple(tuple_to_payload(T))
        assert back.label == "example input"

    def test_file_round_trip(self, tmp_path):
        T = sample_tuple(3)
        path = tmp_path / "t.json"
        write_tuple(T, path)
        back = read_tuple(path)
        assert all(np.array_equal(x, y) for x, y in zip(T.ops, back.ops))

    def test_negative_zero_imaginary_part_survives(self, tmp_path):
        # The -0.0 keeps the tuple complex; reading must not clear it.
        T = OperatorTuple((np.array([[complex(0.25, -0.0), 0.5],
                                     [0.0, 0.25]]),))
        assert T.dtype == np.complex128
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        write_tuple(T, first)
        back = read_tuple(first)
        assert back.dtype == np.complex128
        assert np.signbit(back.ops[0][0, 0].imag)
        assert np.array_equal(back.ops[0].view(np.uint64),
                              T.ops[0].view(np.uint64))
        write_tuple(back, second)
        assert first.read_bytes() == second.read_bytes()

    @pytest.mark.parametrize("mangle", [
        lambda p: p.update(format="something-else"),
        lambda p: p.update(version=99),
        lambda p: p.update(d=3),
        lambda p: p.update(dim="4"),
        lambda p: p.update(dim=True),
        lambda p: p.update(ops=[[[1.0, 2.0]]]),
        lambda p: p.update(ops="nope"),
        lambda p: p.update(meta=[1, 2]),
        lambda p: p.pop("ops"),
    ])
    def test_malformed_payloads_rejected(self, mangle):
        p = tuple_to_payload(sample_tuple())
        mangle(p)
        with pytest.raises(TupleFormatError):
            payload_to_tuple(p)

    def test_nonfinite_entries_rejected(self):
        p = tuple_to_payload(sample_tuple())
        p["ops"][0][0][0][0] = float("inf")
        with pytest.raises(TupleFormatError):
            payload_to_tuple(p)

    def test_bad_json_file_rejected(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(TupleFormatError):
            read_tuple(path)


class TestReportJson:
    def test_sorted_keys_and_trailing_newline(self):
        text = report_json({"b": 1, "a": [1.5, 2]})
        assert text.endswith("\n")
        assert text.index('"a"') < text.index('"b"')
        assert json.loads(text) == {"a": [1.5, 2], "b": 1}

    def test_nan_refused(self):
        with pytest.raises(ValueError):
            report_json({"x": float("nan")})

    def test_byte_determinism(self):
        payload = {"z": 0.1 + 0.2, "a": {"nested": [3, 2, 1]}}
        assert report_json(payload) == report_json(dict(payload))


class TestCliModel:
    def test_model_writes_a_loadable_tuple(self, tmp_path, capsys):
        out = tmp_path / "fock.json"
        assert main(["model", "fock", "--d", "2", "--levels", "2",
                     "-o", str(out)]) == 0
        T = read_tuple(out)
        assert T.d == 2 and T.h == 7
        assert "fock" in capsys.readouterr().out

    def test_model_records_generator_metadata(self, tmp_path):
        out = tmp_path / "r.json"
        main(["model", "random", "--d", "2", "--dim", "5",
              "--defect-rank", "1", "--seed", "4", "-o", str(out)])
        payload = json.loads(out.read_text())
        assert payload["meta"]["generator"] == "random"
        assert payload["meta"]["seed"] == 4

    def test_missing_required_flag_is_a_usage_error(self, tmp_path):
        out = tmp_path / "x.json"
        assert main(["model", "fock", "--d", "2", "-o", str(out)]) == 2

    def test_phi_spec_parsing(self, tmp_path):
        out = tmp_path / "phi.json"
        code = main(["model", "phi", "--d", "2", "--levels", "3",
                     "--phi", "1=0.7071067811865476,2=0.7071067811865476",
                     "-o", str(out)])
        assert code == 0
        assert read_tuple(out).h > 0


class TestCliDefect:
    def make_input(self, tmp_path, args=("fock", "--d", "2", "--levels", "2")):
        path = tmp_path / "in.json"
        assert main(["model", *args, "-o", str(path)]) == 0
        return path

    def test_table_report_and_plot(self, tmp_path, capsys):
        src = self.make_input(tmp_path)
        rep = tmp_path / "rep.json"
        plot = tmp_path / "plot.csv"
        code = main(["defect", str(src), "--n-max", "4",
                     "--report", str(rep), "--plot", str(plot)])
        assert code == 0
        out = capsys.readouterr().out
        assert "delta" in out
        payload = json.loads(rep.read_text())
        assert payload["kind"] == "defect"
        assert payload["result"]["deltas"] == [1, 3, 7]
        assert payload["result"]["reached_full"] is True
        assert payload["flags"]["n_max"] == 4
        lines = plot.read_text().splitlines()
        assert lines[0] == "n,delta,bound_noncomm,bound_comm"
        assert lines[1].startswith("1,1,1,")

    def test_commuting_input_fills_the_last_column(self, tmp_path):
        src = self.make_input(
            tmp_path, ("dshift", "--d", "2", "--degree", "3"))
        plot = tmp_path / "p.csv"
        assert main(["defect", str(src), "--n-max", "4",
                     "--plot", str(plot)]) == 0
        row = plot.read_text().splitlines()[1].split(",")
        assert row == ["1", "1", "1", "1"]

    def test_unreadable_input_is_exit_two(self, tmp_path):
        assert main(["defect", str(tmp_path / "missing.json"),
                     "--n-max", "3"]) == 2

    @pytest.mark.parametrize("argv", [["defect", "--n-max", "3"],
                                      ["classify"]])
    @pytest.mark.parametrize("content", [b"\xff\xfe{}", b"[" * 100000],
                             ids=["not-utf8", "deeply-nested"])
    def test_undecodable_input_is_exit_two(self, tmp_path, capsys, argv,
                                           content):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        assert main([argv[0], str(path), *argv[1:]]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("argv", [["defect", "--n-max", "3"],
                                      ["classify"]])
    def test_overflowing_tuple_is_exit_two(self, tmp_path, capsys, argv):
        path = tmp_path / "huge.json"
        write_tuple(OperatorTuple((1e308 * np.eye(1),)), path)
        rep = tmp_path / "huge_report.json"
        assert main([argv[0], str(path), *argv[1:],
                     "--report", str(rep)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not rep.exists()


class TestCliClassify:
    def test_report_fields(self, tmp_path):
        src = tmp_path / "in.json"
        main(["model", "fock", "--d", "2", "--levels", "2", "-o", str(src)])
        rep = tmp_path / "c.json"
        assert main(["classify", str(src), "--report", str(rep)]) == 0
        payload = json.loads(rep.read_text())
        result = payload["result"]
        assert result["contractive"] is True
        assert result["purity"]["status"] == "Pure"
        assert result["delta_1"] == 1
        assert result["maximal_noncomm"]["maximal"] is True
        assert result["maximal_comm"] is None
        assert result["commutant_dim"] == 1
        assert result["irreducible"] is True
        assert payload["flags"]["max_iter"] == 10000

    def test_noncontractive_input_exits_one_with_report(self, tmp_path):
        bad = OperatorTuple((1.4 * np.eye(2),))
        src = tmp_path / "bad.json"
        write_tuple(bad, src)
        rep = tmp_path / "bad_report.json"
        assert main(["classify", str(src), "--report", str(rep)]) == 1
        payload = json.loads(rep.read_text())
        assert payload["result"]["contractive"] is False
        assert payload["result"]["purity"] is None

    def test_undecided_is_reported_not_an_error(self, tmp_path):
        slow = OperatorTuple((np.sqrt(0.999) * np.eye(2),))
        src = tmp_path / "slow.json"
        write_tuple(slow, src)
        rep = tmp_path / "slow_report.json"
        assert main(["classify", str(src), "--max-iter", "50",
                     "--report", str(rep)]) == 0
        payload = json.loads(rep.read_text())
        assert payload["result"]["purity"]["status"] == "Undecided"


    @pytest.mark.parametrize("flag", ["--eps-pure=inf", "--eps-pure=nan",
                                      "--eps-pure=-1", "--eps-conv=inf",
                                      "--eps-conv=nan", "--eps-conv=-1"])
    @pytest.mark.parametrize("scale", [1.0, 1.4],
                             ids=["contractive", "noncontractive"])
    def test_bad_threshold_is_exit_two(self, tmp_path, capsys, flag, scale):
        src = tmp_path / "in.json"
        write_tuple(OperatorTuple((scale * np.diag([0.5, 0.0]),)), src)
        rep = tmp_path / "report.json"
        assert main(["classify", str(src), flag, "--report", str(rep)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err
        assert not rep.exists()

    def test_zero_thresholds_are_accepted(self, tmp_path):
        src = tmp_path / "in.json"
        main(["model", "fock", "--d", "2", "--levels", "2", "-o", str(src)])
        rep = tmp_path / "report.json"
        assert main(["classify", str(src), "--eps-pure", "0",
                     "--eps-conv", "0", "--report", str(rep)]) == 0
        payload = json.loads(rep.read_text())
        assert payload["flags"]["eps_pure"] == 0.0
        assert payload["result"]["purity"]["status"] == "Pure"


class TestCliVerify:
    def test_single_suite_passes(self, tmp_path, capsys):
        rep = tmp_path / "v.json"
        code = main(["verify", "--suite", "lemma21", "--samples", "4",
                     "--seed", "0", "--report", str(rep)])
        assert code == 0
        payload = json.loads(rep.read_text())
        assert payload["all_passed"] is True
        assert payload["suites"][0]["name"] == "lemma21"
        assert payload["flags"]["samples"] == 4
        assert "lemma21" in capsys.readouterr().out

    def test_unknown_suite_is_a_usage_error(self):
        assert main(["verify", "--suite", "nonsense"]) == 2


class TestCliProduct:
    def test_product_of_two_saved_tuples(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        main(["model", "random", "--d", "2", "--dim", "4",
              "--defect-rank", "1", "--seed", "1", "-o", str(a)])
        main(["model", "random", "--d", "2", "--dim", "4",
              "--defect-rank", "1", "--seed", "2", "-o", str(b)])
        out = tmp_path / "ab.json"
        assert main(["product", str(a), str(b), "-o", str(out)]) == 0
        T = read_tuple(out)
        assert T.d == 4 and T.h == 4
        meta = json.loads(out.read_text())["meta"]
        assert meta["generator"] == "product"
