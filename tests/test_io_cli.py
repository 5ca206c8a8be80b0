"""Tests for the JSON tuple format and the command line front end."""

import base64
import gc
import importlib
import json

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from defectseq.cli import main
from defectseq.errors import SizeCapError, TupleFormatError
from defectseq.io import (
    TUPLE_FORMAT,
    TUPLE_FORMAT_VERSION,
    payload_to_tuple,
    read_tuple,
    report_json,
    tuple_to_payload,
    write_tuple,
)
from defectseq.models import fock_creation, random_contractive
from defectseq.tuples import OperatorTuple, tuple_product
from tuple_files import (
    DATA,
    V1_FILES,
    V1_META,
    same_bits,
    v1_payload,
    v1_real_tuple,
)


def sample_tuple(seed=0, d=2, h=4):
    return random_contractive(d, h, 1, seed)


def _b64(raw):
    return base64.b64encode(raw).decode("ascii")


def _array(p, key, dtype):
    return np.frombuffer(base64.b64decode(p[key]), dtype=dtype).copy()


_CODES = {"float64": "<f8", "complex128": "<c16"}


def _set_value(key, position, value):
    def mangle(p):
        a = _array(p, key, "<i8" if key == "index" else _CODES[p["dtype"]])
        a[position] = value
        p[key] = _b64(a.tobytes())
    return mangle


def _set_bytes(key, change):
    def mangle(p):
        p[key] = _b64(change(base64.b64decode(p[key])))
    return mangle


def dense_payload():
    # complex128, d = 2, dim = 4, no zero entries: the dense encoding.
    return tuple_to_payload(sample_tuple())


def coo_payload():
    # float64, d = 2, dim = 7, 6 nonzeros in 98 entries: the coo encoding.
    return tuple_to_payload(fock_creation(2, 2))


# Malformed version 2 objects: (base payload, change).  Each must be
# refused with TupleFormatError, and by the CLI with exit status 2.
MALFORMED_V2 = {
    "bad-base64": (dense_payload,
                   lambda p: p.update(data="*" + p["data"][1:])),
    "stray-character": (dense_payload,
                        lambda p: p.update(data=p["data"][:8] + "!"
                                           + p["data"][8:])),
    "truncated-base64": (dense_payload,
                         lambda p: p.update(data=p["data"][:-1])),
    "non-ascii-base64": (dense_payload,
                         lambda p: p.update(data="\u00e9" + p["data"][1:])),
    "data-not-a-string": (dense_payload, lambda p: p.update(data=[1.0])),
    "missing-data": (dense_payload, lambda p: p.pop("data")),
    "one-value-short": (dense_payload, _set_bytes("data", lambda b: b[:-16])),
    "one-value-long": (dense_payload,
                       _set_bytes("data", lambda b: b + b[:16])),
    "partial-value": (dense_payload, _set_bytes("data", lambda b: b[:-3])),
    "wrong-dtype-for-data": (dense_payload,
                             lambda p: p.update(dtype="float64")),
    "nan-dense": (dense_payload, _set_value("data", 5, complex(np.nan, 0))),
    "inf-dense": (dense_payload, _set_value("data", 0, complex(0, np.inf))),
    "nan-coo": (coo_payload, _set_value("values", 2, np.nan)),
    "inf-coo": (coo_payload, _set_value("values", 0, -np.inf)),
    "index-past-the-end": (coo_payload, _set_value("index", -1, 2 * 7 * 7)),
    "negative-index": (coo_payload, _set_value("index", 0, -1)),
    "duplicate-index": (coo_payload, lambda p: _set_value(
        "index", 1, _array(p, "index", "<i8")[0])(p)),
    "decreasing-index": (coo_payload, lambda p: p.update(index=_b64(
        _array(p, "index", "<i8")[::-1].tobytes()))),
    "index-values-mismatch": (coo_payload,
                              _set_bytes("values", lambda b: b[:-8])),
    "unknown-encoding": (coo_payload, lambda p: p.update(encoding="csr")),
    "missing-encoding": (coo_payload, lambda p: p.pop("encoding")),
    "unknown-dtype": (coo_payload, lambda p: p.update(dtype="float32")),
    "unhashable-dtype": (coo_payload, lambda p: p.update(dtype=["float64"])),
    "huge-coo-dim": (coo_payload,
                     lambda p: p.update(d=1, dim=10**9, index="", values="")),
}


class TestTuplePayload:
    def test_payload_shape(self):
        p = v1_payload(sample_tuple())
        assert p["format"] == TUPLE_FORMAT
        assert p["version"] == 1
        assert p["d"] == 2 and p["dim"] == 4
        arr = np.asarray(p["ops"])
        assert arr.shape == (2, 4, 4, 2)
        assert same_bits(payload_to_tuple(p), sample_tuple())

    def test_payload_shape_v2(self):
        T = sample_tuple()
        p = tuple_to_payload(T)
        assert p["format"] == TUPLE_FORMAT
        assert p["version"] == TUPLE_FORMAT_VERSION == 2
        assert p["d"] == 2 and p["dim"] == 4
        assert (p["dtype"], p["encoding"]) == ("complex128", "dense")
        assert "ops" not in p
        assert base64.b64decode(p["data"], validate=True) == (
            np.stack(T.ops).astype("<c16").tobytes())

    def test_coo_payload_layout(self):
        T = fock_creation(2, 2)
        p = tuple_to_payload(T)
        assert (p["dtype"], p["encoding"]) == ("float64", "coo")
        assert "data" not in p
        flat = np.stack(T.ops).reshape(-1)
        index = _array(p, "index", "<i8")
        assert np.array_equal(index, np.flatnonzero(flat))
        assert np.array_equal(_array(p, "values", "<f8"), flat[index])

    @pytest.mark.parametrize("scale, dim, encoding", [
        # eye(dim): dim nonzeros of dim**2; coo needs 16 * dim < 8 * dim**2.
        (1.0, 2, "dense"), (1.0, 3, "coo"),
        # complex: 24 * dim < 16 * dim**2 first holds at dim = 2.
        (1j, 1, "dense"), (1j, 2, "coo"),
    ])
    def test_encoding_rule(self, scale, dim, encoding):
        p = tuple_to_payload(OperatorTuple((scale * np.eye(dim),)))
        assert p["encoding"] == encoding

    def test_negative_zero_counts_as_an_entry(self):
        # Five -0.0 entries of nine make coo cost 5 * 16 > 72 bytes.
        m = np.full((3, 3), -0.0)
        m[0, :] = 0.0
        m[1, 1] = 0.5
        T = OperatorTuple((m,))
        p = tuple_to_payload(T)
        assert p["encoding"] == "dense"
        assert same_bits(payload_to_tuple(p), T)

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

    @pytest.mark.parametrize("build", [sample_tuple,
                                       lambda: fock_creation(2, 3)],
                             ids=["dense", "coo"])
    def test_rewrite_is_byte_identical(self, tmp_path, build):
        T = build()
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        write_tuple(T, first)
        back = read_tuple(first)
        assert same_bits(back, T)
        write_tuple(back, second)
        assert first.read_bytes() == second.read_bytes()

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
        p = v1_payload(sample_tuple())
        mangle(p)
        with pytest.raises(TupleFormatError):
            payload_to_tuple(p)

    @pytest.mark.parametrize("mangle", [
        lambda p: p.update(format="something-else"),
        lambda p: p.update(version=99),
        lambda p: p.update(d=3),
        lambda p: p.update(dim="4"),
        lambda p: p.update(dim=True),
        lambda p: p.update(data=_b64(b"\0" * 16)),
        lambda p: p.update(data="nope"),
        lambda p: p.update(meta=[1, 2]),
        lambda p: p.pop("data"),
    ])
    def test_malformed_v2_payloads_rejected(self, mangle):
        p = tuple_to_payload(sample_tuple())
        mangle(p)
        with pytest.raises(TupleFormatError):
            payload_to_tuple(p)

    @pytest.mark.parametrize("case", sorted(MALFORMED_V2))
    def test_malformed_v2_matrix_rejected(self, case):
        base, mangle = MALFORMED_V2[case]
        p = base()
        payload_to_tuple(p)
        mangle(p)
        with pytest.raises(TupleFormatError):
            payload_to_tuple(p)

    @pytest.mark.parametrize("d, dim", [(1, 10**9), (10**9, 1)])
    def test_huge_coo_file_is_refused_before_allocating(self, monkeypatch,
                                                        d, dim):
        p = coo_payload()
        p.update(d=d, dim=dim, index="", values="")

        def no_allocation(*args, **kwargs):
            raise AssertionError("allocated before the size check")

        monkeypatch.setattr("defectseq.io.np.zeros", no_allocation)
        with pytest.raises(TupleFormatError, match="cap is 4096"):
            payload_to_tuple(p)

    def test_coo_size_product_is_refused_before_allocating(self, monkeypatch):
        # d and dim each within the default cap, but the stack would hold
        # 4096**3 entries, about 550 GB of float64.
        p = coo_payload()
        p.update(d=4096, dim=4096, index="", values="")

        def no_allocation(*args, **kwargs):
            raise AssertionError("allocated before the size check")

        monkeypatch.setattr("defectseq.io.np.zeros", no_allocation)
        with pytest.raises(TupleFormatError,
                           match=r"d \* dim\*\*2 = 68719476736 entries, "
                                 r"cap is 2 \* cap\*\*2 = 33554432"):
            payload_to_tuple(p)

    def test_coo_stack_up_to_twice_cap_squared_is_read(self, monkeypatch):
        # d = 2, dim = 7 fills 2 * 7**2 entries exactly; a third entry
        # matrix passes each separate check but not the product.
        p = coo_payload()
        monkeypatch.setenv("DEFECTSEQ_SIZE_CAP", "7")
        assert payload_to_tuple(p).h == 7
        p.update(d=3)
        with pytest.raises(TupleFormatError, match="d \\* dim\\*\\*2 = 147"):
            payload_to_tuple(p)

    def test_written_coo_stacks_read_back_up_to_the_bound(self, monkeypatch,
                                                          tmp_path):
        # The writer refuses the coo stacks the reader refuses: a shift
        # with d = 2 and dim = 7 fills 2 * 7**2 entries at cap 7 and
        # reads back; a third entry is refused before anything is written.
        monkeypatch.setenv("DEFECTSEQ_SIZE_CAP", "7")
        shift = np.diag(np.full(6, 0.5), -1)
        path = tmp_path / "shift.json"
        T = OperatorTuple((shift, shift.T @ shift))
        write_tuple(T, path)
        assert json.loads(path.read_text())["encoding"] == "coo"
        assert same_bits(read_tuple(path), T)
        path.unlink()
        with pytest.raises(SizeCapError, match=r"d \* dim\*\*2 = 147"):
            write_tuple(OperatorTuple((shift,) * 3), path)
        assert not path.exists()

    def test_coo_dim_up_to_the_cap_is_read(self, monkeypatch):
        p = coo_payload()
        monkeypatch.setenv("DEFECTSEQ_SIZE_CAP", "7")
        assert payload_to_tuple(p).h == 7
        monkeypatch.setenv("DEFECTSEQ_SIZE_CAP", "6")
        with pytest.raises(TupleFormatError, match="cap is 6"):
            payload_to_tuple(p)

    def test_nonfinite_entries_rejected(self):
        p = v1_payload(sample_tuple())
        p["ops"][0][0][0][0] = float("inf")
        with pytest.raises(TupleFormatError):
            payload_to_tuple(p)

    @pytest.mark.parametrize("base, key", [(dense_payload, "data"),
                                           (coo_payload, "values")],
                             ids=["dense", "coo"])
    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    def test_nonfinite_v2_entries_rejected(self, base, key, value):
        p = base()
        _set_value(key, 0, value)(p)
        with pytest.raises(TupleFormatError, match="finite"):
            payload_to_tuple(p)

    def test_bad_json_file_rejected(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(TupleFormatError):
            read_tuple(path)


@st.composite
def sparse_tuples(draw):
    """Tuples with d <= 3, h <= 12, drawn sparsity and -0.0 parts."""
    d = draw(st.integers(1, 3))
    h = draw(st.integers(1, 12))
    shape = (d, h, h)
    # 0: exact zero, 1: -0.0 real part, 2: -0.0 imaginary part, 3: a value.
    kinds = draw(hnp.arrays(np.int8, shape, elements=st.integers(0, 3)))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    real = np.where(kinds == 3, draw(hnp.arrays(np.float64, shape,
                                                 elements=finite)), 0.0)
    real[kinds == 1] = -0.0
    if not draw(st.booleans()):
        return OperatorTuple(tuple(real))
    imag = np.where(kinds == 3, draw(hnp.arrays(np.float64, shape,
                                                 elements=finite)), 0.0)
    imag[kinds == 2] = -0.0
    entries = np.empty(shape, dtype=np.complex128)
    entries.real, entries.imag = real, imag
    return OperatorTuple(tuple(entries))


class TestRoundTripProperty:
    @settings(max_examples=150, deadline=None)
    @given(sparse_tuples())
    def test_bit_exact_and_byte_identical(self, T):
        text = report_json(tuple_to_payload(T))
        back = payload_to_tuple(json.loads(text))
        assert same_bits(back, T)
        assert report_json(tuple_to_payload(back)) == text


class TestVersionOneFiles:
    """Files written by the version 1 writer stay valid input."""

    @pytest.mark.parametrize("name", sorted(V1_FILES))
    def test_committed_file_reads_to_the_same_bits(self, name):
        T = read_tuple(DATA / name)
        expected = V1_FILES[name]()
        assert same_bits(T, expected)
        assert T.label == expected.label

    def test_complex_file_keeps_the_negative_zero(self):
        T = read_tuple(DATA / "v1_complex.json")
        assert T.dtype == np.complex128
        assert np.signbit(T.ops[0][0, 0].imag)

    @pytest.mark.parametrize("name", sorted(V1_FILES))
    def test_v1_payload_matches_the_committed_bytes(self, name):
        payload = v1_payload(V1_FILES[name](), V1_META)
        assert report_json(payload) == (DATA / name).read_text()

    @pytest.mark.parametrize("name", sorted(V1_FILES))
    def test_rewrite_is_version_two(self, tmp_path, name):
        out = tmp_path / name
        write_tuple(read_tuple(DATA / name), out)
        assert json.loads(out.read_text())["version"] == 2
        assert same_bits(read_tuple(out), V1_FILES[name]())


class TestReadTupleCollector:
    """read_tuple pauses the cyclic collector and restores its state."""

    CONTENTS = {
        "not-utf8": b"\xff\xfe{}",
        "bad-json": b"{not json",
        "deeply-nested": b"[" * 100000,
    }

    @pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
    @pytest.mark.parametrize("content", [None, *sorted(CONTENTS)])
    def test_collector_state_is_unchanged(self, tmp_path, enabled, content):
        path = tmp_path / "in.json"
        if content is None:
            write_tuple(sample_tuple(), path)
        else:
            path.write_bytes(self.CONTENTS[content])
        was_enabled = gc.isenabled()
        try:
            (gc.enable if enabled else gc.disable)()
            if content is None:
                read_tuple(path)
            else:
                with pytest.raises(TupleFormatError):
                    read_tuple(path)
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was_enabled else gc.disable)()


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

    def test_model_writes_only_coo_files_it_reads(self, monkeypatch,
                                                  tmp_path, capsys):
        # dshift with d = 3, degree 1: dim 4 and 3 nonzeros of 48 entries,
        # so coo; the reader takes 48 entries from cap 5 (2 * 25) on.
        out = tmp_path / "dshift.json"
        argv = ["model", "dshift", "--d", "3", "--degree", "1",
                "-o", str(out)]
        monkeypatch.setenv("DEFECTSEQ_SIZE_CAP", "5")
        assert main(argv) == 0
        assert json.loads(out.read_text())["encoding"] == "coo"
        assert main(["defect", str(out), "--n-max", "2"]) == 0
        out.unlink()
        capsys.readouterr()
        monkeypatch.setenv("DEFECTSEQ_SIZE_CAP", "4")
        assert main(argv) == 2
        assert ("d * dim**2 = 48 entries, cap is 2 * cap**2 = 32"
                in capsys.readouterr().err)
        assert not out.exists()

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


class TestParserBuiltOnce:
    """``main`` parses with one parser per process.

    Each call must read its arguments as a freshly built parser would:
    an appended ``--suite`` list, help and version output and usage
    errors all come out the same after any earlier call.
    """

    SEQUENCE = (
        ["verify", "--suite", "all", "--samples", "2"],
        ["verify", "--suite", "lemma21", "--samples", "2"],
        ["verify", "--suite", "lemma21", "--suite", "cor23", "--samples", "2"],
        ["--help"],
        ["--version"],
        ["verify", "--help"],
        ["classify", "--max-iter", "x"],
        ["verify", "--suite", "nosuch"],
        ["verify", "--suite", "lemma21", "--samples", "2", "--seed", "3"],
    )

    @staticmethod
    def run_all(capsys):
        outputs = []
        for argv in TestParserBuiltOnce.SEQUENCE:
            try:
                code = main(list(argv))
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            outputs.append((code, captured.out, captured.err))
        return outputs

    def test_consecutive_calls_match_fresh_parsers(self, monkeypatch, capsys):
        cli = importlib.import_module("defectseq.cli")
        assert cli._parser() is cli._parser()
        assert cli.build_parser() is not cli.build_parser()
        cached = self.run_all(capsys)
        with monkeypatch.context() as patch:
            patch.setattr(cli, "_parser", cli.build_parser)
            fresh = self.run_all(capsys)
        assert cached == fresh
        codes = [code for code, _, _ in cached]
        assert codes == [0, 0, 0, 0, 0, 0, 2, 2, 0]
        # The second call runs lemma21 alone, not the list of the first.
        assert cached[1][1].splitlines()[0].startswith("lemma21")
        assert "models" not in cached[1][1]
        assert [line.split()[0] for line in cached[2][1].splitlines()[:2]] == [
            "lemma21", "cor23"]
        assert cached[3][1].startswith("usage: defectseq")
        assert cached[4][1].startswith("defectseq ")


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


    @pytest.mark.parametrize("argv", [["defect", "--n-max", "200"],
                                      ["classify"]])
    def test_falling_ladder_is_exit_one(self, tmp_path, capsys, argv):
        # Q [[a, b, 0], [0, 0, 0], [0, 0, 1]] Q^T with margin -4e-9, inside
        # the contractivity slack: both commands read the ladder
        # (2, 1, 2, 2) and refuse it with one message and no report.
        eps = 4e-9
        a = np.sqrt(1.0 / (1.0 + eps))
        b = np.sqrt(eps * (1.0 + a * a))
        q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((3, 3)))
        path = tmp_path / "slack.json"
        write_tuple(OperatorTuple((q @ np.array([[a, b, 0.0], [0.0, 0.0, 0.0],
                                                 [0.0, 0.0, 1.0]]) @ q.T,)),
                    path)
        rep = tmp_path / "slack_report.json"
        assert main([argv[0], str(path), *argv[1:],
                     "--report", str(rep)]) == 1
        err = capsys.readouterr().err
        assert err == ("analysis failed: defect sequence decreased: "
                       "(2, 1, 2, 2)\n")
        assert not rep.exists()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("argv", [["defect", "--n-max", "3"],
                                      ["classify"]])
    @pytest.mark.parametrize("scale, code", [(1.2, 1), (1e200, 2)],
                             ids=["noncontractive", "overflowing"])
    def test_dense_complex_tuple_exit_codes(self, tmp_path, capsys, argv,
                                            scale, code):
        # A dense complex tuple takes the factored ladder, which checks
        # contractivity itself: exit 1 when it is not a row contraction,
        # exit 2 when I - cp(I) overflows.
        rng = np.random.default_rng(4)
        q, _ = np.linalg.qr(rng.standard_normal((3, 3))
                            + 1j * rng.standard_normal((3, 3)))
        path = tmp_path / "dense.json"
        write_tuple(OperatorTuple((scale * q,)), path)
        assert main([argv[0], str(path), *argv[1:]]) == code
        err = capsys.readouterr().err
        if code == 2:
            assert err == ("error: I - cp(I) is not finite; the tuple's "
                           "entries are too large\n")
        elif argv[0] == "defect":
            assert err == ("analysis failed: not a row contraction: "
                           "I - cp(I) has eigenvalue -4.400e-01\n")


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

    @pytest.mark.parametrize("value", ["0", "-3"])
    @pytest.mark.parametrize("scale", [1.0, 1.4],
                             ids=["contractive", "noncontractive"])
    def test_empty_budget_is_exit_two(self, tmp_path, capsys, value, scale):
        src = tmp_path / "in.json"
        write_tuple(OperatorTuple((scale * np.diag([0.5, 0.0]),)), src)
        rep = tmp_path / "report.json"
        assert main(["classify", str(src), "--max-iter", value,
                     "--report", str(rep)]) == 2
        err = capsys.readouterr().err
        assert err == "error: iteration budget must be at least 1\n"
        assert not rep.exists()

    @pytest.mark.parametrize("value", ["1", "1.5", "1e308"])
    @pytest.mark.parametrize("scale", [1.0, 1.4],
                             ids=["contractive", "noncontractive"])
    def test_eps_conv_of_one_or_more_is_exit_two(self, tmp_path, capsys,
                                                  value, scale):
        src = tmp_path / "in.json"
        write_tuple(OperatorTuple(tuple(scale * op for op in
                                        fock_creation(2, 2).ops)), src)
        rep = tmp_path / "report.json"
        assert main(["classify", str(src), "--eps-conv", value,
                     "--report", str(rep)]) == 2
        captured = capsys.readouterr()
        err = captured.err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "eps_conv" in err and "Traceback" not in err
        assert captured.out == ""
        assert not rep.exists()

    def test_eps_conv_just_below_one_is_accepted(self, tmp_path):
        src = tmp_path / "in.json"
        write_tuple(fock_creation(2, 2), src)
        assert main(["classify", str(src), "--eps-conv", "0.99"]) == 0

    def test_creation_tuple_past_the_dense_cap(self, tmp_path):
        # h = 127, h^2 = 16129 unknowns; the largest component has 127.
        src = tmp_path / "fock.json"
        main(["model", "fock", "--d", "2", "--levels", "6", "-o", str(src)])
        rep = tmp_path / "report.json"
        assert main(["classify", str(src), "--report", str(rep)]) == 0
        payload = json.loads(rep.read_text())
        assert payload["input"]["dim"] == 127
        assert payload["result"]["commutant_dim"] == 1
        assert payload["result"]["irreducible"] is True

    def test_dense_tuple_past_the_cap_is_exit_two(self, tmp_path, capsys,
                                                  monkeypatch):
        src = tmp_path / "in.json"
        write_tuple(sample_tuple(h=8), src)
        monkeypatch.setenv("DEFECTSEQ_SIZE_CAP", "63")
        rep = tmp_path / "report.json"
        assert main(["classify", str(src), "--report", str(rep)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "h^2 = 64 unknowns, cap is 63" in err
        assert not rep.exists()

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_overflowing_commutator_is_exit_two(self, tmp_path, capsys):
        # cp(I) stays finite, so the tuple is read as not contractive, but
        # a row of T_1 along a column of T_2 makes T_1 T_2 overflow: the
        # commutation verdict is refused, not decided on inf entries.
        h, m = 36, 3.1e307
        t1, t2 = np.zeros((2, h, h))
        t1[0, :] = np.sqrt(m / h)
        t2[:, 1] = np.sqrt(m)
        src = tmp_path / "in.json"
        write_tuple(OperatorTuple((t1, t2)), src)
        rep = tmp_path / "report.json"
        assert main(["classify", str(src), "--report", str(rep)]) == 2
        err = capsys.readouterr().err
        assert err == ("error: a commutator of the tuple is not finite; "
                       "the tuple's entries are too large\n")
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


class TestCliMalformedTupleFile:
    @pytest.mark.parametrize("argv", [["defect", "--n-max", "3"],
                                      ["classify"]])
    @pytest.mark.parametrize("case", sorted(MALFORMED_V2))
    def test_exit_two_with_one_error_line(self, tmp_path, capsys, argv, case):
        base, mangle = MALFORMED_V2[case]
        payload = base()
        mangle(payload)
        path = tmp_path / "bad.json"
        path.write_text(report_json(payload))
        rep = tmp_path / "report.json"
        assert main([argv[0], str(path), *argv[1:],
                     "--report", str(rep)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1
        assert "Traceback" not in captured.err
        assert captured.out == ""
        assert not rep.exists()


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

    def test_product_of_a_v1_and_a_v2_file(self, tmp_path):
        v2 = tmp_path / "fock.json"
        assert main(["model", "fock", "--d", "2", "--levels", "1",
                     "-o", str(v2)]) == 0
        out = tmp_path / "prod.json"
        assert main(["product", str(DATA / "v1_real.json"), str(v2),
                     "-o", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["version"] == 2
        assert payload["meta"]["left"] == "v1 real fixture"
        expected = tuple_product(v1_real_tuple(), read_tuple(v2))
        assert same_bits(read_tuple(out), expected)
