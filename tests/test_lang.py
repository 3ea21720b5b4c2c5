"""Tests for the query language: parser and compiler."""

import pytest

from repro.errors import CompilationError, QuerySyntaxError
from repro.lang.compiler import compile_query, compile_text
from repro.lang.parser import parse_query

#: Paper Listing 1.
LISTING_1 = (
    "var movements = stream.window(wsize=50ms).sbp()"
    ".kf(kf_params).call_runtime()"
)

#: Paper Listing 2.
LISTING_2 = """var seizure_data = stream.Map( s => s.select(s => s.data), s.locID)
.window(wsize=4ms).select(w => w.time >= -5000).
select(w => w.seizure_detect(), w[-100ms:100ms])"""


class TestParser:
    def test_listing_1(self):
        chain = parse_query(LISTING_1)
        assert chain.var_name == "movements"
        assert chain.call_names == ["window", "sbp", "kf", "call_runtime"]
        wsize = chain.calls[chain.call_names.index("window")].kwarg("wsize")
        assert wsize.kind == "duration_ms" and wsize.number == 50.0

    def test_listing_2(self):
        chain = parse_query(LISTING_2)
        assert chain.var_name == "seizure_data"
        assert chain.call_names == ["Map", "window", "select", "select"]
        wsize = chain.calls[chain.call_names.index("window")].kwarg("wsize")
        assert wsize.number == 4.0

    def test_lambda_captured_verbatim(self):
        chain = parse_query("stream.select(s => s.value > 3)")
        arg = chain.calls[0].args[0]
        assert arg.kind == "lambda"
        assert "value" in arg.raw

    def test_duration_units(self):
        chain = parse_query("stream.window(wsize=2s)")
        assert chain.calls[chain.call_names.index("window")].kwarg("wsize").number == 2000.0

    def test_plain_number(self):
        chain = parse_query("stream.thr(level=3.5)")
        value = chain.calls[chain.call_names.index("thr")].kwarg("level")
        assert value.kind == "number" and value.number == 3.5

    def test_string_argument(self):
        chain = parse_query('stream.store("templates")')
        assert chain.calls[0].args[0].raw == "templates"

    def test_no_var_prefix(self):
        chain = parse_query("stream.window(wsize=4ms).fft()")
        assert chain.var_name is None

    @pytest.mark.parametrize(
        "bad",
        ["", "window(wsize=4ms)", "var = stream.fft()", "stream", "stream.fft("],
    )
    def test_syntax_errors(self, bad):
        with pytest.raises(QuerySyntaxError):
            parse_query(bad)


class TestCompiler:
    def test_pe_lowering(self):
        compiled = compile_text("stream.window(wsize=4ms).fft().svm()")
        assert compiled.pe_names == ["GATE", "FFT", "SVM"]
        assert compiled.window_ms == 4.0

    def test_mc_operators_separated(self):
        compiled = compile_text(LISTING_1)
        assert "call_runtime" in compiled.mc_operators
        assert "INV" in compiled.pe_names  # kf -> INV

    def test_pipeline_buildable(self):
        compiled = compile_text("stream.window(wsize=4ms).fft().svm()")
        pipeline = compiled.build_pipeline()
        assert pipeline.latency_ms > 0

    def test_unknown_method_rejected(self):
        chain = parse_query("stream.window(wsize=4ms)")
        chain.calls[0] = type(chain.calls[0])("teleport")
        with pytest.raises(CompilationError):
            compile_query(chain)

    def test_listing_2_compiles(self):
        compiled = compile_text(LISTING_2)
        assert compiled.window_ms == 4.0
