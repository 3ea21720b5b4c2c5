"""Tests for the Table 1 PE catalog."""

import pytest

from repro.errors import UnknownPEError
from repro.hardware import catalog
from repro.hardware.catalog import (
    PE_CATALOG,
    format_table1,
    get_pe,
    total_area_kge,
)


def test_catalog_has_all_table1_rows():
    assert len(PE_CATALOG) == 31


def test_paper_values_spot_checks():
    xcor = get_pe("XCOR")
    assert xcor.max_freq_mhz == 85
    assert xcor.leakage_uw == 377.00
    assert xcor.sram_uw == 306.88
    assert xcor.dyn_uw_per_electrode == 44.11
    assert xcor.latency_ms == 4.00
    assert xcor.area_kge == 81

    dtw = get_pe("DTW")
    assert dtw.latency_ms == 0.003
    assert dtw.max_freq_mhz == 50

    inv = get_pe("INV")
    assert inv.latency_ms == 30
    assert inv.area_kge == 167


def test_data_dependent_pes_have_no_latency():
    for name in ("AES", "LZ", "MA", "RC", "LIC"):
        assert get_pe(name).latency_ms is None


def test_sc_latency_range():
    sc = get_pe("SC")
    assert sc.latency_ms == 0.03
    assert sc.latency_max_ms == 4.0


def test_static_power_sums_leakage_and_sram():
    bbf = get_pe("BBF")
    assert bbf.static_uw == pytest.approx(66.00 + 19.88)


def test_unknown_pe_raises():
    with pytest.raises(UnknownPEError):
        get_pe("NOPE")


def test_catalog_names_order_matches_paper():
    names = list(PE_CATALOG)
    assert names[0] == "ADD"
    assert names[-1] == "XCOR"


def test_total_area_positive_and_additive(monkeypatch):
    total = total_area_kge()
    assert total == pytest.approx(
        sum(get_pe(n).area_kge for n in PE_CATALOG)
    )
    monkeypatch.setattr(
        catalog, "PE_CATALOG", {n: PE_CATALOG[n] for n in ("ADD", "SUB")}
    )
    assert total_area_kge() == pytest.approx(68 + 69)


def test_format_table1_contains_every_pe():
    text = format_table1()
    for name in PE_CATALOG:
        assert name in text
