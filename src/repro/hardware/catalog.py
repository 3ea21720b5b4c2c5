"""The SCALO processing-element catalog (paper Table 1 + Table 4).

Every PE the paper synthesised at 28 nm is described here with its maximum
frequency, leakage power, SRAM leakage, dynamic power per electrode channel,
latency, and area.  Blank latency entries in the paper (data-dependent PEs)
are represented as ``None``; the storage controller's 0.03-0.04 ms range is
kept as min/max.

These numbers are the paper's measured values — the reproduction treats them
as ground truth for the analytical power/latency model.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import UnknownPEError


@dataclass(frozen=True)
class PESpec:
    """Static description of one processing element.

    Attributes mirror the columns of paper Table 1:

    * ``max_freq_mhz`` — highest clock the PE was synthesised for.
    * ``leakage_uw`` — logic leakage power at 40 C (uW).
    * ``sram_uw`` — SRAM leakage, reported separately in the paper (uW).
    * ``dyn_uw_per_electrode`` — dynamic power per electrode channel at the
      maximum frequency (uW); scales linearly with the clock divider.
    * ``latency_ms`` — processing latency for one window/batch of data, or
      ``None`` for data-dependent PEs (AES, LZ, MA, RC, LIC).
    * ``latency_max_ms`` — upper bound for PEs with a latency range (SC).
    * ``area_kge`` — area in kilo-gate-equivalents.
    * ``function`` — human-readable function (paper Table 4).
    """

    name: str
    function: str
    max_freq_mhz: float
    leakage_uw: float
    sram_uw: float
    dyn_uw_per_electrode: float
    latency_ms: float | None
    area_kge: float
    latency_max_ms: float | None = None

    @property
    def static_uw(self) -> float:
        """Total static (leakage + SRAM) power in uW."""
        return self.leakage_uw + self.sram_uw


def _pe(
    name: str,
    function: str,
    max_freq_mhz: float,
    leakage_uw: float,
    sram_uw: float,
    dyn_uw: float,
    latency_ms: float | None,
    area_kge: float,
    latency_max_ms: float | None = None,
) -> PESpec:
    return PESpec(
        name=name,
        function=function,
        max_freq_mhz=max_freq_mhz,
        leakage_uw=leakage_uw,
        sram_uw=sram_uw,
        dyn_uw_per_electrode=dyn_uw,
        latency_ms=latency_ms,
        area_kge=area_kge,
        latency_max_ms=latency_max_ms,
    )


#: Paper Table 1, one entry per row.  Ordering matches the paper.
PE_CATALOG: dict[str, PESpec] = {
    spec.name: spec
    for spec in (
        _pe("ADD", "Matrix Adder", 3, 0.08, 0.00, 0.983, 2, 68),
        _pe("AES", "AES Encryption", 5, 53, 0.00, 0.61, None, 55),
        _pe("BBF", "Butterworth Bandpass Filter", 6, 66.00, 19.88, 0.35, 4.00, 23),
        _pe("BMUL", "Block Multiplier", 3, 145, 0.00, 1.544, 2, 77),
        _pe("CCHECK", "Collision Check", 16.393, 7.20, 0.88, 0.14, 0.50, 3),
        _pe("CSEL", "Channel Selection", 0.1, 4.00, 0.00, 6.00, 0.04, 2),
        _pe("DCOMP", "Decompression", 16.393, 7.20, 0.00, 0.14, 0.50, 3),
        _pe("DTW", "Dynamic Time Warping", 50, 167.93, 48.50, 26.94, 0.003, 72),
        _pe("DWT", "Discrete Wavelet Transform", 3, 4, 0.00, 0.02, 4, 2),
        _pe("EMDH", "Earth-Mover's Distance Hash", 0.03, 10.47, 0.00, 0.00, 0.04, 9),
        _pe("FFT", "Fast Fourier Transform", 15.7, 141.97, 85.58, 9.02, 4.00, 22),
        _pe("GATE", "Gate Module to buffer data", 5, 67.00, 34.37, 0.63, 0.00, 17),
        _pe("HCOMP", "Hash Compression", 2.88, 77.00, 0.00, 0.65, 4.00, 4),
        _pe("HCONV", "Hash Convolution Operation", 3, 89.89, 0.00, 0.80, 1.50, 8),
        _pe("HFREQ", "Hash Frequency", 2.88, 61.98, 0.00, 0.52, 4.00, 6),
        _pe("INV", "Matrix Inverter", 41, 0.267, 0.00, 11.875, 30, 167),
        _pe("LIC", "Linear Integer Coding", 22.5, 63, 6.00, 3.26, None, 55),
        _pe("LZ", "Lempel Ziv", 129, 150, 95.00, 30.43, None, 55),
        _pe("MA", "Markov Chain", 92, 194, 67.00, 32.76, None, 55),
        _pe("NEO", "Non-linear Energy Operator", 3, 12.00, 0.00, 0.03, 4.00, 5),
        _pe("NGRAM", "Hash Ngram Generation", 0.2, 15.69, 9.07, 0.08, 1.50, 10),
        _pe("NPACK", "Network Packing", 3, 3.53, 0.00, 5.49, 0.008, 2),
        _pe("RC", "Range Coding", 90, 29, 0.00, 7.95, None, 55),
        _pe("SBP", "Spike Band Power", 3, 12.00, 0.00, 0.03, 0.03, 6),
        _pe("SC", "Storage Controller", 3.2, 95.30, 64.49, 1.64, 0.03, 12, 4.0),
        _pe("SUB", "Matrix Subtractor", 3, 0.08, 0.00, 0.988, 2, 69),
        _pe("SVM", "Support Vector Machine", 3, 99.00, 53.58, 0.53, 1.67, 8),
        _pe("THR", "Threshold", 16, 2.00, 0.00, 0.11, 0.06, 1),
        _pe("TOK", "Tokenizer", 6, 5.57, 0.00, 0.14, 0.001, 3),
        _pe("UNPACK", "Network Unpacking", 3, 3.53, 0.00, 5.49, 0.008, 2),
        _pe("XCOR", "Pearson's Cross Correlation", 85, 377.00, 306.88, 44.11, 4.00, 81),
    )
}


def get_pe(name: str) -> PESpec:
    """Return the catalog entry for ``name``.

    Raises:
        UnknownPEError: if ``name`` is not a PE in Table 1.
    """
    try:
        return PE_CATALOG[name]
    except KeyError:
        raise UnknownPEError(name) from None


def catalog_names() -> list[str]:
    """All PE names in paper order."""
    return list(PE_CATALOG)


def total_area_kge(names: list[str] | None = None) -> float:
    """Sum of PE areas (KGE) for ``names`` (default: the whole catalog)."""
    if names is None:
        names = catalog_names()
    return sum(get_pe(n).area_kge for n in names)


def format_table1() -> str:
    """Render the catalog as the rows of paper Table 1 (for benches/docs)."""
    header = (
        f"{'PE':8s} {'MaxFreq(MHz)':>12s} {'Leak(uW)':>9s} {'SRAM(uW)':>9s} "
        f"{'Dyn/Elec(uW)':>13s} {'Latency(ms)':>12s} {'Area(KGE)':>10s}"
    )
    lines = [header, "-" * len(header)]
    for spec in PE_CATALOG.values():
        if spec.latency_ms is None:
            lat = "-"
        elif spec.latency_max_ms is not None:
            lat = f"{spec.latency_ms:g}-{spec.latency_max_ms:g}"
        else:
            lat = f"{spec.latency_ms:g}"
        lines.append(
            f"{spec.name:8s} {spec.max_freq_mhz:12g} {spec.leakage_uw:9g} "
            f"{spec.sram_uw:9g} {spec.dyn_uw_per_electrode:13g} {lat:>12s} "
            f"{spec.area_kge:10g}"
        )
    return "\n".join(lines)
