"""End-to-end acceptance checks for the link-energy toolchain.

Each criterion prints one PASS/FAIL verdict line through pytest's
terminal reporter so the verdicts stay visible under output capture.
The expensive simulations are shared between criteria through
module-scoped fixtures.
"""
import sys
import time

import numpy as np
import pytest

from noclink.codecs import make_codec
from noclink.energy import Capacitance2D, Capacitance3D, normalized_energy
from noclink.linkmodel import mux_switching
from noclink.oracle import IDLE, LinkTrace, exact_energy
from noclink.linkmodel import link_energy_report
from noclink.reporting import data_flow_from_trace
from noclink.streams import DataStream, compute_bit_stats, word_bits
from noclink.sweeps import (
    CASE_STUDY_CODING_TRAFFIC,
    CASE_STUDY_VC_LINKS,
    TECH,
    case_study_cap2d,
    case_study_cap3d,
    coded_traces,
    coding_sweep,
    evaluate_coding,
    mux_accuracy_sweep,
    mux_energy_sweep,
    network_energy_reports,
    per_type_stats,
    run_case_study,
    sweep_cap2d,
)

W = 16


_REPORTER = None


@pytest.fixture(autouse=True)
def _terminal_reporter(request):
    global _REPORTER
    _REPORTER = request.config.pluginmanager.get_plugin("terminalreporter")


def verdict(name: str, ok: bool, detail: str) -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}"
    if _REPORTER is not None:
        _REPORTER.write_line("\n" + line)
    else:
        sys.__stdout__.write(line + "\n")
        sys.__stdout__.flush()
    assert ok, line


@pytest.fixture(scope="module")
def packed_run4():
    """4-VC case study with pixel-packed payloads, used by criteria 2 and 8."""
    return run_case_study(
        4, cycles=200_000, seed=1, payload_kind="pixel-packed", rho=0.995, stream_seed=310,
    )


@pytest.fixture(scope="module")
def msb_runs():
    """Case-study runs with strongly correlated MSB payloads (criteria 5, 6)."""
    return {vc: run_case_study(vc, cycles=100_000, seed=1, **CASE_STUDY_CODING_TRAFFIC)
            for vc in (4, 1)}


def test_criterion_1_switching_accuracy():
    t0 = time.perf_counter()
    rows = mux_accuracy_sweep(runs=100, flits=10_000, seed=1)
    elapsed = time.perf_counter() - t0
    worst_rmse = max(r["rmse_pp"] for r in rows)
    worst_mae = max(r["mae_pp"] for r in rows)
    ok = worst_rmse <= 1.0 and worst_mae <= 4.0 and elapsed < 600.0
    verdict(
        "criterion 1 switching accuracy",
        ok,
        f"{len(rows)} configs x 100 runs, worst RMSE {worst_rmse:.3f} pp"
        f" (<= 1.0), worst MAE {worst_mae:.3f} pp (<= 4.0), {elapsed:.0f} s"
        f" (< 600)",
    )


def test_criterion_2_end_to_end_energy(packed_run4):
    result = packed_run4
    cap2d, cap3d = case_study_cap2d(), case_study_cap3d()
    reports = network_energy_reports(result, cap2d, cap3d)
    errs = {}
    model_total = oracle_total = 0.0
    for link, rep in reports.items():
        cap = cap3d if result.link_vertical[link] else cap2d
        orc = exact_energy(result.link_traces[link], cap, TECH).energy_per_cycle_fj
        assert orc > 0.0, link
        errs[link] = abs(rep.energy_per_cycle_fj - orc) / orc
        model_total += rep.energy_per_cycle_fj
        oracle_total += orc
    worst_link, worst = max(errs.items(), key=lambda kv: kv[1])
    agg = abs(model_total - oracle_total) / oracle_total
    ok = worst < 0.01 and agg < 0.01
    verdict(
        "criterion 2 end-to-end energy error",
        ok,
        f"{len(errs)} active links, worst {worst * 100:.3f}% ({worst_link}),"
        f" aggregate {agg * 100:.3f}% (< 1% each)",
    )


def test_coded_links_against_the_oracle(packed_run4):
    """Criterion 2's bound on the links re-priced for each codec."""
    result = packed_run4
    details, ok = [], True
    for name in ("gray", "invert", "correlator+inv"):
        traces = coded_traces(result, name)
        width = make_codec(name, W).width_out
        cap2d, cap3d = case_study_cap2d(width), case_study_cap3d(width)
        reports = network_energy_reports(result, cap2d, cap3d, traces=traces)
        errs, model_total, oracle_total = {}, 0.0, 0.0
        for link, rep in reports.items():
            cap = cap3d if result.link_vertical[link] else cap2d
            orc = exact_energy(traces[link], cap, TECH).energy_per_cycle_fj
            assert orc > 0.0, (name, link)
            errs[link] = abs(rep.energy_per_cycle_fj - orc) / orc
            model_total += rep.energy_per_cycle_fj
            oracle_total += orc
        worst_link, worst = max(errs.items(), key=lambda kv: kv[1])
        agg = abs(model_total - oracle_total) / oracle_total
        ok &= agg < 0.01
        details.append(f"{name} aggregate {agg * 100:.3f}%, worst link"
                       f" {worst * 100:.3f}% ({worst_link})")
    verdict("coded links against the oracle", ok,
            f"{'; '.join(details)} (aggregate < 1% each)")


def test_criterion_3_mux_energy_trend():
    rows = mux_energy_sweep((0.0, 1.0), runs=5, seed=1)
    lo, hi = rows[0], rows[1]
    r2 = hi["model_2d"] / lo["model_2d"]
    r3 = hi["model_3d"] / lo["model_3d"]
    ok = 1.7 <= r2 <= 2.3 and 1.7 <= r3 <= 2.3
    verdict(
        "criterion 3 mux energy trend",
        ok,
        f"energy/byte ratio mux 1 vs 0: 2D {r2:.2f}x, 3D {r3:.2f}x"
        f" (both in [1.7, 2.3])",
    )


def test_criterion_4_invert_crossover():
    rows = coding_sweep(("invert",), (0.0, 1.0), distribution="uniform", runs=5, seed=1)
    at0 = next(r for r in rows if r["mux_prob"] == 0.0)
    at1 = next(r for r in rows if r["mux_prob"] == 1.0)
    ok = (
        10.0 <= at0["gain_2d_percent"] <= 18.0
        and 10.0 <= at0["gain_3d_percent"] <= 18.0
        and at1["gain_2d_percent"] < 0.0
        and at1["gain_3d_percent"] < 0.0
    )
    verdict(
        "criterion 4 invert-coding crossover",
        ok,
        f"gain at mux 0: 2D {at0['gain_2d_percent']:+.1f}% /"
        f" 3D {at0['gain_3d_percent']:+.1f}% (in [+10, +18]);"
        f" at mux 1: 2D {at1['gain_2d_percent']:+.1f}% /"
        f" 3D {at1['gain_3d_percent']:+.1f}% (< 0)",
    )


def test_criterion_5_coding_ordering(msb_runs):
    cap2d, cap3d = case_study_cap2d(), case_study_cap3d()
    codecs = ["gray", "correlator+inv"]
    vc4 = evaluate_coding(msb_runs[4], codecs, cap2d, cap3d)
    vc1 = evaluate_coding(msb_runs[1], codecs, cap2d, cap3d)
    gap = vc4["correlator+inv"]["gain_percent"] - vc4["gray"]["gain_percent"]
    corr1 = vc1["correlator+inv"]["gain_percent"]
    gray1 = vc1["gray"]["gain_percent"]
    ok = gap >= 10.0 and gray1 > corr1 and corr1 < 0.0
    verdict(
        "criterion 5 coding ordering",
        ok,
        f"4 VCs: correlator {vc4['correlator+inv']['gain_percent']:+.1f}%"
        f" vs gray {vc4['gray']['gain_percent']:+.1f}% (gap {gap:+.1f} pp"
        f" >= 10); 1 VC: gray {gray1:+.1f}% > correlator {corr1:+.1f}% < 0",
    )


def test_criterion_6_standard_model_underestimation():
    # highly correlated payloads on all 16 wires: within one packet the
    # wires barely toggle, so a VC-blind estimate misses most of the
    # switching that interleaving unrelated packets introduces
    result = run_case_study(
        4, cycles=100_000, seed=1, payload_kind="pixel-packed",
        rate=0.0075, rho=0.9999, stream_seed=410,
    )
    cap2d, cap3d = case_study_cap2d(), case_study_cap3d()
    reports = network_energy_reports(result, cap2d, cap3d)
    ratios = {}
    for link in CASE_STUDY_VC_LINKS:
        cap = cap3d if result.link_vertical[link] else cap2d
        orc = exact_energy(result.link_traces[link], cap, TECH).energy_per_cycle_fj
        ratios[link] = orc / reports[link].std_energy_per_cycle_fj
    ok = all(r >= 2.0 for r in ratios.values())
    detail = ", ".join(f"{k} {v:.2f}x" for k, v in ratios.items())
    verdict(
        "criterion 6 standard-model underestimation",
        ok,
        f"oracle / VC-blind energy: {detail} (each >= 2)",
    )


def test_criterion_7_vc_latency():
    lat = {}
    for vc in (4, 1):
        result = run_case_study(vc, cycles=100_000, seed=1, collect_traces=False)
        lat[vc] = float(np.mean(result.flit_latencies))
    ok = lat[4] <= 0.7 * lat[1]
    verdict(
        "criterion 7 VC latency benefit",
        ok,
        f"mean flit latency 4 VCs {lat[4]:.1f} vs 1 VC {lat[1]:.1f} cycles,"
        f" ratio {lat[4] / lat[1]:.2f} (<= 0.7)",
    )


def _check_codec_roundtrips(count: int = 1_000) -> int:
    rng = np.random.default_rng(42)
    names = ("none", "gray", "invert", "correlator", "correlator+inv")
    checked = 0
    for k in range(count):
        width = int(rng.integers(2, 33))
        length = int(rng.integers(2, 64))
        words = rng.integers(0, 1 << width, length, dtype=np.uint64)
        stream = DataStream(words, width)
        codec = make_codec(names[k % len(names)], width)
        back = codec.decode(codec.encode(stream))
        assert np.array_equal(back.words, stream.words), (names[k % 5], width)
        checked += 1
    return checked


def _check_pairwise_switching_bruteforce() -> float:
    """Cross-type switching against exhaustive pair enumeration (4-bit)."""
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(20):
        xs = rng.integers(0, 16, int(rng.integers(2, 10)), dtype=np.uint64)
        ys = rng.integers(0, 16, int(rng.integers(2, 10)), dtype=np.uint64)
        sx = compute_bit_stats(DataStream(xs, 4))
        sy = compute_bit_stats(DataStream(ys, 4))
        model = mux_switching(sx, sy).t
        bx, by = word_bits(xs, 4).astype(float), word_bits(ys, 4).astype(float)
        # every (x word, y word) pair, equally likely under independence
        d = (by[None, :, :] - bx[:, None, :]).reshape(-1, 4)
        corr = d.T @ d / d.shape[0]
        ts = np.diag(corr).copy()
        brute = ts[:, None] - corr
        np.fill_diagonal(brute, ts)
        worst = max(worst, float(np.abs(model - brute).max()))
    return worst


def _check_energy_model_consistency() -> float:
    """A 3D model with zero probability slope must match the 2D model."""
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(20):
        c = rng.uniform(0.0, 100.0, (8, 8))
        c = (c + c.T) / 2.0
        stats = per_type_stats(
            rng.integers(0, 1 << 8, 500, dtype=np.uint64),
            np.zeros(500, dtype=np.int64), 1, 8,
        )
        t = stats.seq_switching[0]
        p = rng.uniform(0.0, 1.0, 8)
        e2 = normalized_energy(t, Capacitance2D(c))
        e3 = normalized_energy(t, Capacitance3D(c, np.zeros((8, 8))), p)
        worst = max(worst, abs(e2 - e3))
    return worst


def _per_cycle_types(trace) -> np.ndarray:
    """Each cycle's flit type in a recorded trace, IDLE when none arrives."""
    types = np.full(len(trace), IDLE, dtype=np.int64)
    types[trace.cycles] = trace.types
    return types


def test_criterion_8_property_suites(packed_run4):
    checks = []

    result = packed_run4
    for dfm in result.data_flow.values():
        dfm.validate()
        assert abs(dfm.m.sum() - 1.0) <= 1e-9
    checks.append(f"M invariants on {len(result.data_flow)} links")

    mismatched = [
        link for link, dfm in result.data_flow.items()
        if not np.array_equal(
            dfm.m,
            data_flow_from_trace(
                _per_cycle_types(result.link_traces[link]), result.n_types, link
            ).m,
        )
    ]
    assert not mismatched, mismatched
    checks.append("observer M equals trace recount")

    checks.append(f"codec roundtrip x{_check_codec_roundtrips()}")

    stress = run_case_study(
        2, cycles=100_000, seed=3, rate=0.02,
        collect_traces=False, check_invariants=True,
    )
    assert stress.injected_flits == stress.ejected_flits + stress.in_flight_flits
    assert stress.injected_flits > 100_000
    checks.append("credit/flit conservation over 1e5 cycles")

    worst_e = _check_energy_model_consistency()
    assert worst_e <= 1e-9
    checks.append("2D/3D energy consistency")

    worst_t = _check_pairwise_switching_bruteforce()
    assert worst_t <= 1e-12
    checks.append(f"cross switching vs brute force ({worst_t:.1e})")

    verdict("criterion 8 property suites", True, "; ".join(checks))


def test_criterion_9_model_speed():
    rng = np.random.default_rng(1)
    n_cyc = 1_000_000
    types = rng.integers(0, 2, n_cyc).astype(np.int64)
    words = rng.integers(0, 1 << W, n_cyc, dtype=np.uint64)
    trace = LinkTrace.from_cycles(words, types, W)
    cap = sweep_cap2d(W)
    # the statistics and M below are what a simulation records online
    stats = per_type_stats(words, types, 2, W)
    m = data_flow_from_trace(types, 2)

    t0 = time.perf_counter()
    orc = exact_energy(trace, cap, TECH)
    t_oracle = time.perf_counter() - t0

    t_model = min(
        _timed(lambda: link_energy_report(stats, m, cap, TECH)) for _ in range(10)
    )
    rep = link_energy_report(stats, m, cap, TECH)
    assert rep.energy_per_cycle_fj == pytest.approx(
        orc.energy_per_cycle_fj, rel=0.02
    )
    speedup = t_oracle / t_model
    verdict(
        "criterion 9 model speed",
        speedup >= 100.0,
        f"1e6-cycle trace: oracle {t_oracle * 1e3:.0f} ms,"
        f" model {t_model * 1e6:.0f} us, speedup {speedup:.0f}x (>= 100x)",
    )


def _timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0
