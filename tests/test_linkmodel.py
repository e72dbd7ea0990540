import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from noclink.energy import TechnologyParams, template_2d_bus, template_3d_tsv
from noclink.linkmodel import (
    DataFlowMatrix,
    LinkModelError,
    LinkTypeStats,
    link_bit_probabilities,
    link_energy_report,
    link_switching,
    load_data_flow_matrix,
    mux_switching,
    save_data_flow_matrix,
    standard_link_switching,
)
from noclink.oracle import LinkTrace, exact_switching
from noclink.reporting import data_flow_from_trace
from noclink.sweeps import case_study_cap2d, case_study_cap3d, per_type_stats, run_case_study
from noclink.streams import (
    BitStats,
    StreamSpec,
    SwitchingMatrix,
    compute_bit_stats,
    compute_sequential_switching,
    generate_stream,
    multiplex_streams,
)

TECH = TechnologyParams(vdd=1.1, clock_period=1e-9)


def stats_for(streams):
    return LinkTypeStats(
        [compute_bit_stats(s) for s in streams],
        [compute_sequential_switching(s) for s in streams],
    )


def brute_force_cross_switching(sx, sy):
    """Independent oracle: enumerate all value pairs weighted by frequency."""
    width = sx.width
    size = 1 << width
    fx = np.bincount(sx.words.astype(int), minlength=size) / len(sx)
    fy = np.bincount(sy.words.astype(int), minlength=size) / len(sy)
    bits = ((np.arange(size)[:, None] >> np.arange(width)) & 1).astype(float)
    t = np.zeros((width, width))
    for a in range(size):
        if fx[a] == 0.0:
            continue
        for b in range(size):
            if fy[b] == 0.0:
                continue
            db = bits[b] - bits[a]
            w = fx[a] * fy[b]
            corr = np.outer(db, db)
            contrib = np.diag(corr)[:, None] - corr
            np.fill_diagonal(contrib, np.diag(corr))
            t += w * contrib
    return t


class TestMuxSwitching:
    def test_forced_same_direction_toggle(self):
        zeros = BitStats(np.zeros((2, 2)))
        ones = BitStats(np.ones((2, 2)))
        t = mux_switching(zeros, ones)
        assert np.allclose(np.diag(t.t), 1.0)
        assert t.t[0, 1] == pytest.approx(0.0)

    def test_independent_uniform_bits(self):
        s = np.full((2, 2), 0.25)
        np.fill_diagonal(s, 0.5)
        t = mux_switching(BitStats(s), BitStats(s.copy()))
        assert np.allclose(np.diag(t.t), 0.5)
        assert t.t[0, 1] == pytest.approx(0.5)

    def test_matches_brute_force_enumeration(self):
        a = generate_stream(StreamSpec("uniform", 4, 1000, seed=1))
        b = generate_stream(StreamSpec("gaussian", 4, 1000, sigma=4.0, rho=0.8, seed=2))
        model = mux_switching(compute_bit_stats(a), compute_bit_stats(b))
        brute = brute_force_cross_switching(a, b)
        assert np.abs(model.t - brute).max() < 1e-12

    def test_width_mismatch(self):
        with pytest.raises(LinkModelError):
            mux_switching(BitStats(np.zeros((2, 2))), BitStats(np.zeros((3, 3))))


def single_type_matrix():
    m = np.zeros((2, 2))
    m[0, 0] = 1.0
    return DataFlowMatrix(m, 1)


class TestLinkSwitching:
    def test_single_always_active_stream(self):
        s = generate_stream(StreamSpec("uniform", 8, 500, seed=3))
        st = stats_for([s])
        t = link_switching(st, single_type_matrix())
        assert np.allclose(t.t, st.seq_switching[0].t)

    def test_direct_weighted_sum(self):
        a = generate_stream(StreamSpec("uniform", 4, 300, seed=1))
        b = generate_stream(StreamSpec("uniform", 4, 300, seed=2))
        st = stats_for([a, b])
        m = np.zeros((4, 4))
        m[0, 0], m[0, 1], m[1, 0], m[1, 1] = 0.5, 0.2, 0.2, 0.1
        dfm = DataFlowMatrix(m, 2)
        t = link_switching(st, dfm)
        expect = (
            0.5 * st.seq_switching[0].t
            + 0.2 * mux_switching(st.bit_stats[0], st.bit_stats[1]).t
            + 0.2 * mux_switching(st.bit_stats[1], st.bit_stats[0]).t
            + 0.1 * st.seq_switching[1].t
        )
        assert np.allclose(t.t, expect)

    def test_trace_recorded_m_matches_oracle(self):
        specs = [
            StreamSpec("gaussian", 16, 10_000, sigma=256.0, rho=0.9, seed=10),
            StreamSpec("uniform", 16, 10_000, seed=11),
        ]
        streams = [generate_stream(s) for s in specs]
        mux, trace = multiplex_streams(streams, 0.4, seed=12)
        consumed = [int((trace == i).sum()) for i in range(2)]
        st = stats_for([
            type(s)(s.words[: max(consumed[i], 2)], s.width)
            for i, s in enumerate(streams)
        ])
        dfm = data_flow_from_trace(trace, 2)
        model = link_switching(st, dfm)
        oracle, _ = exact_switching(
            LinkTrace.from_cycles(mux.words, np.zeros(len(mux), dtype=np.int64) + trace, 16)
        )
        rmse = np.sqrt(np.mean((model.t - oracle.t) ** 2))
        assert rmse < 0.01  # 1 percentage point

    def test_linearity_in_m(self):
        a = generate_stream(StreamSpec("uniform", 4, 300, seed=1))
        b = generate_stream(StreamSpec("uniform", 4, 300, seed=2))
        st = stats_for([a, b])
        rng = np.random.default_rng(0)
        w = rng.random((2, 2))

        def dfm_from_active(act, scale):
            m = np.zeros((4, 4))
            m[:2, :2] = act * scale
            m[2, 2] = 1.0 - m.sum()
            return DataFlowMatrix(m, 2)

        t_half = link_switching(st, dfm_from_active(w / w.sum(), 0.5))
        t_full = link_switching(st, dfm_from_active(w / w.sum(), 1.0))
        assert np.allclose(2.0 * t_half.t, t_full.t)


class TestStandardModel:
    def test_single_type_identical(self):
        s = generate_stream(StreamSpec("uniform", 8, 500, seed=3))
        st = stats_for([s])
        m = single_type_matrix()
        assert np.allclose(
            standard_link_switching(st, m).t, link_switching(st, m).t
        )

    def test_uniform_iid_streams_agree(self):
        a = generate_stream(StreamSpec("uniform", 16, 40_000, seed=4))
        b = generate_stream(StreamSpec("uniform", 16, 40_000, seed=5))
        st = stats_for([a, b])
        m = np.zeros((4, 4))
        m[0, 1] = m[1, 0] = 0.5  # fully alternating
        dfm = DataFlowMatrix(m, 2)
        t_std = standard_link_switching(st, dfm)
        t_link = link_switching(st, dfm)
        assert np.abs(t_std.t - t_link.t).max() < 0.01

    def test_correlated_streams_underestimated(self):
        a = generate_stream(StreamSpec("gaussian", 16, 40_000, sigma=256.0, rho=0.999, seed=6))
        b = generate_stream(StreamSpec("gaussian", 16, 40_000, sigma=256.0, rho=0.999, seed=7))
        st = stats_for([a, b])
        m = np.zeros((4, 4))
        m[0, 1] = m[1, 0] = 0.5
        dfm = DataFlowMatrix(m, 2)
        mux, trace = multiplex_streams([a, b], 1.0, seed=8)
        oracle, _ = exact_switching(LinkTrace.from_cycles(mux.words, trace, 16))
        std_diag = np.diag(standard_link_switching(st, dfm).t).sum()
        oracle_diag = np.diag(oracle.t).sum()
        assert oracle_diag / std_diag >= 2.0


class TestBitProbabilities:
    def test_single_type(self):
        s = generate_stream(StreamSpec("uniform", 8, 500, seed=3))
        st = stats_for([s])
        p = link_bit_probabilities(st, single_type_matrix())
        assert np.allclose(p, st.bit_stats[0].p)

    def test_fully_idle_link(self):
        s = generate_stream(StreamSpec("uniform", 8, 500, seed=3))
        st = stats_for([s])
        m = np.zeros((2, 2))
        m[1, 1] = 1.0
        p = link_bit_probabilities(st, DataFlowMatrix(m, 1))
        assert np.allclose(p, st.bit_stats[0].p)
        p_lit = link_bit_probabilities(st, DataFlowMatrix(m, 1), literal=True)
        assert np.allclose(p_lit, 0.0)

    def test_weights_sum_to_one(self):
        a = generate_stream(StreamSpec("uniform", 8, 400, seed=1))
        b = generate_stream(StreamSpec("uniform", 8, 400, seed=2))
        # trace with idle stretches (-1 idles hold the previous type)
        states = [0, 0, -1, -1, 1, 0, -1, 1, 1, -1, 0, 1]
        dfm = data_flow_from_trace(states, 2)
        ones = LinkTypeStats(
            [BitStats(np.ones((4, 4))), BitStats(np.ones((4, 4)))],
            [compute_sequential_switching(s) for s in (
                generate_stream(StreamSpec("uniform", 4, 10, seed=1)),
                generate_stream(StreamSpec("uniform", 4, 10, seed=2)),
            )],
        )
        p = link_bit_probabilities(ones, dfm)
        assert np.allclose(p, 1.0)  # all-ones p with weights summing to exactly 1


def reference_link_switching(stats, m):
    """The pair loop form of ``link_switching``, kept as its reference."""
    n = m.n
    t = np.zeros((stats.width, stats.width))
    for x in range(n):
        for y in range(n):
            w = m.m[x, y] + m.m[x + n, y]
            if w != 0.0:
                if x == y:
                    t += w * stats.seq_switching[x].t
                else:
                    t += w * mux_switching(stats.bit_stats[x], stats.bit_stats[y]).t
    return t


def reference_standard_link_switching(stats, m):
    t = np.zeros((stats.width, stats.width))
    for y, f in enumerate(m.m[:, : m.n].sum(axis=0)):
        if f != 0.0:
            t += f * stats.seq_switching[y].t
    return t


def reference_link_bit_probabilities(stats, m, literal):
    n = m.n
    p = np.zeros(stats.width)
    for y in range(n):
        w = m.m[:, y].sum() + m.m[:n, y + n].sum()
        if not literal:
            w += m.m[y + n, y + n]
        p += w * stats.bit_stats[y].p
    return p


def random_type_stats(rng, n, width):
    """Statistics of n short random bit sequences, one per type."""
    bit_stats, seq = [], []
    for _ in range(n):
        length = int(rng.integers(2, 8))
        bits = (rng.random((length, width)) < rng.random()).astype(np.float64)
        d = np.diff(bits, axis=0)
        bit_stats.append(BitStats(bits.T @ bits / length))
        seq.append(SwitchingMatrix.from_products(d.T @ d / (length - 1)))
    return LinkTypeStats(bit_stats, seq)


def random_data_flow(rng, n, density, idle_share):
    """A valid M: any active or idle-to-active pair, held-type idle blocks."""
    def sparse(shape):
        return rng.random(shape) * (rng.random(shape) < density)

    m = np.zeros((2 * n, 2 * n))
    m[:n, :n] = sparse((n, n))
    m[n:, :n] = sparse((n, n))
    if m.sum() > 0.0:
        m /= m.sum() / (1.0 - idle_share)
    else:
        idle_share = 1.0
    idle = np.zeros((2, n))
    idle[:, rng.integers(0, n)] = 1.0  # keep some held-type mass
    idle += sparse((2, n))
    idle *= idle_share / idle.sum()
    m[:n, n:] = np.diag(idle[0])
    m[n:, n:] = np.diag(idle[1])
    return DataFlowMatrix(m, n)


def assert_close(value, reference, rel=1e-9):
    assert np.abs(value - reference).max() <= rel * np.abs(reference).max()


class TestClosedForm:
    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(1, 40),
        width=st.integers(1, 64),
        seed=st.integers(0, 2**32 - 1),
        density=st.sampled_from([0.0, 0.05, 0.3, 1.0]),
        idle_share=st.sampled_from([0.0, 0.2, 0.9]),
    )
    def test_equals_pair_loop(self, n, width, seed, density, idle_share):
        rng = np.random.default_rng(seed)
        stats = random_type_stats(rng, n, width)
        m = random_data_flow(rng, n, density, idle_share)
        assert_close(link_switching(stats, m).t, reference_link_switching(stats, m))
        assert_close(standard_link_switching(stats, m).t,
                     reference_standard_link_switching(stats, m))
        for literal in (False, True):
            assert_close(link_bit_probabilities(stats, m, literal=literal),
                         reference_link_bit_probabilities(stats, m, literal))

    def test_stacked_statistics(self):
        st_ = random_type_stats(np.random.default_rng(1), 3, 5)
        assert st_.s.shape == (3, 5, 5) and st_.t_seq.shape == (3, 5, 5)
        for k in range(3):
            assert np.array_equal(st_.s[k], st_.bit_stats[k].s)
            assert np.array_equal(st_.p[k], st_.bit_stats[k].p)
            assert np.array_equal(st_.t_seq[k], st_.seq_switching[k].t)


class TestRejections:
    def stats(self, n, width=2):
        return random_type_stats(np.random.default_rng(0), n, width)

    def test_type_stats_count_mismatch(self):
        two = self.stats(2)
        with pytest.raises(LinkModelError, match="count mismatch"):
            LinkTypeStats(two.bit_stats, two.seq_switching[:1])

    def test_type_stats_empty(self):
        with pytest.raises(LinkModelError, match="at least one type"):
            LinkTypeStats([], [])

    def test_type_stats_mixed_widths(self):
        narrow, wide = self.stats(1, 2), self.stats(1, 3)
        with pytest.raises(LinkModelError, match="one width"):
            LinkTypeStats(narrow.bit_stats + wide.bit_stats,
                          narrow.seq_switching + narrow.seq_switching)
        with pytest.raises(LinkModelError, match="one width"):
            LinkTypeStats(narrow.bit_stats, wide.seq_switching)

    @pytest.mark.parametrize("estimate", [
        link_switching, standard_link_switching, link_bit_probabilities,
    ])
    def test_type_count_differs_from_m(self, estimate):
        with pytest.raises(LinkModelError, match="type count mismatch"):
            estimate(self.stats(2), single_type_matrix())


def reference_validate(m, n, atol=1e-9):
    """The loop form of ``DataFlowMatrix.validate``, kept as its reference."""
    if m.shape != (2 * n, 2 * n):
        raise LinkModelError(f"M must be {2 * n}x{2 * n}, got {m.shape}")
    if m.min() < -atol:
        raise LinkModelError("M entries must be non-negative")
    if abs(m.sum() - 1.0) > max(atol, 1e-9):
        raise LinkModelError(f"M entries must sum to 1, got {m.sum()}")
    for x in range(n):
        for y in range(n):
            if y != x:
                if m[x + n, y + n] > atol:
                    raise LinkModelError("idle cycles cannot change the held type")
                if m[x, y + n] > atol:
                    raise LinkModelError("entering idle must preserve the held type")


def outcome(check, *args):
    try:
        check(*args)
    except LinkModelError as exc:
        return str(exc)
    return None


class TestDataFlowMatrix:
    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1),
        planted=st.lists(st.tuples(st.booleans(), st.integers(0, 5), st.integers(0, 4),
                                   st.sampled_from([1e-10, 1e-9, 2e-9, 1e-3, 0.1])),
                         max_size=4),
    )
    def test_array_check_equals_loop(self, n, seed, planted):
        # a valid M (the held-type blocks diagonal), then violations planted
        # off the diagonal of the idle-to-idle block, the active-to-idle
        # block or both; some sit at or below the tolerance
        rng = np.random.default_rng(seed)
        m = rng.random((2 * n, 2 * n)) * (rng.random((2 * n, 2 * n)) < 0.5) + 1e-3
        off = ~np.eye(n, dtype=bool)
        m[n:, n:][off] = 0.0
        m[:n, n:][off] = 0.0
        m *= 0.5 / m.sum()
        for idle_block, x, dy, value in planted:
            x %= n
            y = (x + 1 + dy) % n
            if y != x:
                m[x + n if idle_block else x, y + n] = value
        m[-1, -1] += 1.0 - m.sum()
        expected = outcome(reference_validate, m, n)
        assert outcome(DataFlowMatrix, m, n) == expected
        if not planted:
            assert expected is None

    def test_invariant_violations(self):
        m = np.zeros((4, 4))
        m[2, 3] = 1.0  # idle changes held type
        with pytest.raises(LinkModelError):
            DataFlowMatrix(m, 2)
        m = np.zeros((4, 4))
        m[0, 3] = 1.0  # entering idle switches type
        with pytest.raises(LinkModelError):
            DataFlowMatrix(m, 2)
        m = np.zeros((4, 4))
        m[0, 0] = 0.5
        with pytest.raises(LinkModelError):
            DataFlowMatrix(m, 2)

    def test_csv_roundtrip(self, tmp_path):
        states = [0, 1, -1, 0, 1, -1, 1, 0]
        dfm = data_flow_from_trace(states, 2)
        path = tmp_path / "m.csv"
        save_data_flow_matrix(path, dfm, len(states), "a->b")
        back, cycles, link = load_data_flow_matrix(path)
        assert cycles == len(states)
        assert link == "a->b"
        assert np.allclose(back.m, dfm.m)


class TestEnergyReport:
    def test_all_idle(self):
        s = generate_stream(StreamSpec("uniform", 4, 100, seed=1))
        st = stats_for([s])
        m = np.zeros((2, 2))
        m[1, 1] = 1.0
        rep = link_energy_report(
            st, DataFlowMatrix(m, 1), template_2d_bus(4, 100.0, 50.0), TECH
        )
        assert rep.energy_per_cycle_fj == 0.0
        assert rep.energy_per_flit_fj is None

    def test_uniform_closed_form(self):
        s = generate_stream(StreamSpec("uniform", 8, 200_000, seed=2))
        st = stats_for([s])
        diag = np.full(8, 120.0)
        rep = link_energy_report(
            st, single_type_matrix(),
            template_2d_bus(8, 120.0, 0.0), TECH,
        )
        expect = float(np.sum(0.5 * diag)) * 1e-3 * TECH.vdd**2 / 2
        assert rep.energy_per_cycle_fj == pytest.approx(expect, rel=0.02)

    def test_3d_report_uses_probabilities(self):
        s = generate_stream(StreamSpec("uniform", 4, 5000, seed=3))
        st = stats_for([s])
        cap = template_3d_tsv(2, 2, 80.0, -12.0, 40.0, -6.0)
        rep = link_energy_report(st, single_type_matrix(), cap, TECH)
        assert rep.kind == "3d"
        assert rep.energy_per_cycle_fj < link_energy_report(
            st, single_type_matrix(),
            template_3d_tsv(2, 2, 80.0, 0.0, 40.0, 0.0), TECH,
        ).energy_per_cycle_fj  # negative slope at p~0.5 lowers the capacitance

    def test_payload_accounting(self):
        s = generate_stream(StreamSpec("uniform", 8, 5000, seed=4))
        st = stats_for([s])
        rep = link_energy_report(
            st, single_type_matrix(), template_2d_bus(8, 100.0, 50.0), TECH,
            payload_bits=8,
        )
        assert rep.payload_bytes_per_cycle == pytest.approx(1.0)
        assert rep.energy_per_byte_fj == pytest.approx(rep.energy_per_cycle_fj)


class TestCompactPricing:
    @pytest.mark.parametrize("vc_count", [4, 1])
    def test_compact_equals_dense_on_case_study_links(self, vc_count):
        # a type a link never carried has zero weight in every term, so
        # pricing its carried types alone moves at most the summation order
        result = run_case_study(vc_count, cycles=20_000, seed=2)
        n = result.n_types
        carried = []
        for link, dfm in result.data_flow.items():
            trace = result.link_traces[link]
            cap = (case_study_cap3d if result.link_vertical[link] else case_study_cap2d)()
            kw = dict(link=link, payload_bits=result.flit_width, head_type=n - 1)
            compact = link_energy_report(
                per_type_stats(trace.words, trace.types, dfm.types, trace.width),
                dfm, cap, TECH, **kw).to_dict()
            dense = link_energy_report(
                per_type_stats(trace.words, trace.types, n, trace.width),
                DataFlowMatrix(dfm.m, n), cap, TECH, **kw).to_dict()
            assert compact.keys() == dense.keys()
            for key, value in dense.items():
                if isinstance(value, (float, list)):
                    assert np.allclose(compact[key], value, rtol=1e-15, atol=0.0), (link, key)
                else:
                    assert compact[key] == value, (link, key)
            carried.append(dfm.k)
        assert min(carried) < n  # some link leaves types out
