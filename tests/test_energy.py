import numpy as np
import pytest

from noclink.energy import (
    Capacitance2D,
    Capacitance3D,
    CapacitanceError,
    TechnologyParams,
    absolute_energy_fj,
    effective_tsv_capacitance,
    energy_2d,
    energy_3d,
    load_capacitance_model,
    save_capacitance_model,
    template_2d_bus,
    template_3d_tsv,
)
from noclink.linkmodel import link_energy_report
from noclink.oracle import IDLE, LinkTrace, TraceError, exact_energy
from noclink.reporting import data_flow_from_trace
from noclink.streams import SwitchingMatrix
from noclink.sweeps import per_type_stats

TECH = TechnologyParams(vdd=1.1, clock_period=1e-9)


def sw(matrix):
    return SwitchingMatrix(np.asarray(matrix, dtype=float))


class TestTemplates:
    def test_2d_two_bit(self):
        c = template_2d_bus(2, 100.0, 50.0, 1)
        assert np.allclose(c.c, [[100.0, 50.0], [50.0, 100.0]])

    def test_2d_zero_ground_tridiagonal(self):
        c = template_2d_bus(3, 0.0, 50.0, 1).c
        assert np.allclose(np.diag(c), 0.0)
        assert c[0, 1] == 50.0 and c[0, 2] == 0.0

    def test_2d_distance_scaling(self):
        c = template_2d_bus(4, 100.0, 60.0, 2).c
        assert c[1, 3] == pytest.approx(30.0)

    def test_3d_grid_adjacency(self):
        m = template_3d_tsv(2, 2, 80.0, -10.0, 40.0, -5.0)
        # each TSV couples to 2 side neighbors and 1 diagonal neighbor
        off = m.ct0.copy()
        np.fill_diagonal(off, 0.0)
        assert np.count_nonzero(off[0]) == 3
        assert off[0, 3] == pytest.approx(80.0 / np.sqrt(2.0))

    def test_3d_zero_slope(self):
        m = template_3d_tsv(2, 2, 80.0, 0.0, 40.0, 0.0)
        assert np.allclose(m.dct, 0.0)

    def test_3d_dimensions(self):
        m = template_3d_tsv(4, 4, 80.0, -10.0, 40.0, -5.0)
        assert m.ct0.shape == (16, 16)


class TestEffectiveCapacitance:
    def test_linear_evaluation(self):
        m = Capacitance3D(np.full((2, 2), 100.0), np.full((2, 2), -20.0))
        c = effective_tsv_capacitance(m, np.array([1.0, 1.0]))
        assert c[0, 1] == pytest.approx(60.0)

    def test_zero_probability_gives_ct0(self):
        m = Capacitance3D(np.full((2, 2), 100.0), np.full((2, 2), -20.0))
        assert np.allclose(effective_tsv_capacitance(m, np.zeros(2)), 100.0)

    def test_half_probability(self):
        m = Capacitance3D(np.full((2, 2), 100.0), np.full((2, 2), -20.0))
        c = effective_tsv_capacitance(m, np.array([0.5, 0.5]))
        assert c[0, 0] == pytest.approx(80.0)

    def test_length_mismatch(self):
        m = Capacitance3D(np.full((2, 2), 100.0), np.zeros((2, 2)))
        with pytest.raises(CapacitanceError):
            effective_tsv_capacitance(m, np.zeros(3))


class TestEnergy:
    def test_2d_direct_summation(self):
        # frozen from summing every T_ij * C_ij term by hand
        t = sw([[0.5, 0.5], [0.5, 0.5]])
        c = Capacitance2D(np.array([[100.0, 50.0], [50.0, 100.0]]))
        assert energy_2d(t, c) == pytest.approx(150.0)

    def test_zero_switching(self):
        c = template_2d_bus(4, 100.0, 50.0, 1)
        assert energy_2d(sw(np.zeros((4, 4))), c) == 0.0

    def test_diagonal_only_capacitance(self):
        rng = np.random.default_rng(0)
        ts = rng.random(4)
        t = np.zeros((4, 4))
        np.fill_diagonal(t, ts)
        diag = rng.random(4) * 100
        c = Capacitance2D(np.diag(diag))
        assert energy_2d(sw(t), c) == pytest.approx(float(ts @ diag))

    def test_3d_zero_slope_equals_2d(self):
        ct0 = template_2d_bus(4, 100.0, 50.0, 1).c
        m3 = Capacitance3D(ct0, np.zeros((4, 4)))
        t = sw(np.random.default_rng(1).random((4, 4)))
        p = np.random.default_rng(2).random(4)
        assert energy_3d(t, p, m3) == pytest.approx(energy_2d(t, Capacitance2D(ct0)))

    def test_3d_hand_evaluation(self):
        # frozen: p = 1 everywhere scales every entry by 1 - 2*0.2 = 0.6
        ct0 = np.array([[100.0, 50.0], [50.0, 100.0]])
        m3 = Capacitance3D(ct0, -0.2 * ct0)
        t = sw([[0.5, 0.5], [0.5, 0.5]])
        assert energy_3d(t, np.array([1.0, 1.0]), m3) == pytest.approx(90.0)

    def test_3d_consistency_identity(self):
        rng = np.random.default_rng(3)
        m3 = template_3d_tsv(2, 2, 80.0, -12.0, 40.0, -6.0)
        for _ in range(20):
            t = sw(rng.random((4, 4)))
            p = rng.random(4)
            c_eff = Capacitance2D(effective_tsv_capacitance(m3, p))
            assert energy_3d(t, p, m3) == pytest.approx(energy_2d(t, c_eff))

    def test_linearity_in_switching(self):
        c = template_2d_bus(4, 100.0, 50.0, 2)
        t = np.random.default_rng(5).random((4, 4))
        base = energy_2d(sw(t), c)
        for alpha in (0.0, 0.5, 3.0):
            assert energy_2d(sw(alpha * t), c) == pytest.approx(alpha * base)

    def test_absolute_energy(self):
        tech = TechnologyParams(vdd=1.1, clock_period=1e-9)
        assert absolute_energy_fj(1000.0, tech) == pytest.approx(1000.0 * 1e-3 * 1.21 / 2)

    def test_dimension_mismatch(self):
        c = template_2d_bus(4, 100.0, 50.0, 1)
        with pytest.raises(CapacitanceError):
            energy_2d(sw(np.zeros((3, 3))), c)


class TestValidationAndIO:
    def test_asymmetric_rejected(self):
        with pytest.raises(CapacitanceError, match="asymmetric"):
            Capacitance2D(np.array([[1.0, 2.0], [3.0, 1.0]]))

    def test_3d_dimension_mismatch(self):
        with pytest.raises(CapacitanceError, match="mismatch"):
            Capacitance3D(np.eye(16), np.eye(15))

    def test_3d_unphysical_slope(self):
        with pytest.raises(CapacitanceError):
            Capacitance3D(np.full((2, 2), 10.0), np.full((2, 2), -6.0))

    def test_2d_roundtrip(self, tmp_path):
        c = template_2d_bus(8, 100.0, 60.0, 2)
        p = tmp_path / "bus.csv"
        save_capacitance_model(p, c)
        back = load_capacitance_model(p, "2d")
        assert np.allclose(back.c, c.c)

    def test_3d_roundtrip(self, tmp_path):
        m = template_3d_tsv(4, 4, 80.0, -12.0, 40.0, -6.0)
        base = tmp_path / "tsv"
        save_capacitance_model(base, m)
        back = load_capacitance_model(base, "3d")
        assert isinstance(back, Capacitance3D)
        assert back.width == 16
        assert np.allclose(back.dct, m.dct)

    def test_bad_technology(self):
        with pytest.raises(CapacitanceError):
            TechnologyParams(vdd=0.0, clock_period=1e-9)


# --- the model and the oracle price a link alike -------------------------------

CAPS = {
    "2d": lambda width: template_2d_bus(width, 100.0, 50.0, 2),
    "3d": lambda width: template_3d_tsv(1, width, 80.0, -12.0, 40.0, -6.0),
}


def _priced(cap, width=4):
    """The model's and the oracle's report on one two-type link of ``width`` bits."""
    words = np.array([3, 5, 0, 9, 9, 14, 1, 6], dtype=np.uint64) % (1 << width)
    types = np.array([0, 1, IDLE, 0, 1, 1, IDLE, 0])
    stats = per_type_stats(words, types, 2, width)
    model = link_energy_report(stats, data_flow_from_trace(types, 2), cap, TECH, link="a")
    oracle = exact_energy(LinkTrace.from_cycles(words, types, width), cap, TECH, link="a")
    return model, oracle


class TestOnePricing:
    def test_report_key_order(self):
        model, oracle = _priced(CAPS["3d"](4))
        assert list(model.to_dict()) == [
            "link", "kind", "normalized_per_cycle_af", "energy_per_cycle_fj",
            "active_fraction", "energy_per_flit_fj", "payload_bytes_per_cycle",
            "energy_per_byte_fj", "std_normalized_per_cycle_af",
            "std_energy_per_cycle_fj", "std_energy_per_flit_fj",
            "std_energy_per_byte_fj", "p_link",
        ]
        assert list(oracle.to_dict()) == [
            "link", "kind", "cycles", "active_cycles", "normalized_total_af",
            "normalized_per_cycle_af", "energy_per_cycle_fj", "total_fj",
            "energy_per_flit_fj", "p",
        ]
        assert model.to_dict()["p_link"] == list(map(float, model.p_link))
        assert oracle.to_dict()["p"] == list(map(float, oracle.p))

    @pytest.mark.parametrize("kind", sorted(CAPS))
    def test_report_kind_is_the_capacitance_kind(self, kind):
        cap = CAPS[kind](4)
        assert cap.kind == kind
        model, oracle = _priced(cap)
        assert model.kind == oracle.kind == kind

    @pytest.mark.parametrize("kind", sorted(CAPS))
    def test_width_mismatch_errors(self, kind):
        cap = CAPS[kind](8)
        with pytest.raises(CapacitanceError, match="switching width 4"):
            _priced(cap, width=4)
        with pytest.raises(TraceError, match="trace width 4"):
            exact_energy(LinkTrace.from_cycles([1, 2], [0, 0], 4), cap, TECH)

    @pytest.mark.parametrize("kind", sorted(CAPS))
    def test_capacitance_at_p(self, kind):
        cap = CAPS[kind](4)
        p = np.array([0.0, 0.25, 0.5, 1.0])
        expect = cap.c if kind == "2d" else effective_tsv_capacitance(cap, p)
        assert np.array_equal(cap.at(p), expect)
