import hashlib
import json

import numpy as np
import pytest

from noclink.cli import main
from noclink.energy import save_capacitance_model, template_2d_bus, template_3d_tsv
from noclink.streams import DataStream, write_stream_binary

CONFIG = """\
<simulation>
  <nodeTypes>
    <nodeType id="0">
      <model value="RouterVC"/>
      <routing value="XYZ"/>
      <selection value="RoundRobin"/>
      <arbitration value="fair"/>
      <clockDelay value="1"/>
    </nodeType>
    <nodeType id="1">
      <model value="ProcessingElementVC"/>
      <clockDelay value="2"/>
    </nodeType>
  </nodeTypes>
  <topology>
    <node id="A" x="0" y="0" z="0"/>
    <node id="B" x="1" y="0" z="0"/>
    <node id="C" x="1" y="0" z="1"/>
  </topology>
  <flitWidth value="16"/>
  <bufferDepth value="4"/>
  <vcCount value="2"/>
  <flitsPerPacket value="8"/>
  <traffic>
    <flow src="A" dst="C" rate="0.02" payload="gaussian" sigma="256" rho="0.99" seed="1"/>
    <flow src="B" dst="C" rate="0.02" payload="uniform" seed="2"/>
  </traffic>
</simulation>
"""


@pytest.fixture()
def config_path(tmp_path):
    path = tmp_path / "sim.xml"
    path.write_text(CONFIG)
    return path


@pytest.fixture()
def cap_files(tmp_path):
    cap2d = tmp_path / "cap2d.npz"
    cap3d = tmp_path / "cap3d.npz"
    save_capacitance_model(cap2d, template_2d_bus(16, 120.0, 40.0, 1))
    save_capacitance_model(cap3d, template_3d_tsv(4, 4, 40.0, -2.0, 120.0, -6.0))
    return str(cap2d), str(cap3d)


def run_simulate(config_path, out, extra=()):
    return main([
        "simulate", "--config", str(config_path), "--out", str(out),
        "--cycles", "5000", "--seed", "3", *extra,
    ])


class TestSimulate:
    def test_artifacts(self, config_path, tmp_path):
        out = tmp_path / "run"
        assert run_simulate(config_path, out) == 0
        for name in ("meta.json", "traces.npz", "summary.json", "config.xml"):
            assert (out / name).exists()
        assert (out / "M_A__B.csv").exists()

    def test_seed_reproducibility(self, config_path, tmp_path):
        run_simulate(config_path, tmp_path / "r1")
        run_simulate(config_path, tmp_path / "r2")
        a = (tmp_path / "r1" / "summary.json").read_text()
        b = (tmp_path / "r2" / "summary.json").read_text()
        assert a == b

    def test_bad_config_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.xml"
        bad.write_text("<simulation><mystery/></simulation>")
        code = main(["simulate", "--config", str(bad), "--out", str(tmp_path / "x")])
        assert code == 1
        assert "error" in capsys.readouterr().err


class TestAnalyze:
    def test_matches_inline_energy_bit_identical(self, config_path, tmp_path, cap_files):
        out = tmp_path / "run"
        cap2d, cap3d = cap_files
        run_simulate(config_path, out, ("--cap2d", cap2d, "--cap3d", cap3d))
        inline = json.loads((out / "energy.json").read_text())
        assert main([
            "analyze", "--run", str(out), "--cap2d", cap2d, "--cap3d", cap3d,
            "--out", str(tmp_path / "post"),
        ]) == 0
        post = json.loads((tmp_path / "post" / "energy.json").read_text())
        assert post == inline

    def test_codec_reanalysis_without_resimulation(self, config_path, tmp_path):
        out = tmp_path / "run"
        run_simulate(config_path, out)
        assert main(["analyze", "--run", str(out), "--codec", "correlator"]) == 0
        coded = json.loads((out / "energy_correlator.json").read_text())
        assert main(["analyze", "--run", str(out)]) == 0
        plain = json.loads((out / "energy.json").read_text())
        assert set(coded) == set(plain)
        assert any(
            coded[k]["energy_per_cycle_fj"] != plain[k]["energy_per_cycle_fj"]
            for k in plain
        )

    def test_missing_run_exit_1(self, tmp_path):
        assert main(["analyze", "--run", str(tmp_path / "absent")]) == 1

    def test_invert_with_default_capacitances(self, config_path, tmp_path):
        # bus invert adds a wire; the default templates follow the coded width
        out = tmp_path / "run"
        run_simulate(config_path, out)
        assert main(["analyze", "--run", str(out)]) == 0
        assert main(["analyze", "--run", str(out), "--codec", "invert"]) == 0
        plain = json.loads((out / "energy.json").read_text())
        coded = json.loads((out / "energy_invert.json").read_text())
        assert set(coded) == set(plain)
        assert all(len(rep["p_link"]) == 17 for rep in coded.values())

    def test_coded_width_over_64_exit_1(self, tmp_path, capsys):
        config = tmp_path / "wide.xml"
        config.write_text(
            CONFIG.replace('<flitWidth value="16"/>', '<flitWidth value="64"/>')
            .replace('payload="gaussian" sigma="256" rho="0.99"', 'payload="uniform"')
        )
        out = tmp_path / "run"
        assert main([
            "simulate", "--config", str(config), "--out", str(out), "--cycles", "500",
        ]) == 0
        capsys.readouterr()
        assert main(["analyze", "--run", str(out), "--codec", "invert"]) == 1
        assert "64" in capsys.readouterr().err

    def test_run_without_recorded_payloads_exit_1(self, config_path, tmp_path, capsys):
        out = tmp_path / "run"
        run_simulate(config_path, out)
        meta = json.loads((out / "meta.json").read_text())
        del meta["format"]  # the layout written before payloads were recorded
        (out / "meta.json").write_text(json.dumps(meta))
        capsys.readouterr()
        assert main(["analyze", "--run", str(out)]) == 1
        assert "re-run `noclink simulate`" in capsys.readouterr().err


class TestOracle:
    def test_protocol_pipeline(self, config_path, tmp_path, capsys):
        out = tmp_path / "run"
        run_simulate(config_path, out, ("--debug-protocol",))
        proto = next((out / "protocols").glob("*.protocol"))
        capsys.readouterr()
        assert main(["oracle", "--trace", str(proto), "--width", "16"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["cycles"] == 5000
        assert payload["energy_per_cycle_fj"] >= 0.0


class TestStreams:
    def test_writes_stream(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        code = main([
            "streams", "--dist", "gaussian", "--sigma", "256", "--rho", "0.9",
            "--length", "500", "--out", str(out),
        ])
        assert code == 0
        assert out.exists()
        assert "bit probabilities" in capsys.readouterr().out

    def test_invalid_sigma_exit_1(self, tmp_path):
        code = main([
            "streams", "--dist", "gaussian", "--sigma", "1e9", "--rho", "0.9",
            "--out", str(tmp_path / "s.bin"),
        ])
        assert code == 1


class TestSweeps:
    def test_accuracy_csv(self, tmp_path):
        out = tmp_path / "acc.csv"
        code = main([
            "sweep-mux", "--streams", "2", "--widths", "16", "--mux", "0.4",
            "--runs", "2", "--flits", "2000", "--out", str(out),
        ])
        assert code == 0
        header, row = out.read_text().splitlines()[:2]
        assert "rmse_pp" in header and "mae_pp" in header

    def test_energy_csv(self, tmp_path):
        out = tmp_path / "mux.csv"
        code = main([
            "sweep-mux", "--mode", "energy", "--mux", "0.0,1.0",
            "--runs", "1", "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 3

    def test_coding_csv(self, tmp_path):
        out = tmp_path / "cod.csv"
        code = main([
            "sweep-coding", "--codecs", "gray", "--mux", "0.0,1.0",
            "--runs", "1", "--out", str(out),
        ])
        assert code == 0
        assert "gain_2d_percent" in out.read_text()


class TestParser:
    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit):
            main(["transmogrify"])


CASE_NODES = {
    "R1": (0, 0, 0), "R2": (1, 0, 0), "R3": (2, 0, 0),
    "R4": (0, 1, 0), "R5": (1, 1, 0), "R6": (2, 1, 0),
    "R7": (1, 1, 1),
}


def case_study_config(flows: str) -> str:
    nodes = "\n".join(
        f'    <node id="{nid}" x="{x}" y="{y}" z="{z}"/>'
        for nid, (x, y, z) in CASE_NODES.items()
    )
    head, _, tail = CONFIG.partition("  <topology>")
    tail = tail.split("</traffic>", 1)[1]
    return (
        head + f"  <topology>\n{nodes}\n  </topology>\n"
        '  <flitWidth value="16"/>\n  <bufferDepth value="4"/>\n'
        '  <vcCount value="4"/>\n  <flitsPerPacket value="32"/>\n'
        f"  <traffic>\n{flows}  </traffic>{tail}"
    )


def _canonical(obj):
    """JSON data with floats rounded to 10 significant digits, so that the
    digest does not depend on last-bit differences between BLAS builds."""
    if isinstance(obj, dict):
        return {k: _canonical(v) for k, v in sorted(obj.items())}
    if isinstance(obj, list):
        return [_canonical(v) for v in obj]
    if isinstance(obj, float):
        return float(f"{obj:.10g}")
    return obj


class TestRunDirectoryGolden:
    """The outputs of a fixed-seed case-study run directory, pinned by digest."""

    DIGEST = "8acaf22b92e211f1aa11616a0743835190602d5772b5508503983392741e9e0c"

    def test_golden_digest(self, tmp_path):
        flows = "".join(
            f'    <flow src="{src}" dst="R7" rate="0.00625" payload="pixel-packed"'
            f' sigma="40" rho="0.995" seed="{100 + i}" length="16384"/>\n'
            for i, src in enumerate(["R1", "R2", "R3", "R4", "R6", "R5"])
        )
        config = tmp_path / "case.xml"
        config.write_text(case_study_config(flows))
        out = tmp_path / "run"
        assert main([
            "simulate", "--config", str(config), "--out", str(out),
            "--cycles", "4000", "--seed", "5", "--debug-protocol",
        ]) == 0
        for codec in ("none", "gray", "correlator+inv"):
            assert main(["analyze", "--run", str(out), "--codec", codec]) == 0
        h = hashlib.sha256()
        for path in sorted(out.glob("M_*.csv")):
            h.update(path.name.encode() + path.read_bytes())
        for name in ("link_counts.json", "energy.json", "energy_gray.json",
                     "energy_correlator+inv.json"):
            data = _canonical(json.loads((out / name).read_text()))
            h.update(name.encode() + json.dumps(data, sort_keys=True).encode())
        h.update((out / "protocols" / "R5__R7.protocol").read_bytes())
        assert h.hexdigest() == self.DIGEST


class TestSelfContainedRun:
    def test_analyze_without_payload_file(self, tmp_path, monkeypatch):
        sim_dir = tmp_path / "sim"
        sim_dir.mkdir()
        rng = np.random.default_rng(4)
        write_stream_binary(
            sim_dir / "payload.bin",
            DataStream(rng.integers(0, 1 << 16, 3000, dtype=np.uint64), 16),
        )
        flows = (
            '    <flow src="A" dst="C" rate="0.02" payload="stream" file="payload.bin"/>\n'
            '    <flow src="B" dst="C" rate="0.02" payload="uniform" seed="2"/>\n'
        )
        (sim_dir / "sim.xml").write_text(
            CONFIG.split("  <traffic>")[0] + f"  <traffic>\n{flows}  </traffic>\n</simulation>\n"
        )
        monkeypatch.chdir(sim_dir)
        assert run_simulate("sim.xml", "run") == 0
        assert main(["analyze", "--run", "run", "--codec", "gray"]) == 0
        before = json.loads((sim_dir / "run" / "energy_gray.json").read_text())

        (sim_dir / "payload.bin").unlink()
        elsewhere = tmp_path / "elsewhere"
        elsewhere.mkdir()
        monkeypatch.chdir(elsewhere)
        assert main([
            "analyze", "--run", str(sim_dir / "run"), "--codec", "gray", "--out", "post",
        ]) == 0
        after = json.loads((elsewhere / "post" / "energy_gray.json").read_text())
        assert after == before
