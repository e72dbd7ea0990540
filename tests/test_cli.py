import csv
import hashlib
import json
import shutil
import zipfile

import numpy as np
import pytest

from noclink import cli, simnet, sweeps
from noclink.cli import main
from noclink.codecs import make_codec
from noclink.config import build_simulation, parse_config
from noclink.energy import save_capacitance_model, template_2d_bus, template_3d_tsv
from noclink.linkmodel import link_bit_probabilities
from noclink.oracle import TRACE_COLUMNS
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
    cap2d = tmp_path / "cap2d.csv"
    cap3d = tmp_path / "cap3d"
    save_capacitance_model(cap2d, template_2d_bus(16, 120.0, 40.0, 1))
    save_capacitance_model(cap3d, template_3d_tsv(4, 4, 40.0, -2.0, 120.0, -6.0))
    return str(cap2d), str(cap3d)


def run_simulate(config_path, out, extra=()):
    return main([
        "simulate", "--config", str(config_path), "--out", str(out),
        "--cycles", "5000", "--seed", "3", *extra,
    ])


def read_traces(run):
    """Each link's trace columns in ``run``'s traces.npz, by link id."""
    links = json.loads((run / "meta.json").read_text())["links"]
    with np.load(run / "traces.npz") as data:
        bounds = np.cumsum(data["flits"])[:-1]
        columns = {name: np.split(data[name], bounds) for name in TRACE_COLUMNS}
    return {link: {name: columns[name][i] for name in TRACE_COLUMNS}
            for i, link in enumerate(links)}


def write_traces(run, traces):
    """Write ``traces``, as ``read_traces`` gives them, as ``run``'s traces.npz,
    each link's flit count taken from its cycles."""
    links = list(traces.values())
    np.savez_compressed(
        run / "traces.npz", flits=np.array([link["cycles"].size for link in links]),
        **{name: np.concatenate([link[name] for link in links]) for name in TRACE_COLUMNS})


class TestSimulate:
    def test_artifacts(self, config_path, tmp_path):
        out = tmp_path / "run"
        assert run_simulate(config_path, out) == 0
        for name in ("meta.json", "traces.npz", "summary.json", "config.xml"):
            assert (out / name).exists()
        assert (out / "M_A__B.csv").exists()

    def test_saved_traces_load_column_for_column(self, config_path, recorded_run):
        net = build_simulation(parse_config(config_path), seed=3, collect_traces=True)
        simulated = net.run(5000).link_traces
        with zipfile.ZipFile(recorded_run / "traces.npz") as archive:
            members = archive.infolist()
        assert sorted(m.filename for m in members) == sorted(
            f"{name}.npy" for name in ["flits", *TRACE_COLUMNS])
        assert all(m.compress_type == zipfile.ZIP_DEFLATED for m in members)
        loaded = cli._load_run(recorded_run).link_traces
        assert list(loaded) == list(simulated)
        for link, trace in simulated.items():
            for name in TRACE_COLUMNS:
                column = getattr(loaded[link], name)
                assert column.dtype == getattr(trace, name).dtype
                assert np.array_equal(column, getattr(trace, name)), (link, name)

    @pytest.mark.parametrize("nodes, links", [
        ({"PE_A": (0, 0, 0), "A": (1, 0, 0)}, "the id 'PE_A->A'"),
        ({"X__Y": (0, 0, 0), "Z": (1, 0, 0), "X": (0, 1, 0), "Y__Z": (1, 1, 0)},
         "the file name 'X__Y__Z': 'X->Y__Z' and 'X__Y->Z'"),
    ], ids=["same_id", "same_file_name"])
    def test_links_sharing_a_file_name_exit_1(self, tmp_path, capsys, nodes, links):
        # CONFIG's settings without its flows, on the given nodes
        before, _, after = CONFIG.partition("  <topology>")
        settings = after.partition("</topology>\n")[2].partition("  <traffic>")[0]
        topology = "".join(f'    <node id="{nid}" x="{x}" y="{y}" z="{z}"/>\n'
                           for nid, (x, y, z) in nodes.items())
        config = tmp_path / "sim.xml"
        config.write_text(f"{before}  <topology>\n{topology}  </topology>\n{settings}"
                          "</simulation>\n")
        assert run_simulate(config, tmp_path / "run") == 1
        assert f"two links share {links}" in capsys.readouterr().err

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

    @pytest.mark.parametrize("cycles", ["1", "0"])
    @pytest.mark.parametrize("command", ["simulate", "case-study"])
    def test_too_few_cycles_exit_1(self, config_path, tmp_path, capsys, command, cycles):
        out = tmp_path / "out"
        argv = [command, "--out", str(out), "--cycles", cycles]
        if command == "simulate":
            argv += ["--config", str(config_path)]
        assert main(argv) == 1
        assert f"--cycles {cycles}" in capsys.readouterr().err
        assert not out.exists()


class TestCaseStudy:
    def test_artifacts(self, tmp_path):
        out = tmp_path / "cs"
        assert main(["case-study", "--cycles", "3000", "--seed", "5", "--out", str(out)]) == 0

        def rows(name):
            with open(out / name, newline="") as fh:
                return list(csv.DictReader(fh))

        counts = json.loads((out / "vc4" / "link_counts.json").read_text())
        energy = json.loads((out / "vc4" / "energy.json").read_text())
        priced = rows("energy.csv")
        assert [row["link"] for row in priced] == sorted(
            link for link, flits in counts.items() if sum(flits))
        for row in priced:
            assert float(row["model_fj_per_cycle"]) == energy[row["link"]]["energy_per_cycle_fj"]
        assert [row["vc_count"] for row in rows("latency.csv")] == ["4", "1"]
        coding = rows("coding.csv")
        assert [(row["vc_count"], row["codec"]) for row in coding] == [
            (vc, codec) for vc in ("4", "1") for codec in ("none", "gray", "correlator+inv")]
        assert [float(row["gain_percent"]) for row in coding if row["codec"] == "none"] == [
            0.0, 0.0]


class TestAnalyze:
    def test_cap_files_match_the_default_templates(self, recorded_run, tmp_path, cap_files):
        # cap_files holds the case-study templates a plain analyze prices with
        cap2d, cap3d = cap_files
        assert main(["analyze", "--run", str(recorded_run), "--cap2d", cap2d,
                     "--cap3d", cap3d, "--out", str(tmp_path / "files")]) == 0
        assert main(["analyze", "--run", str(recorded_run),
                     "--out", str(tmp_path / "plain")]) == 0
        assert ((tmp_path / "files" / "energy.json").read_bytes()
                == (tmp_path / "plain" / "energy.json").read_bytes())

    def test_capacitance_width_mismatch_exit_1(self, recorded_run, tmp_path, capsys):
        cap2d = tmp_path / "cap8.csv"
        save_capacitance_model(cap2d, template_2d_bus(8, 120.0, 40.0, 1))
        capsys.readouterr()
        assert main(["analyze", "--run", str(recorded_run), "--cap2d", str(cap2d),
                     "--out", str(tmp_path / "post")]) == 1
        err = capsys.readouterr().err
        assert "flit width 16 does not match capacitance width 8" in err
        assert "codec" not in err

    def test_eq11_literal_prices_the_printed_formula(self, recorded_run, tmp_path):
        # the run has idle cycles, whose idle->idle mass the printed Eq. 11 omits
        for name, extra in (("literal", ["--eq11-literal"]), ("plain", [])):
            assert main(["analyze", "--run", str(recorded_run),
                         "--out", str(tmp_path / name), *extra]) == 0
        literal, plain = (json.loads((tmp_path / name / "energy.json").read_text())
                          for name in ("literal", "plain"))
        result = cli._load_run(recorded_run)
        link = next(iter(literal))
        p = link_bit_probabilities(sweeps.link_stats_from_result(result, link),
                                   result.data_flow[link], literal=True)
        assert literal[link]["p_link"] == list(map(float, p))
        assert literal[link]["p_link"] != plain[link]["p_link"]

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

    def test_format_2_run_exit_1(self, config_path, tmp_path, capsys):
        out = tmp_path / "run"
        run_simulate(config_path, out)
        meta = json.loads((out / "meta.json").read_text())
        meta["format"] = 2  # one entry per cycle in each trace column
        (out / "meta.json").write_text(json.dumps(meta))
        capsys.readouterr()
        assert main(["analyze", "--run", str(out)]) == 1
        assert "re-run `noclink simulate`" in capsys.readouterr().err

    def test_format_3_run_exit_1(self, recorded_run, tmp_path, capsys):
        run = tmp_path / "run"
        shutil.copytree(recorded_run, run)
        meta = json.loads((run / "meta.json").read_text())
        meta["format"] = 3  # five traces.npz members per link
        (run / "meta.json").write_text(json.dumps(meta))
        capsys.readouterr()
        assert main(["analyze", "--run", str(run)]) == 1
        err = capsys.readouterr().err
        assert "traces.npz" in err and "re-run `noclink simulate`" in err

    @pytest.mark.parametrize("tamper", ["descending", "at_end", "unequal"])
    def test_tampered_traces_exit_1(self, config_path, tmp_path, capsys, tamper):
        out = tmp_path / "run"
        run_simulate(config_path, out)
        traces = read_traces(out)
        link = traces["A->B"]
        assert link["cycles"].size >= 2
        if tamper == "descending":
            link["cycles"] = link["cycles"][::-1].copy()
        elif tamper == "at_end":
            link["cycles"][-1] = 5000  # meta.json's cycles
        else:
            link["words"] = link["words"][:-1]
        write_traces(out, traces)
        capsys.readouterr()
        assert main(["analyze", "--run", str(out)]) == 1
        assert ("traces.npz: words not" if tamper == "unequal"
                else "error: trace cycles must ascend") in capsys.readouterr().err

    @pytest.mark.parametrize("tamper", ["one_short", "negative", "fractional", "over_sum"])
    def test_bad_flit_counts_exit_1(self, recorded_run, tmp_path, capsys, tamper):
        run = tmp_path / "run"
        shutil.copytree(recorded_run, run)
        with np.load(run / "traces.npz") as data:
            arrays = dict(data)
        flits = arrays["flits"]
        assert flits.size == len(json.loads((run / "meta.json").read_text())["links"])
        if tamper == "one_short":
            arrays["flits"] = flits[:-1]
        elif tamper == "negative":
            flits[flits.argmax()] *= -1
        elif tamper == "fractional":
            arrays["flits"] = flits.astype(np.float64)
        else:
            flits[0] += 1
        np.savez_compressed(run / "traces.npz", **arrays)
        capsys.readouterr()
        assert main(["analyze", "--run", str(run)]) == 1
        err = capsys.readouterr().err
        assert "traces.npz" in err and "re-run `noclink simulate`" in err
        assert ("entries long, the sum of flits" if tamper == "over_sum"
                else "flits is not one non-negative integer per link") in err

    @pytest.mark.parametrize("damage", ["truncated", "flipped"])
    def test_damaged_archive_exit_1(self, recorded_run, tmp_path, capsys, damage):
        run = tmp_path / "run"
        shutil.copytree(recorded_run, run)
        archive = run / "traces.npz"
        raw = bytearray(archive.read_bytes())
        if damage == "truncated":
            raw = raw[:300]
        else:
            # one byte in the middle of the largest member's compressed data
            with zipfile.ZipFile(archive) as zf:
                info = max(zf.infolist(), key=lambda i: i.compress_size)
            start = info.header_offset + 30 + len(info.filename.encode()) + len(info.extra)
            raw[start + info.compress_size // 2] ^= 0x5A
        archive.write_bytes(bytes(raw))
        capsys.readouterr()
        assert main(["analyze", "--run", str(run)]) == 1
        err = capsys.readouterr().err
        assert "traces.npz" in err and "re-run `noclink simulate`" in err

    @pytest.mark.parametrize("entry", ["words", "flits", "links"])
    def test_incomplete_run_exit_1(self, config_path, tmp_path, capsys, entry):
        out = tmp_path / "run"
        run_simulate(config_path, out)
        if entry == "links":
            meta = json.loads((out / "meta.json").read_text())
            del meta[entry]
            (out / "meta.json").write_text(json.dumps(meta))
        else:
            with np.load(out / "traces.npz") as data:
                arrays = dict(data)
            del arrays[entry]
            np.savez_compressed(out / "traces.npz", **arrays)
        capsys.readouterr()
        assert main(["analyze", "--run", str(out)]) == 1
        err = capsys.readouterr().err
        assert entry in err and "re-run `noclink simulate`" in err

    def test_unrecorded_sent_word_exit_1(self, recorded_run, tmp_path, capsys):
        run = tmp_path / "run"
        shutil.copytree(recorded_run, run)
        traces = read_traces(run)
        for columns in traces.values():
            keep = (columns["flows"] != 0) | (columns["indices"] != 1)
            for name in TRACE_COLUMNS:
                columns[name] = columns[name][keep]
        write_traces(run, traces)
        capsys.readouterr()
        assert main(["analyze", "--run", str(run)]) == 0
        assert main(["analyze", "--run", str(run), "--codec", "gray"]) == 1
        assert "flow 0: word 1 " in capsys.readouterr().err


@pytest.fixture(scope="module")
def recorded_run(tmp_path_factory):
    """One simulated run directory, shared read-only by the tests that copy it."""
    root = tmp_path_factory.mktemp("recorded")
    config = root / "sim.xml"
    config.write_text(CONFIG)
    assert run_simulate(config, root / "run") == 0
    return root / "run"


class TestMalformedMeta:
    @pytest.mark.parametrize("key, value", [
        (None, [1, 2]),
        ("cycles", "x"),
        ("n_types", "2"),
        ("flit_width", "16"),
        ("flows", -1),
        ("flows", "2"),
        ("clock_period_s", -1e-9),
        ("clock_period_s", "1e-9"),
        ("links", ["A->B"]),
        ("links", {"A->B": "no"}),
    ])
    def test_exit_1_naming_the_key(self, recorded_run, tmp_path, capsys, key, value):
        run = tmp_path / "run"
        shutil.copytree(recorded_run, run)
        meta = json.loads((run / "meta.json").read_text())
        if key is None:
            meta = value
        else:
            meta[key] = value
        (run / "meta.json").write_text(json.dumps(meta))
        capsys.readouterr()
        assert main(["analyze", "--run", str(run)]) == 1
        assert (key or "JSON object") in capsys.readouterr().err
        assert not (run / "energy.json").exists()


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

    def test_cycles_are_the_protocol_records(self, tmp_path, capsys):
        proto = tmp_path / "link.protocol"
        proto.write_text("0,IDLE,0\n1,0,5\n2,IDLE,5\n3,IDLE,5\n4,1,a\n")
        assert main(["oracle", "--trace", str(proto), "--width", "4"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["cycles"] == len(proto.read_text().splitlines()) == 5

    @pytest.mark.parametrize("records", [
        "0,0,1\n1,IDLE,1\n5,0,3\n",  # a gap in the cycle numbers
        "0,0,1\nzz,IDLE,1\n2,0,3\n",  # a cycle that is not a number
    ])
    def test_misnumbered_cycles_exit_1(self, tmp_path, capsys, records):
        proto = tmp_path / "link.protocol"
        proto.write_text(records)
        assert main(["oracle", "--trace", str(proto), "--width", "4"]) == 1
        assert "expected" in capsys.readouterr().err

    @pytest.mark.parametrize("width", [0, -1, 65])
    def test_width_outside_a_word_exits_1(self, tmp_path, capsys, width):
        proto = tmp_path / "link.protocol"
        proto.write_text("0,IDLE,0\n1,0,0\n")
        assert main(["oracle", "--trace", str(proto), "--width", str(width)]) == 1
        assert f"trace width {width} is outside [1, 64]" in capsys.readouterr().err

    def test_both_capacitance_flags_rejected_before_reading(self, tmp_path, capsys):
        code = main([
            "oracle", "--trace", str(tmp_path / "missing.protocol"), "--width", "4",
            "--cap2d", "a.json", "--cap3d", "b.json",
        ])
        assert code == 1
        assert "exactly one of --cap2d / --cap3d" in capsys.readouterr().err


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

    @pytest.mark.parametrize("argv, width", [
        (["streams", "--dist", "gaussian", "--width", "65", "--sigma", "1e10",
          "--rho", "0.5", "--length", "10"], 65),
        (["streams", "--dist", "lognormal", "--width", "70", "--sigma", "1e10",
          "--rho", "0.5", "--length", "10"], 70),
        (["sweep-mux", "--streams", "2", "--widths", "65", "--mux", "0.4",
          "--runs", "1", "--flits", "100"], 65),
    ])
    def test_width_over_64_exit_1(self, tmp_path, capsys, argv, width):
        out = tmp_path / "out.csv"
        assert main([*argv, "--out", str(out)]) == 1
        assert f"stream width {width} is outside [1, 64]" in capsys.readouterr().err
        assert not out.exists()


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

    def test_coding_dist_picks_the_streams(self, tmp_path):
        rows = {}
        for dist in ("gaussian", "lognormal", "uniform"):
            out = tmp_path / f"{dist}.csv"
            assert main([
                "sweep-coding", "--codecs", "gray", "--mux", "0.5", "--runs", "1",
                "--dist", dist, "--out", str(out),
            ]) == 0
            rows[dist] = out.read_text()
        assert len(set(rows.values())) == 3

    def test_coding_unknown_dist_exit_1(self, tmp_path, capsys):
        code = main([
            "sweep-coding", "--codecs", "gray", "--mux", "0.5", "--runs", "1",
            "--dist", "bogus", "--out", str(tmp_path / "cod.csv"),
        ])
        assert code == 1
        assert "bogus" in capsys.readouterr().err
        assert not (tmp_path / "cod.csv").exists()

    @pytest.mark.parametrize("argv", [
        ["sweep-mux", "--streams", "2", "--widths", "16", "--mux", "0.4", "--flits", "200"],
        ["sweep-mux", "--mode", "energy", "--mux", "0.5"],
        ["sweep-coding", "--codecs", "gray", "--mux", "0.5"],
    ])
    def test_no_runs_exit_1(self, tmp_path, capsys, argv):
        out = tmp_path / "rows.csv"
        assert main([*argv, "--runs", "0", "--out", str(out)]) == 1
        assert "at least one run" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flits", ["0", "1"])
    def test_too_few_flits_exit_1(self, tmp_path, capsys, flits):
        out = tmp_path / "rows.csv"
        assert main(["sweep-mux", "--streams", "2", "--widths", "16", "--mux", "0.4",
                     "--runs", "1", "--flits", flits, "--out", str(out)]) == 1
        assert f"flits={flits}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("streams", ["0", "1", "-1"])
    def test_too_few_streams_exit_1(self, tmp_path, capsys, streams):
        out = tmp_path / "rows.csv"
        assert main(["sweep-mux", "--streams", streams, "--widths", "16", "--mux", "0.4",
                     "--runs", "1", "--flits", "200", "--out", str(out)]) == 1
        assert f"stream_counts=[{streams}]" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_no_jobs_exit_1(self, tmp_path, capsys, jobs):
        out = tmp_path / "rows.csv"
        assert main(["sweep-mux", "--streams", "2", "--widths", "16", "--mux", "0.4",
                     "--runs", "1", "--flits", "100", "--jobs", jobs, "--out", str(out)]) == 1
        assert f"jobs={jobs}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag, value", [
        ("--streams", "7"), ("--widths", "32"), ("--flits", "100"), ("--jobs", "2"),
    ])
    def test_energy_mode_rejects_accuracy_flags(self, tmp_path, capsys, flag, value):
        out = tmp_path / "mux.csv"
        assert main(["sweep-mux", "--mode", "energy", "--mux", "0.5", "--runs", "1",
                     flag, value, "--out", str(out)]) == 1
        assert flag in capsys.readouterr().err
        assert not out.exists()

    def test_energy_mode_defaults_to_its_sweeps_mux_grid(self, tmp_path):
        out = tmp_path / "mux.csv"
        assert main(["sweep-mux", "--mode", "energy", "--runs", "1", "--out", str(out)]) == 0
        rows = out.read_text().splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == ["0.0", "0.2", "0.4", "0.6", "0.8", "1.0"]

    @pytest.mark.parametrize("argv, sweep, kwargs", [
        (["sweep-mux"], "mux_accuracy_sweep", {}),
        (["sweep-mux", "--mode", "energy"], "mux_energy_sweep", {}),
        (["sweep-coding"], "coding_sweep", {}),
        (["sweep-mux", "--streams", "2..3", "--widths", "16", "--mux", "0.5", "--runs", "3",
          "--flits", "10", "--jobs", "2", "--seed", "7"], "mux_accuracy_sweep",
         {"stream_counts": [2, 3], "widths": [16], "mux_probs": [0.5], "runs": 3,
          "flits": 10, "jobs": 2, "seed": 7}),
        (["sweep-mux", "--mode", "energy", "--mux", "0,1", "--runs", "2", "--seed", "3"],
         "mux_energy_sweep", {"mux_probs": [0.0, 1.0], "runs": 2, "seed": 3}),
        (["sweep-coding", "--codecs", "gray,invert", "--mux", "0.5", "--dist", "uniform",
          "--runs", "2", "--seed", "4"], "coding_sweep",
         {"codec_names": ["gray", "invert"], "mux_probs": [0.5], "distribution": "uniform",
          "runs": 2, "seed": 4}),
    ])
    def test_only_the_given_flags_reach_the_sweep(self, tmp_path, monkeypatch, argv, sweep,
                                                  kwargs):
        calls = []

        def recorder(name):
            def sweep(**kw):
                calls.append((name, kw))
                return [{"row": 1}]
            return sweep

        for name in ("mux_accuracy_sweep", "mux_energy_sweep", "coding_sweep"):
            monkeypatch.setattr(sweeps, name, recorder(name))
        assert main([*argv, "--out", str(tmp_path / "rows.csv")]) == 0
        assert calls == [(sweep, kwargs)]

    def test_jobs_leave_the_rows_unchanged(self, tmp_path):
        rows = []
        for jobs in ("1", "2"):
            out = tmp_path / f"jobs{jobs}.csv"
            assert main(["sweep-mux", "--streams", "2,3", "--widths", "16",
                         "--mux", "0.4,1.0", "--runs", "2", "--flits", "500",
                         "--jobs", jobs, "--out", str(out)]) == 0
            rows.append(out.read_bytes())
        assert rows[0] == rows[1]


class TestParser:
    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit):
            main(["transmogrify"])

    @pytest.mark.parametrize("extra", [
        ["--cycles", "abc"], ["--bogus"], ["--cap2d", "cap2d.npz"],
    ])
    def test_usage_error_exits_1(self, tmp_path, capsys, extra):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--config", str(tmp_path / "sim.xml"),
                  "--out", str(tmp_path / "run"), *extra])
        assert exc.value.code == 1
        assert "usage: noclink" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("argv", [
        ["analyze", "--run", "run"], ["oracle", "--trace", "link.protocol", "--width", "16"],
    ])
    def test_seed_of_a_command_that_draws_nothing_exits_1(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--seed", "1"])
        assert exc.value.code == 1
        assert "--seed" in capsys.readouterr().err

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--help"])
        assert exc.value.code == 0
        assert "--cycles" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [
        ["oracle", "--trace", "{dir}", "--width", "16"],
        ["analyze", "--run", "{file}"],
        ["simulate", "--config", "{dir}", "--out", "{dir}/run"],
    ])
    def test_a_path_of_the_wrong_kind_exits_1(self, tmp_path, capsys, argv):
        (tmp_path / "file").write_text("")
        paths = {"dir": str(tmp_path), "file": str(tmp_path / "file")}
        assert main([arg.format(**paths) for arg in argv]) == 1
        assert capsys.readouterr().err.startswith("error: [Errno")

    @pytest.mark.parametrize("argv", [
        ["simulate", "--config", "{config}", "--cycles", "100"],
        ["analyze", "--run", "{run}"],
        ["case-study", "--cycles", "100"],
    ])
    def test_out_naming_a_file_exits_1(self, config_path, recorded_run, tmp_path, capsys,
                                       argv):
        out = tmp_path / "file"
        out.write_text("")
        paths = {"config": str(config_path), "run": str(recorded_run)}
        assert main([*(arg.format(**paths) for arg in argv), "--out", str(out)]) == 1
        assert "File exists" in capsys.readouterr().err
        assert out.read_text() == ""

    def test_simulate_checks_out_before_simulating(self, config_path, tmp_path, capsys,
                                                   monkeypatch):
        def run(net, cycles, **kwargs):
            raise AssertionError("simulated before checking --out")

        monkeypatch.setattr(simnet.Network, "run", run)
        out = tmp_path / "file"
        out.write_text("")
        assert main(["simulate", "--config", str(config_path), "--cycles", "100",
                     "--out", str(out)]) == 1
        assert "File exists" in capsys.readouterr().err

    def test_parser_is_built_once_and_finds_replaced_commands(self, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "cmd_streams", lambda args: calls.append(args.length) or 0)
        cli.build_parser.cache_clear()
        for length in ("5", "6"):
            assert main(["streams", "--length", length]) == 0
        assert calls == [5, 6]
        assert cli.build_parser.cache_info().misses == 1


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


class TestCodingAcrossPayloadWrap:
    """Both flows recycle short payloads.  Coding the recorded run
    afterwards must equal simulating with the payloads coded at the
    sources, where a stateful codec runs on across each wrap."""

    @pytest.mark.parametrize("codec", ["correlator", "correlator+inv", "gray"])
    def test_post_coding_equals_source_coding(self, tmp_path, monkeypatch, codec):
        rng = np.random.default_rng(8)
        for src, size in (("A", 5), ("B", 7)):
            short = DataStream(rng.integers(0, 1 << 16, size, dtype=np.uint64), 16)
            unrolled = DataStream(np.resize(short.words, 4000), 16)
            write_stream_binary(tmp_path / f"short{src}.bin", short)
            write_stream_binary(tmp_path / f"coded{src}.bin",
                                make_codec(codec, 16).encode(unrolled))
        monkeypatch.chdir(tmp_path)
        for name in ("short", "coded"):
            flows = "".join(
                f'    <flow src="{src}" dst="C" rate="0.02" payload="stream"'
                f' file="{name}{src}.bin"/>\n' for src in "AB")
            (tmp_path / f"{name}.xml").write_text(
                CONFIG.split("  <traffic>")[0]
                + f"  <traffic>\n{flows}  </traffic>\n</simulation>\n")
            assert run_simulate(f"{name}.xml", name) == 0
        # wrapped at least twice
        assert read_traces(tmp_path / "short")["A->B"]["indices"].max() >= 10
        assert main(["analyze", "--run", "short", "--codec", codec]) == 0
        assert main(["analyze", "--run", "coded"]) == 0
        post = json.loads((tmp_path / "short" / f"energy_{codec}.json").read_text())
        at_source = json.loads((tmp_path / "coded" / "energy.json").read_text())
        assert post == at_source
