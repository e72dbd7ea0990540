import struct
import textwrap

import numpy as np
import pytest

from noclink.cli import main
from noclink.config import ConfigError, build_simulation, parse_config
from noclink.streams import (
    STREAM_MAGIC,
    DataStream,
    StreamSpec,
    generate_stream,
    write_stream_binary,
)

NODE_TYPES = """\
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
"""

TOPOLOGY = """\
<topology>
    <node id="A" x="0" y="0" z="0"/>
    <node id="B" x="1" y="0" z="0"/>
</topology>
<flitWidth value="16"/>
"""


def document(body, root="simulation"):
    return f"<{root}>\n{textwrap.indent(body, '  ')}</{root}>\n"


def write_config(tmp_path, body, name="sim.xml"):
    path = tmp_path / name
    path.write_text(document(body))
    return path


def minimal(tmp_path, extra="", node_types=NODE_TYPES):
    return write_config(tmp_path, node_types + TOPOLOGY + extra)


SECOND_PE_TYPE = """\
    <nodeType id="2">
        <model value="ProcessingElementVC"/>
        <clockDelay value="2"/>
    </nodeType>
"""
# each broken configuration: its text, the message it must raise ({path} and
# {line} filled in), and a text found on the line the message names, if any
BROKEN = {
    "root": (document(NODE_TYPES + TOPOLOGY, root="config"),
             "{path}: root element must be <simulation>, got <config>", None),
    "duplicate child": (document(NODE_TYPES + TOPOLOGY + '<flitWidth value="32"/>\n'),
                        "duplicate <flitWidth> at line {line}", 'value="32"'),
    "unknown model": (document(NODE_TYPES.replace('"ProcessingElementVC"', '"Cpu"') + TOPOLOGY),
                      "unknown model 'Cpu' in nodeType id=1 at line {line}",
                      '<nodeType id="1">'),
    "element in nodeTypes": (
        document(NODE_TYPES.replace("</nodeTypes>", "    <router/>\n</nodeTypes>") + TOPOLOGY),
        "unknown element <router> at line {line}", "<router/>"),
    "element in topology": (
        document(NODE_TYPES + TOPOLOGY.replace("</topology>", "    <wire/>\n</topology>")),
        "unknown element <wire> at line {line}", "<wire/>"),
    "element in traffic": (
        document(NODE_TYPES + TOPOLOGY + "<traffic>\n    <burst/>\n</traffic>\n"),
        "unknown element <burst> at line {line}", "<burst/>"),
    "duplicate nodeType id": (document(NODE_TYPES.replace('id="1"', 'id="0"') + TOPOLOGY),
                              "duplicate nodeType id=0", None),
    "two PE types": (
        document(NODE_TYPES.replace("</nodeTypes>", SECOND_PE_TYPE + "</nodeTypes>") + TOPOLOGY),
        "exactly one RouterVC and one ProcessingElementVC nodeType required", None),
    "no nodeTypes": (document(TOPOLOGY),
                     "exactly one RouterVC and one ProcessingElementVC nodeType required",
                     None),
    "no topology": (document(NODE_TYPES + '<flitWidth value="16"/>\n'),
                    "{path}: missing <topology>", None),
    "empty topology": (document(NODE_TYPES + '<topology/>\n<flitWidth value="16"/>\n'),
                       "{path}: <topology> lists no nodes", None),
    "routerType": (document(NODE_TYPES + TOPOLOGY.replace('id="B"', 'id="B" routerType="1"')),
                   "node 'B' references unknown routerType 1 at line {line}", 'id="B"'),
    "peType": (document(NODE_TYPES + TOPOLOGY.replace('id="B"', 'id="B" peType="0"')),
               "node 'B' references unknown peType 0 at line {line}", 'id="B"'),
    "flitWidth 0": (document(NODE_TYPES + TOPOLOGY.replace('"16"', '"0"')),
                    "flitWidth 0 outside [1, 64]", None),
    "flitWidth 65": (document(NODE_TYPES + TOPOLOGY.replace('"16"', '"65"')),
                     "flitWidth 65 outside [1, 64]", None),
}


@pytest.mark.parametrize("case", BROKEN)
def test_broken_config_names_the_element_and_its_line(tmp_path, case):
    text, message, marker = BROKEN[case]
    path = tmp_path / "sim.xml"
    path.write_text(text)
    line = marker and next(i for i, row in enumerate(text.splitlines(), 1) if marker in row)
    with pytest.raises(ConfigError) as info:
        parse_config(path)
    assert str(info.value) == message.format(path=path, line=line)


class TestNodeTypes:
    def test_verbatim_listing_parses(self, tmp_path):
        cfg = parse_config(minimal(tmp_path))
        router = cfg.node_types[0]
        assert router.model == "RouterVC"
        assert router.arbitration == "fair"
        assert router.clock_delay == 1
        assert cfg.node_types[1].model == "ProcessingElementVC"
        assert cfg.pe_clock_delay == 2
        assert cfg.router_cfg.clock_delay == 1

    def test_missing_model_names_node_type(self, tmp_path):
        broken = NODE_TYPES.replace('<model value="RouterVC"/>', "")
        path = minimal(tmp_path, node_types=broken)
        with pytest.raises(ConfigError, match="nodeType id=0"):
            parse_config(path)

    def test_priority_arbitration_selected(self, tmp_path):
        body = NODE_TYPES.replace('value="fair"', 'value="priority"')
        cfg = parse_config(minimal(tmp_path, node_types=body))
        assert cfg.router_cfg.arbitration == "priority"

    def test_unknown_arbitration_rejected(self, tmp_path):
        body = NODE_TYPES.replace('value="fair"', 'value="lottery"')
        with pytest.raises(ConfigError, match="lottery"):
            parse_config(minimal(tmp_path, node_types=body))

    @pytest.mark.parametrize("original, value", [
        ('"XYZ"', "West"), ('"XYZ"', "xyz"),
        ('"RoundRobin"', "Random"), ('"RoundRobin"', "round_robin"),
    ])
    def test_unknown_routing_or_selection_rejected(self, tmp_path, original, value):
        body = NODE_TYPES.replace(original, f'"{value}"')
        with pytest.raises(ConfigError, match=f"'{value}' in nodeType id=0"):
            parse_config(minimal(tmp_path, node_types=body))

    def test_missing_routing_rejected(self, tmp_path):
        body = NODE_TYPES.replace('<routing value="XYZ"/>', "")
        with pytest.raises(ConfigError, match="missing <routing>"):
            parse_config(minimal(tmp_path, node_types=body))

    def test_unknown_child_rejected_with_line(self, tmp_path):
        body = NODE_TYPES.replace(
            '<clockDelay value="2"/>', '<clockDelay value="2"/>\n<turbo value="1"/>'
        )
        with pytest.raises(ConfigError, match=r"<turbo> at line \d+"):
            parse_config(minimal(tmp_path, node_types=body))


class TestTopLevel:
    def test_unknown_element_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="plugins"):
            parse_config(minimal(tmp_path, extra="<plugins/>\n"))

    def test_defaults(self, tmp_path):
        cfg = parse_config(minimal(tmp_path))
        assert cfg.flit_width == 16
        assert cfg.router_cfg.vc_count == 1
        assert cfg.router_cfg.buffer_depth == 4
        assert cfg.flits_per_packet == 32
        assert cfg.clock_period == 1e-9

    def test_explicit_values(self, tmp_path):
        extra = '<vcCount value="4"/>\n<bufferDepth value="8"/>\n<flitsPerPacket value="16"/>\n'
        cfg = parse_config(minimal(tmp_path, extra=extra))
        assert cfg.router_cfg.vc_count == 4
        assert cfg.router_cfg.buffer_depth == 8
        assert cfg.flits_per_packet == 16

    def test_explicit_clock_period(self, tmp_path):
        cfg = parse_config(minimal(tmp_path, extra='<clockPeriod value="2.5e-10"/>\n'))
        assert cfg.clock_period == 2.5e-10

    @pytest.mark.parametrize("value", ["0", "-1e-9", "nan", "inf", "abc", ""])
    def test_bad_clock_period_rejected(self, tmp_path, capsys, value):
        path = minimal(tmp_path, extra=f'<clockPeriod value="{value}"/>\n')
        with pytest.raises(ConfigError,
                           match=rf"^clockPeriod '{value}' in <\w+> at line \d+ is not a positive"):
            parse_config(path)
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "run"),
                     "--cycles", "10"]) == 1
        assert "clockPeriod" in capsys.readouterr().err

    @pytest.mark.parametrize("tag, value", [("vcCount", "x"), ("clockPeriod", "-1")])
    def test_bad_value_names_its_own_line(self, tmp_path, tag, value):
        element = f'<{tag} value="{value}"/>'
        path = minimal(tmp_path, extra=f'<bufferDepth value="8"/>\n{element}\n')
        line = [row.strip() for row in path.read_text().splitlines()].index(element) + 1
        with pytest.raises(ConfigError, match=rf"'{value}' in <{tag}> at line {line}\b"):
            parse_config(path)

    def test_duplicate_node_rejected(self, tmp_path):
        body = NODE_TYPES + TOPOLOGY.replace('id="B"', 'id="A"')
        with pytest.raises(ConfigError, match="duplicate node"):
            parse_config(write_config(tmp_path, body))

    def test_malformed_xml(self, tmp_path):
        path = tmp_path / "bad.xml"
        path.write_text("<simulation><nodeTypes>")
        with pytest.raises(ConfigError, match="malformed"):
            parse_config(path)


class TestTraffic:
    def test_flow_parsed(self, tmp_path):
        extra = (
            "<traffic>\n"
            '  <flow src="A" dst="B" rate="0.2" payload="uniform" seed="5"/>\n'
            "</traffic>\n"
        )
        cfg = parse_config(minimal(tmp_path, extra=extra))
        (spec,) = cfg.traffic
        assert (spec.src, spec.dst, spec.rate) == ("A", "B", 0.2)

    def test_rate_out_of_range(self, tmp_path):
        extra = (
            "<traffic>\n"
            '  <flow src="A" dst="B" rate="1.5" payload="uniform"/>\n'
            "</traffic>\n"
        )
        with pytest.raises(ConfigError, match="1.5"):
            parse_config(minimal(tmp_path, extra=extra))

    def test_unknown_flow_attribute_rejected(self, tmp_path):
        extra = (
            "<traffic>\n"
            '  <flow src="A" dst="B" rate="0.2" payload="uniform" sede="2"/>\n'
            "</traffic>\n"
        )
        path = minimal(tmp_path, extra=extra)
        with pytest.raises(ConfigError, match=r"<flow> at line \d+ has unknown attributes \['sede'\]"):
            parse_config(path)
        code = main(["simulate", "--config", str(path), "--out", str(tmp_path / "run")])
        assert code == 1

    def test_missing_flow_attribute_names_the_line(self, tmp_path):
        extra = (
            "<traffic>\n"
            '  <flow src="A" dst="B" payload="uniform"/>\n'
            "</traffic>\n"
        )
        with pytest.raises(ConfigError, match=r"<flow> at line \d+ is missing \['rate'\]"):
            parse_config(minimal(tmp_path, extra=extra))

    @pytest.mark.parametrize("attrs, expect", [
        ('rate="abc"', "rate 'abc' is not a number"),
        ('rate="0.1" seed="x"', "seed 'x' is not an integer"),
        ('rate="0.1" length="x"', "length 'x' is not an integer"),
        ('rate="0.1" flitsPerPacket="x"', "flitsPerPacket 'x' is not an integer"),
        ('rate="0.1" typeId="x"', "typeId 'x' is not an integer"),
        ('rate="0.1" length="0"', "length 0 must be >= 1"),
        ('rate="0.1" seed="-1"', "seed -1 must be >= 0"),
        ('rate="0.1" sigma="q" rho="0.5"', "sigma 'q' is not a number"),
        ('rate="0.1" file="missing.bin"', "[Errno 2] No such file or directory: 'missing.bin'"),
    ])
    def test_bad_flow_attribute_names_path_line_and_attribute(
            self, tmp_path, capsys, attrs, expect):
        # the bad flow comes second, so its line is not the first flow's
        kind = "gaussian" if "sigma" in attrs else "raw" if "file" in attrs else "uniform"
        extra = (
            "<traffic>\n"
            '  <flow src="A" dst="B" rate="0.1" payload="uniform"/>\n'
            f'  <flow src="B" dst="A" payload="{kind}" {attrs}/>\n'
            "</traffic>\n"
        )
        path = minimal(tmp_path, extra=extra)
        line = next(i for i, row in enumerate(path.read_text().splitlines(), 1)
                    if 'src="B"' in row)
        message = f"{path}: <flow> at line {line}: {expect}"
        with pytest.raises(ConfigError) as info:
            parse_config(path)
        assert str(info.value) == message
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "run"),
                     "--cycles", "10"]) == 1
        assert message in capsys.readouterr().err

    def test_truncated_stream_file_names_path_line_and_size(self, tmp_path, capsys):
        short = tmp_path / "short.bin"
        write_stream_binary(short, DataStream(np.arange(4, dtype=np.uint64), 16))
        short.write_bytes(short.read_bytes()[:11])  # the header and 3 bytes
        extra = (
            "<traffic>\n"
            f'  <flow src="A" dst="B" rate="0.1" payload="stream" file="{short}"/>\n'
            "</traffic>\n"
        )
        path = minimal(tmp_path, extra=extra)
        line = next(i for i, row in enumerate(path.read_text().splitlines(), 1)
                    if "short.bin" in row)
        message = (f"{path}: <flow> at line {line}: {short}: 11 bytes,"
                   " not an 8-byte header plus whole 8-byte words")
        with pytest.raises(ConfigError) as info:
            parse_config(path)
        assert str(info.value) == message
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "run"),
                     "--cycles", "10"]) == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("width, words, reason", [
        (0, [1, 2], "stream width 0 is outside [1, 64]"),
        (65, [1, 2], "stream width 65 is outside [1, 64]"),
        (4, [3, 16], "word out of range for width 4"),
    ])
    def test_bad_stream_content_names_path_and_line(self, tmp_path, capsys, width, words,
                                                    reason):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(STREAM_MAGIC + struct.pack("<H", width)
                        + np.array(words, dtype="<u8").tobytes())
        extra = (
            "<traffic>\n"
            f'  <flow src="A" dst="B" rate="0.1" payload="stream" file="{bad}"/>\n'
            "</traffic>\n"
        )
        path = minimal(tmp_path, extra=extra)
        line = next(i for i, row in enumerate(path.read_text().splitlines(), 1)
                    if "bad.bin" in row)
        message = f"{path}: <flow> at line {line}: {bad}: {reason}"
        with pytest.raises(ConfigError) as info:
            parse_config(path)
        assert str(info.value) == message
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "run"),
                     "--cycles", "10"]) == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("rate", ["0", "2e-3", " 0.5 ", "1"])
    def test_flow_rate_forms_accepted(self, tmp_path, rate):
        extra = f'<traffic>\n  <flow src="A" dst="B" rate="{rate}" payload="uniform"/>\n</traffic>\n'
        (spec,) = parse_config(minimal(tmp_path, extra=extra)).traffic
        assert spec.rate == float(rate)

    def test_empty_traffic_builds_idle_network(self, tmp_path):
        cfg = parse_config(minimal(tmp_path, extra="<traffic/>\n"))
        net = build_simulation(cfg, seed=0)
        result = net.run(100)
        assert result.injected_flits == 0

    def test_build_simulation_runs(self, tmp_path):
        extra = (
            '<vcCount value="2"/>\n<flitsPerPacket value="4"/>\n'
            "<traffic>\n"
            '  <flow src="A" dst="B" rate="0.1" payload="uniform" seed="5"/>\n'
            "</traffic>\n"
        )
        cfg = parse_config(minimal(tmp_path, extra=extra))
        result = build_simulation(cfg, seed=2).run(2000)
        assert result.injected_flits > 0
        assert result.ejected_flits > 0


def flows_config(tmp_path, flows):
    return minimal(tmp_path, extra=f"<traffic>\n{textwrap.indent(flows, '  ')}</traffic>\n")


class TestFlowFeatures:
    def test_explicit_and_auto_types_mix(self, tmp_path):
        # an auto type is new per (source, payload name, seed) and follows the
        # highest type given so far; an explicit one may repeat or go lower
        flows = (
            '<flow src="A" dst="B" rate="0.1" payload="uniform" seed="1"/>\n'
            '<flow src="A" dst="B" rate="0.1" payload="uniform" seed="2" typeId="4"/>\n'
            '<flow src="B" dst="A" rate="0.1" payload="uniform" seed="3"/>\n'
            '<flow src="B" dst="A" rate="0.1" payload="uniform" seed="4" typeId="2"/>\n'
            '<flow src="A" dst="B" rate="0.1" payload="uniform" seed="1"/>\n'
            '<flow src="B" dst="A" rate="0.1" payload="uniform" seed="5" typeId="4"/>\n'
            '<flow src="A" dst="B" rate="0.1" payload="gaussian" seed="1" sigma="9" rho="0.5"/>\n'
        )
        cfg = parse_config(flows_config(tmp_path, flows))
        assert [spec.type_id for spec in cfg.traffic] == [0, 4, 5, 2, 0, 4, 6]
        assert build_simulation(cfg).result.n_types == 8

    def test_pixel_kinds_of_one_source_and_seed_get_distinct_types(self, tmp_path):
        flows = "".join(
            f'<flow src="A" dst="B" rate="0.1" payload="{kind}" sigma="40" rho="0.9"'
            ' seed="7"/>\n' for kind in ("pixel-packed", "pixel-msb", "pixel-packed"))
        cfg = parse_config(flows_config(tmp_path, flows))
        assert [spec.payload.name for spec in cfg.traffic] == [
            "pixel-packed", "pixel-msb", "pixel-packed"]
        assert [spec.type_id for spec in cfg.traffic] == [0, 1, 0]

    def test_pgm_payload(self, tmp_path):
        pixels = bytes(range(7, 7 + 6 * 3))  # 6 x 3 pixels, 9 flits of two
        image = tmp_path / "img.pgm"
        image.write_bytes(b"P5\n# sensor\n6 3\n255\n" + pixels)
        flows = f'<flow src="A" dst="B" rate="0.1" payload="pgm" file="{image}"/>\n'
        (spec,) = parse_config(flows_config(tmp_path, flows)).traffic
        assert spec.payload.name == str(image)
        assert spec.payload.words.tolist() == [
            pixels[i] << 8 | pixels[i + 1] for i in range(0, len(pixels), 2)]

    def test_lognormal_payload_is_drawn_whole(self, tmp_path):
        flows = ('<flow src="A" dst="B" rate="0.1" payload="lognormal" sigma="300"'
                 ' rho="0.8" seed="4" length="500"/>\n')
        (spec,) = parse_config(flows_config(tmp_path, flows)).traffic
        whole = generate_stream(StreamSpec("lognormal", 16, 500, sigma=300.0, rho=0.8, seed=4))
        assert spec.payload.name == "lognormal"
        # normalized over all 500 words, not over the first block taken
        taken = np.concatenate([spec.payload.take(0, 10), spec.payload.take(10, 490)])
        assert np.array_equal(taken, whole.words)
