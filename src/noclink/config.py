"""XML run configuration.

The schema follows the node-type listing convention::

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
        <node id="R1" x="0" y="0" z="0" routerType="0" peType="1"/>
      </topology>
      <flitWidth value="16"/>
      <bufferDepth value="4"/>
      <vcCount value="4"/>
      <flitsPerPacket value="32"/>
      <clockPeriod value="1e-9"/>     <!-- optional, seconds per base cycle, > 0 -->
      <traffic>
        <flow src="R1" dst="R7" rate="0.2" payload="gaussian"
              sigma="256" rho="0.99" seed="1"/>
      </traffic>
    </simulation>

Validation is strict: unknown elements and attributes are rejected with
their source line.
"""
from __future__ import annotations

import math
import xml.etree.ElementTree as ET
import xml.parsers.expat as expat
from dataclasses import dataclass, field
from pathlib import Path

from .simnet import ConfigurationError, FlowSpec, Network, RouterConfig, build_network
from .traffic import TrafficError, load_traffic_spec


class ConfigError(ValueError):
    pass


def _parse_with_lines(text: str) -> ET.Element:
    """Parse XML, annotating every element with its source line."""
    builder = ET.TreeBuilder()
    parser = expat.ParserCreate()

    def start(tag, attrs):
        elem = builder.start(tag, attrs)
        elem.set("_line", str(parser.CurrentLineNumber))

    parser.StartElementHandler = start
    parser.EndElementHandler = builder.end
    parser.CharacterDataHandler = builder.data
    parser.Parse(text, True)
    return builder.close()


def _line(elem: ET.Element) -> str:
    return f"line {elem.get('_line', '?')}"


def _attrs(elem: ET.Element) -> dict:
    return {k: v for k, v in elem.attrib.items() if k != "_line"}


def _require_attrs(elem: ET.Element, required: set, optional: set = frozenset()):
    attrs = _attrs(elem)
    missing = required - attrs.keys()
    if missing:
        raise ConfigError(
            f"<{elem.tag}> at {_line(elem)} is missing {sorted(missing)}"
        )
    unknown = attrs.keys() - required - optional
    if unknown:
        raise ConfigError(
            f"<{elem.tag}> at {_line(elem)} has unknown attributes {sorted(unknown)}"
        )
    return attrs


def _value_of(
    parent: ET.Element, tag: str, default: str | None = None
) -> tuple[str, ET.Element]:
    """The ``value`` of ``parent``'s one ``<tag>`` child, and the child (the
    parent when ``default`` stands in for a missing child), which a bad
    value's message names."""
    elems = parent.findall(tag)
    if not elems:
        if default is not None:
            return default, parent
        raise ConfigError(
            f"<{parent.tag}> at {_line(parent)} is missing <{tag}>"
            + (f" (nodeType id={parent.get('id')})" if parent.tag == "nodeType" else "")
        )
    if len(elems) > 1:
        raise ConfigError(f"duplicate <{tag}> at {_line(elems[1])}")
    attrs = _require_attrs(elems[0], {"value"})
    return attrs["value"], elems[0]


@dataclass
class NodeTypeConfig:
    type_id: int
    model: str
    clock_delay: int
    arbitration: str = "fair"


@dataclass
class SimulationConfig:
    nodes: dict[str, tuple[int, int, int]]
    router_cfg: RouterConfig
    pe_clock_delay: int
    flit_width: int
    clock_period: float
    traffic: list[FlowSpec] = field(repr=False, default_factory=list)


# accepted values of a router's single-valued children
_ROUTER_VALUES = {
    "routing": ("XYZ",),
    "selection": ("RoundRobin",),
    "arbitration": ("fair", "priority"),
}

_ROUTER_CHILDREN = {"model", "clockDelay", *_ROUTER_VALUES}
_PE_CHILDREN = {"model", "clockDelay"}
# a <flow>'s attributes, as the README lists them
_FLOW_REQUIRED = {"src", "dst", "rate", "payload"}
_FLOW_OPTIONAL = {"seed", "sigma", "rho", "length", "file", "typeId", "flitsPerPacket"}
_TOP_LEVEL = {
    "nodeTypes", "topology", "flitWidth", "bufferDepth", "vcCount",
    "flitsPerPacket", "clockPeriod", "traffic",
}


def _parse_node_type(elem: ET.Element) -> NodeTypeConfig:
    attrs = _require_attrs(elem, {"id"})
    type_id = _int_of(attrs["id"], elem, "id")
    model, _ = _value_of(elem, "model")
    allowed = {"RouterVC": _ROUTER_CHILDREN, "ProcessingElementVC": _PE_CHILDREN}.get(model)
    if allowed is None:
        raise ConfigError(
            f"unknown model {model!r} in nodeType id={type_id} at {_line(elem)}"
        )
    for child in elem:
        if child.tag not in allowed:
            raise ConfigError(
                f"unknown element <{child.tag}> at {_line(child)}"
                f" in nodeType id={type_id}"
            )
    delay = _int_of(*_value_of(elem, "clockDelay"), "clockDelay")
    if model == "ProcessingElementVC":
        return NodeTypeConfig(type_id, model, delay)
    for tag, known in _ROUTER_VALUES.items():
        raw, _ = _value_of(elem, tag)
        if raw not in known:
            raise ConfigError(
                f"unknown {tag} {raw!r} in nodeType id={type_id} at {_line(elem)}"
            )
    return NodeTypeConfig(type_id, model, delay, _value_of(elem, "arbitration")[0])


def _int_of(raw: str, elem: ET.Element, what: str) -> int:
    try:
        return int(raw)
    except ValueError as exc:
        raise ConfigError(
            f"non-integer {what} {raw!r} in <{elem.tag}> at {_line(elem)}"
        ) from exc


def _float_of(raw: str, elem: ET.Element, what: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        value = math.nan
    if not 0.0 < value < math.inf:
        raise ConfigError(
            f"{what} {raw!r} in <{elem.tag}> at {_line(elem)} is not a positive number"
        )
    return value


def parse_config(path) -> SimulationConfig:
    path = Path(path)
    try:
        root = _parse_with_lines(path.read_text())
    except expat.ExpatError as exc:
        raise ConfigError(f"{path}: malformed XML: {exc}") from exc
    if root.tag != "simulation":
        raise ConfigError(f"{path}: root element must be <simulation>, got <{root.tag}>")
    for child in root:
        if child.tag not in _TOP_LEVEL:
            raise ConfigError(f"unknown element <{child.tag}> at {_line(child)}")

    types_elem = root.find("nodeTypes")
    node_types: dict[int, NodeTypeConfig] = {}
    if types_elem is not None:
        for elem in types_elem:
            if elem.tag != "nodeType":
                raise ConfigError(f"unknown element <{elem.tag}> at {_line(elem)}")
            cfg = _parse_node_type(elem)
            if cfg.type_id in node_types:
                raise ConfigError(f"duplicate nodeType id={cfg.type_id}")
            node_types[cfg.type_id] = cfg
    routers = [t for t in node_types.values() if t.model == "RouterVC"]
    pes = [t for t in node_types.values() if t.model == "ProcessingElementVC"]
    if len(routers) != 1 or len(pes) != 1:
        raise ConfigError("exactly one RouterVC and one ProcessingElementVC nodeType required")
    router_type, pe_type = routers[0], pes[0]

    topo = root.find("topology")
    if topo is None:
        raise ConfigError(f"{path}: missing <topology>")
    nodes: dict[str, tuple[int, int, int]] = {}
    for elem in topo:
        if elem.tag != "node":
            raise ConfigError(f"unknown element <{elem.tag}> at {_line(elem)}")
        attrs = _require_attrs(elem, {"id", "x", "y", "z"}, {"routerType", "peType"})
        nid = attrs["id"]
        if nid in nodes:
            raise ConfigError(f"duplicate node id {nid!r} at {_line(elem)}")
        for role, expect in (("routerType", router_type), ("peType", pe_type)):
            if role in attrs and _int_of(attrs[role], elem, role) != expect.type_id:
                raise ConfigError(
                    f"node {nid!r} references unknown {role} {attrs[role]} at {_line(elem)}"
                )
        nodes[nid] = tuple(_int_of(attrs[k], elem, k) for k in ("x", "y", "z"))
    if not nodes:
        raise ConfigError(f"{path}: <topology> lists no nodes")

    flit_width = _int_of(*_value_of(root, "flitWidth"), "flitWidth")
    buffer_depth = _int_of(*_value_of(root, "bufferDepth", "4"), "bufferDepth")
    vc_count = _int_of(*_value_of(root, "vcCount", "1"), "vcCount")
    flits_per_packet = _int_of(*_value_of(root, "flitsPerPacket", "32"), "flitsPerPacket")
    clock_period = _float_of(*_value_of(root, "clockPeriod", "1e-9"), "clockPeriod")
    if not 1 <= flit_width <= 64:
        raise ConfigError(f"flitWidth {flit_width} outside [1, 64]")

    router_cfg = RouterConfig(
        vc_count=vc_count,
        buffer_depth=buffer_depth,
        arbitration=router_type.arbitration,
        clock_delay=router_type.clock_delay,
    )

    traffic_elem = root.find("traffic")
    flows: list[dict] = []
    where: list[str] = []
    if traffic_elem is not None:
        for elem in traffic_elem:
            if elem.tag != "flow":
                raise ConfigError(f"unknown element <{elem.tag}> at {_line(elem)}")
            flows.append(_require_attrs(elem, _FLOW_REQUIRED, _FLOW_OPTIONAL))
            where.append(f"<flow> at {_line(elem)}")
    try:
        specs = load_traffic_spec(flows, nodes, flit_width, flits_per_packet, where)
    except (TrafficError, ConfigurationError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc

    return SimulationConfig(
        nodes=nodes,
        router_cfg=router_cfg,
        pe_clock_delay=pe_type.clock_delay,
        flit_width=flit_width,
        clock_period=clock_period,
        traffic=specs,
    )


def build_simulation(
    cfg: SimulationConfig, *, seed: int = 0, collect_traces: bool = False
) -> Network:
    """Instantiate a network from a parsed configuration."""
    return build_network(
        cfg.nodes,
        cfg.traffic,
        flit_width=cfg.flit_width,
        router_cfg=cfg.router_cfg,
        pe_clock_delay=cfg.pe_clock_delay,
        clock_period=cfg.clock_period,
        collect_traces=collect_traces,
        seed=seed,
    )
