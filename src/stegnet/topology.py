"""Line-oriented network description files.

A description is a sequence of sections.  Each section starts with a
header line naming its type and holds ``key = value`` assignments until
the next header or end of file.  ``#`` starts a comment, blank lines
are ignored, and unknown section types or keys are hard errors: a typo
in a config must never silently change an experiment.  Workload and
engine files use the same reader, ``read_sections``.

    [node]
    name = client_a
    kind = host
    ip = 10.0.1.2
    secret = true

    [link]
    a = client_a
    b = gw_a
    capacity = 125000

Section types: ``[node]`` declares a device (kinds: host, cgateway,
monitor, router), ``[link]`` an undirected pipe between two declared
nodes, ``[rule]`` one first-match filter rule on a monitor, and
``[policy]`` one node's defaults (a monitor's default action and flow
tracking, a gateway's address translation for its secret hosts).
Gateways are paired via ``peer``; hosts carrying secret traffic are
flagged ``secret = true`` and must sit directly on their gateway.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Collection, Dict, List, Mapping, Optional, Tuple

from . import packet as pk

KIND_HOST = "host"
KIND_CGATEWAY = "cgateway"
KIND_MONITOR = "monitor"
KIND_ROUTER = "router"

KINDS = (KIND_HOST, KIND_CGATEWAY, KIND_MONITOR, KIND_ROUTER)

ACTIONS = ("allow", "drop", "log")
PROTOS = ("any", "tcp", "udp", "icmp")

# The keys each section type may hold.
_SECTION_KEYS = {
    "node": ("name", "kind", "ip", "mac", "peer", "secret", "workload"),
    "link": ("a", "b", "capacity", "delay_us"),
    "rule": ("node", "action", "proto", "src", "dst", "dst_port"),
    "policy": ("node", "default", "nat", "inside"),
}


class ConfigError(ValueError):
    """Syntax or vocabulary problem in a description file."""

    def __init__(self, line: int, message: str):
        super().__init__("line %d: %s" % (line, message))
        self.line = line


class InvalidTopology(ValueError):
    """Structurally well formed description that cannot be built."""


@dataclass
class NodeDef:
    name: str
    kind: str
    ip: Optional[str] = None
    mac: Optional[str] = None
    peer: Optional[str] = None
    secret: bool = False
    workload: bool = False
    nat: bool = False
    nat_inside: Optional[str] = None
    default_action: str = "allow"


@dataclass
class LinkDef:
    a: str
    b: str
    capacity: int
    delay_us: int = 0


@dataclass
class RuleDef:
    node: str
    action: str
    proto: str = "any"
    src: str = "any"
    dst: str = "any"
    dst_port: Optional[int] = None


@dataclass
class Topology:
    nodes: Dict[str, NodeDef] = field(default_factory=dict)
    links: List[LinkDef] = field(default_factory=list)
    rules: List[RuleDef] = field(default_factory=list)
    warnings: List[str] = field(default_factory=list)

    def neighbors(self, name: str) -> List[str]:
        out = []
        for link in self.links:
            if link.a == name:
                out.append(link.b)
            elif link.b == name:
                out.append(link.a)
        return out

    def adjacency(self) -> Dict[str, List[str]]:
        """Every node's neighbours in sorted order, from one pass over
        the links.  A snapshot: later changes to ``links`` do not show."""
        adjacent: Dict[str, List[str]] = {name: [] for name in self.nodes}
        for link in self.links:
            adjacent.setdefault(link.a, []).append(link.b)
            adjacent.setdefault(link.b, []).append(link.a)
        for names in adjacent.values():
            names.sort()
        return adjacent

    def gateway_pairs(self) -> List[Tuple[str, str]]:
        seen = set()
        pairs = []
        for node in self.nodes.values():
            if node.kind == KIND_CGATEWAY and node.peer:
                key = tuple(sorted((node.name, node.peer)))
                if key not in seen:
                    seen.add(key)
                    pairs.append((node.name, node.peer))
        return pairs

    def hop_count(self, a: str, b: str) -> Optional[int]:
        """Edges on the shortest path, or None when disconnected."""
        if a == b:
            return 0
        frontier = [a]
        dist = {a: 0}
        while frontier:
            nxt = []
            for name in frontier:
                for n in self.neighbors(name):
                    if n not in dist:
                        dist[n] = dist[name] + 1
                        if n == b:
                            return dist[n]
                        nxt.append(n)
            frontier = nxt
        return None


_BOOLEANS = {"true": True, "yes": True, "on": True, "1": True,
             "false": False, "no": False, "off": False, "0": False}


def parse_bool(raw: str, line: int, what: str) -> bool:
    try:
        return _BOOLEANS[raw.lower()]
    except KeyError:
        raise ConfigError(line, "expected a boolean for %s, got %r" % (what, raw)) from None


def parse_int(raw: str, line: int, what: str) -> int:
    """Decimal, or hexadecimal, octal and binary with a ``0x``, ``0o``
    or ``0b`` prefix."""
    try:
        return int(raw, 0)
    except ValueError:
        raise ConfigError(line, "expected an integer for %s, got %r" % (what, raw)) from None


def parse_float(raw: str, line: int, what: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(line, "expected a number for %s, got %r" % (what, raw)) from None


Fields = Dict[str, Tuple[str, int]]


def read_sections(text: str, keys: Mapping[str, Collection[str]],
                  implicit: Optional[str] = None) -> List[Tuple[str, int, Fields]]:
    """Every section of a ``key = value`` file as (section type, header
    line, {key: (value, line)}), in file order.

    ``keys`` maps each section type to the keys it may hold.  Headers
    are matched case-insensitively.  An unknown section type or key, a
    key set twice in one section and an assignment before the first
    header raise ConfigError.  ``implicit`` names a section that need
    not be declared: the first assignment opens it if no header has,
    and every later header naming it continues that one section.
    """
    sections: List[Tuple[str, int, Fields]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ConfigError(lineno, "unterminated section header %r" % raw.strip())
            name = line[1:-1].strip().lower()
            if name not in keys:
                raise ConfigError(lineno, "unknown section type %r" % name)
            if name != implicit or not sections:
                sections.append((name, lineno, {}))
            continue
        if "=" not in line:
            raise ConfigError(lineno, "expected 'key = value', got %r" % raw.strip())
        if not sections:
            if implicit is None:
                raise ConfigError(lineno, "assignment before any section header")
            sections.append((implicit, lineno, {}))
        section, _, fields = sections[-1]
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in keys[section]:
            raise ConfigError(lineno, "unknown key %r in [%s] section" % (key, section))
        if key in fields:
            raise ConfigError(lineno, "duplicate key %r" % key)
        fields[key] = (value, lineno)
    return sections


def parse_topology(text: str) -> Topology:
    """Parse a description file; raises ConfigError with line numbers."""
    topo = Topology()
    finish = {"node": _finish_node, "link": _finish_link, "rule": _finish_rule, "policy": _finish_policy}
    for section, line, fields in read_sections(text, _SECTION_KEYS):
        finish[section](topo, fields, line)
    return topo


def _require(fields, key, section, line):
    if key not in fields:
        raise ConfigError(line, "[%s] section is missing required key %r" % (section, key))
    return fields[key]


def _finish_node(topo: Topology, fields, line: int) -> None:
    name, _ = _require(fields, "name", "node", line)
    kind, kind_line = _require(fields, "kind", "node", line)
    if kind not in KINDS:
        raise ConfigError(kind_line, "unknown node kind %r (expected one of %s)" % (kind, ", ".join(KINDS)))
    if name in topo.nodes:
        raise ConfigError(line, "duplicate node name %r" % name)
    node = NodeDef(name=name, kind=kind)
    if "ip" in fields:
        value, ip_line = fields["ip"]
        try:
            pk.str_to_ip(value)
        except Exception:
            raise ConfigError(ip_line, "bad IPv4 address %r" % value) from None
        node.ip = value
    if "mac" in fields:
        value, mac_line = fields["mac"]
        try:
            pk.str_to_mac(value)
        except Exception:
            raise ConfigError(mac_line, "bad MAC address %r" % value) from None
        node.mac = value
    if "peer" in fields:
        node.peer = fields["peer"][0]
    if "secret" in fields:
        node.secret = parse_bool(*fields["secret"], "secret")
    if "workload" in fields:
        node.workload = parse_bool(*fields["workload"], "workload")
    topo.nodes[name] = node


def _finish_link(topo: Topology, fields, line: int) -> None:
    a, _ = _require(fields, "a", "link", line)
    b, _ = _require(fields, "b", "link", line)
    cap_raw, cap_line = _require(fields, "capacity", "link", line)
    capacity = parse_int(cap_raw, cap_line, "capacity")
    if capacity <= 0:
        raise ConfigError(cap_line, "link capacity must be positive")
    delay = 0
    if "delay_us" in fields:
        delay = parse_int(*fields["delay_us"], "delay_us")
        if delay < 0:
            raise ConfigError(fields["delay_us"][1], "delay_us must not be negative")
    topo.links.append(LinkDef(a=a, b=b, capacity=capacity, delay_us=delay))


def _finish_rule(topo: Topology, fields, line: int) -> None:
    node, _ = _require(fields, "node", "rule", line)
    action, action_line = _require(fields, "action", "rule", line)
    if action not in ACTIONS:
        raise ConfigError(action_line, "unknown rule action %r" % action)
    rule = RuleDef(node=node, action=action)
    if "proto" in fields:
        proto, proto_line = fields["proto"]
        if proto not in PROTOS:
            raise ConfigError(proto_line, "unknown protocol %r" % proto)
        rule.proto = proto
    for key in ("src", "dst"):
        if key in fields:
            value, key_line = fields[key]
            if value != "any":
                try:
                    pk.str_to_ip(value)
                except Exception:
                    raise ConfigError(key_line, "bad IPv4 address %r" % value) from None
            setattr(rule, key, value)
    if "dst_port" in fields:
        value, port_line = fields["dst_port"]
        if value != "any":
            rule.dst_port = parse_int(value, port_line, "dst_port")
    topo.rules.append(rule)


def _finish_policy(topo: Topology, fields, line: int) -> None:
    name, node_line = _require(fields, "node", "policy", line)
    if name not in topo.nodes:
        raise ConfigError(node_line, "policy for undeclared node %r" % name)
    node = topo.nodes[name]
    if "default" in fields:
        action, action_line = fields["default"]
        if action not in ("allow", "drop"):
            raise ConfigError(action_line, "default action must be allow or drop")
        node.default_action = action
    if "nat" in fields:
        node.nat = parse_bool(*fields["nat"], "nat")
    if "inside" in fields:
        node.nat_inside = fields["inside"][0]


def _auto_mac(name: str) -> str:
    digest = hashlib.sha256(name.encode()).digest()
    return pk.mac_to_str(b"\x02" + digest[:5])


def validate_topology(topo: Topology) -> Topology:
    """Semantic checks; fills in derivable defaults.

    Hard problems raise InvalidTopology.  Layouts that work but deserve
    a second look (very long gateway-to-gateway paths) are appended to
    ``topo.warnings``.
    """
    for link in topo.links:
        for end in (link.a, link.b):
            if end not in topo.nodes:
                raise InvalidTopology("link references undeclared node %r" % end)
        if link.a == link.b:
            raise InvalidTopology("link from %r to itself" % link.a)
    for rule in topo.rules:
        if rule.node not in topo.nodes:
            raise InvalidTopology("rule references undeclared node %r" % rule.node)
        if topo.nodes[rule.node].kind != KIND_MONITOR:
            raise InvalidTopology("rules only attach to monitor nodes, %r is a %s" % (rule.node, topo.nodes[rule.node].kind))
    for node in topo.nodes.values():
        if node.nat and node.kind == KIND_MONITOR and node.nat_inside is None:
            raise InvalidTopology("address-translating monitor %r needs an inside neighbor (policy key 'inside')" % node.name)
        if node.nat_inside is not None and node.nat_inside not in topo.nodes:
            raise InvalidTopology("inside neighbor %r of %r is not declared" % (node.nat_inside, node.name))
    for node in topo.nodes.values():
        if node.mac is None:
            node.mac = _auto_mac(node.name)
        if node.kind in (KIND_HOST, KIND_CGATEWAY) and node.ip is None:
            raise InvalidTopology("node %r of kind %s needs an ip" % (node.name, node.kind))
        if node.kind == KIND_CGATEWAY:
            if not node.peer:
                raise InvalidTopology("covert gateway %r has no peer" % node.name)
            peer = topo.nodes.get(node.peer)
            if peer is None:
                raise InvalidTopology("covert gateway %r peers with undeclared node %r" % (node.name, node.peer))
            if peer.kind != KIND_CGATEWAY:
                raise InvalidTopology("covert gateway %r peers with %r which is a %s" % (node.name, node.peer, peer.kind))
            if peer.peer != node.name:
                raise InvalidTopology("gateway pairing %r -> %r is not mutual" % (node.name, node.peer))
        if node.workload and node.kind != KIND_HOST:
            raise InvalidTopology("only hosts can generate workload traffic, %r is a %s" % (node.name, node.kind))
        if node.secret:
            if node.kind != KIND_HOST:
                raise InvalidTopology("only hosts can carry secret traffic, %r is a %s" % (node.name, node.kind))
            adjacent = topo.neighbors(node.name)
            if not any(topo.nodes[n].kind == KIND_CGATEWAY for n in adjacent):
                raise InvalidTopology("secret host %r is not directly attached to a covert gateway" % node.name)
    ips = {}
    for node in topo.nodes.values():
        if node.ip is not None:
            if node.ip in ips:
                raise InvalidTopology("nodes %r and %r share address %s" % (ips[node.ip], node.name, node.ip))
            ips[node.ip] = node.name
    for a, b in topo.gateway_pairs():
        hops = topo.hop_count(a, b)
        if hops is None:
            raise InvalidTopology("paired gateways %r and %r are not connected" % (a, b))
        if hops - 1 > 2:
            topo.warnings.append(
                "gateways %s and %s are separated by %d intermediate nodes; extraction latency grows with each hop" % (a, b, hops - 1)
            )
    return topo


def load_topology(text: str) -> Topology:
    """The validated topology that ``text``, a topology file's contents, describes."""
    return validate_topology(parse_topology(text))
