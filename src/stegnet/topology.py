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

Each key is declared once, in ``_SECTIONS``: with its section type,
the parser of its value, and whether the section must hold it.
``parse_topology`` reads the file through that table, and
``validate_topology`` then checks that the sections fit together.
"""

from __future__ import annotations

import hashlib
import math
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
    default_action: Optional[str] = None  # validate_topology fills in a monitor's "allow"


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


# Value parsers: each takes (value, line, key) and returns what the
# section's dataclass holds, or raises ConfigError on that line.
def _text(raw: str, line: int, key: str) -> str:
    return raw


def _choice(options: Tuple[str, ...], what: str):
    def parse(raw: str, line: int, key: str) -> str:
        if raw not in options:
            raise ConfigError(line, "unknown %s %r (expected one of %s)" % (what, raw, ", ".join(options)))
        return raw
    return parse


def _address(convert, what: str):
    def parse(raw: str, line: int, key: str) -> str:
        try:
            convert(raw)
        except ValueError:
            raise ConfigError(line, "bad %s address %r" % (what, raw)) from None
        return raw
    return parse


def _int_in(low: int, high: float, bound: str):
    def parse(raw: str, line: int, key: str) -> int:
        value = parse_int(raw, line, key)
        if not low <= value <= high:
            raise ConfigError(line, "%s must %s, got %d" % (key, bound, value))
        return value
    return parse


def _any_or(parse, anything):
    """``parse``, except that the value ``any`` gives ``anything``."""
    return lambda raw, line, key: anything if raw == "any" else parse(raw, line, key)


_IPV4 = _address(pk.str_to_ip, "IPv4")

# Each section type: the keys it must hold, then every key it may hold
# with the parser of its value, in the order the values are checked.
_SECTIONS = {
    "node": (("name", "kind"), {
        "name": _text, "kind": _choice(KINDS, "node kind"), "ip": _IPV4,
        "mac": _address(pk.str_to_mac, "MAC"), "peer": _text,
        "secret": parse_bool, "workload": parse_bool,
    }),
    "link": (("a", "b", "capacity"), {
        "a": _text, "b": _text, "capacity": _int_in(1, math.inf, "be positive"),
        "delay_us": _int_in(0, math.inf, "not be negative"),
    }),
    "rule": (("node", "action"), {
        "node": _text, "action": _choice(ACTIONS, "rule action"), "proto": _choice(PROTOS, "protocol"),
        "src": _any_or(_IPV4, "any"), "dst": _any_or(_IPV4, "any"),
        "dst_port": _any_or(_int_in(0, 0xFFFF, "lie in 0..65535"), None),
    }),
    "policy": (("node",), {
        "node": _text, "default": _choice(("allow", "drop"), "default action"),
        "nat": parse_bool, "inside": _text,
    }),
}

_POLICY_FIELDS = {"default": "default_action", "inside": "nat_inside"}  # [policy] keys named unlike their fields


def parse_topology(text: str) -> Topology:
    """Parse a description file; raises ConfigError with line numbers."""
    topo = Topology()
    for section, line, fields in read_sections(text, {name: keys for name, (_, keys) in _SECTIONS.items()}):
        required, parsers = _SECTIONS[section]
        for key in required:
            if key not in fields:
                raise ConfigError(line, "[%s] section is missing required key %r" % (section, key))
        values = {key: parse(*fields[key], key) for key, parse in parsers.items() if key in fields}
        if section == "node":
            if values["name"] in topo.nodes:
                raise ConfigError(line, "duplicate node name %r" % values["name"])
            topo.nodes[values["name"]] = NodeDef(**values)
        elif section == "link":
            topo.links.append(LinkDef(**values))
        elif section == "rule":
            topo.rules.append(RuleDef(**values))
        else:
            name = values.pop("node")
            if name not in topo.nodes:
                raise ConfigError(fields["node"][1], "policy for undeclared node %r" % name)
            for key, value in values.items():
                setattr(topo.nodes[name], _POLICY_FIELDS.get(key, key), value)
    return topo


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
        for key, is_set, kinds in (("default", node.default_action is not None, (KIND_MONITOR,)),
                                   ("inside", node.nat_inside is not None, (KIND_MONITOR,)),
                                   ("nat", node.nat, (KIND_MONITOR, KIND_CGATEWAY))):
            if is_set and node.kind not in kinds:
                raise InvalidTopology("policy key %r only applies to a %s, %r is a %s" % (key, " or ".join(kinds), node.name, node.kind))
        if node.nat and node.kind == KIND_MONITOR and node.nat_inside is None:
            raise InvalidTopology("address-translating monitor %r needs an inside neighbor (policy key 'inside')" % node.name)
        if node.nat_inside is not None and node.nat_inside not in topo.nodes:
            raise InvalidTopology("inside neighbor %r of %r is not declared" % (node.nat_inside, node.name))
    for node in topo.nodes.values():
        if node.mac is None:
            node.mac = _auto_mac(node.name)
        if node.kind == KIND_MONITOR and node.default_action is None:
            node.default_action = "allow"
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
        elif node.peer:
            raise InvalidTopology("only covert gateways have a peer, %r is a %s" % (node.name, node.kind))
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
