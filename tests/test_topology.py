"""Description-file parsing and semantic validation."""

from textwrap import dedent

import pytest

from stegnet.topology import (
    ConfigError,
    InvalidTopology,
    NodeDef,
    load_topology,
    parse_topology,
    validate_topology,
)
from stegnet.scenarios import line_topology

MINIMAL = dedent(
    """
    [node]
    name = gw_a
    kind = cgateway
    ip = 10.0.1.1
    peer = gw_b

    [node]
    name = gw_b
    kind = cgateway
    ip = 10.0.2.1
    peer = gw_a

    [node]
    name = h_a
    kind = host
    ip = 10.0.1.2
    secret = true

    [node]
    name = h_b
    kind = host
    ip = 10.0.2.2

    [link]
    a = h_a
    b = gw_a
    capacity = 1000

    [link]
    a = gw_a
    b = gw_b
    capacity = 1000

    [link]
    a = gw_b
    b = h_b
    capacity = 1000
    """
)


def _load(text):
    return load_topology(text)


def test_minimal_pair_loads():
    topo = _load(MINIMAL)
    assert set(topo.nodes) == {"gw_a", "gw_b", "h_a", "h_b"}
    assert topo.gateway_pairs() == [("gw_a", "gw_b")]
    assert topo.hop_count("h_a", "h_b") == 3
    assert topo.warnings == []
    # derivable defaults get filled in deterministically
    assert topo.nodes["h_a"].mac == _load(MINIMAL).nodes["h_a"].mac


def test_line_topology_generator_builds_reference_shape():
    topo = line_topology()
    kinds = {n.name: n.kind for n in topo.nodes.values()}
    assert kinds["gw_a"] == "cgateway" and kinds["gw_b"] == "cgateway"
    assert kinds["core"] == "monitor"
    secret = sorted(n.name for n in topo.nodes.values() if n.secret)
    assert secret == ["secret_a", "secret_b"]
    assert topo.gateway_pairs() == [("gw_a", "gw_b")]
    # one intermediate hop, so no latency warning
    assert topo.hop_count("gw_a", "gw_b") == 2
    assert topo.warnings == []
    assert "vis_a_1" in topo.nodes
    assert len([n for n in topo.nodes.values() if n.name.startswith("vis_a_")]) == 1
    scaled = line_topology(visible_users=4)
    assert len([n for n in scaled.nodes.values() if n.name.startswith("vis_a_")]) == 4


@pytest.mark.parametrize(
    "text,line,fragment",
    [
        ("[nod]\nname = x", 1, "unknown section type"),
        ("[node\nname = x", 1, "unterminated"),
        ("name = x", 1, "before any section"),
        ("[node]\nname = x\ncolour = red", 3, "unknown key"),
        ("[node]\nname = x\nname = y", 3, "duplicate key"),
        ("[node]\nname = x\nkind = blimp", 3, "unknown node kind"),
        ("[node]\nname = x\nkind = host\nip = 10.0.0.999", 4, "bad IPv4"),
        ("[node]\nname = x\nkind = host\nmac = zz:zz", 4, "bad MAC"),
        ("[node]\nname = x\nkind = host\nsecret = maybe", 4, "expected a boolean"),
        ("[link]\na = x\nb = y\ncapacity = fast", 4, "expected an integer"),
        ("[link]\na = x\nb = y\ncapacity = 0", 4, "must be positive"),
        ("[link]\na = x\nb = y\ncapacity = 5\ndelay_us = -1", 5, "not be negative"),
        ("[rule]\nnode = m\naction = reject", 3, "unknown rule action"),
        ("[rule]\nnode = m\naction = drop\nproto = gre", 4, "unknown protocol"),
        ("[policy]\nnode = m", 2, "undeclared node"),
        ("[node]\nkind = host", 1, "missing required key"),
        ("[node]\nname = x\nkind = host\nbroken line", 4, "expected 'key = value'"),
        # The whole file is read before any section is checked.
        ("[node]\nkind = host\n[link]\nbroken line", 4, "expected 'key = value'"),
        # A port the monitor could never see would make the rule match nothing.
        ("[rule]\nnode = m\naction = drop\ndst_port = 70000", 4, "0..65535"),
        ("[rule]\nnode = m\naction = drop\ndst_port = -3", 4, "0..65535"),
        ("[rule]\nnode = m\naction = drop\nsrc = 10.0.0.999", 4, "bad IPv4"),
        ("[rule]\nnode = m\naction = drop\ndst_port = x", 4, "expected an integer"),
        ("[node]\nname = m\nkind = monitor\n[policy]\nnode = m\ndefault = deny", 6, "default action"),
        ("[node]\nname = m\nkind = monitor\n[policy]\nnode = m\nnat = maybe", 6, "expected a boolean"),
        ("[link]\na = x\nb = y\ncapacity = 5\ndelay_us = slow", 5, "expected an integer"),
    ],
)
def test_parse_errors_carry_line_numbers(text, line, fragment):
    with pytest.raises(ConfigError) as err:
        parse_topology(text)
    assert err.value.line == line
    assert fragment in str(err.value)


def _variant(**changes):
    """MINIMAL with one section's worth of text appended or replaced."""
    text = MINIMAL
    for old, new in changes.items():
        assert old in text
        text = text.replace(old, new)
    return text


def test_gateway_pairing_must_be_mutual():
    with pytest.raises(InvalidTopology, match="not mutual"):
        _load(_variant(**{"peer = gw_a": "peer = gw_a_zzz"}).replace("peer = gw_a_zzz", "peer = gw_b", 1))
    # simpler: b points elsewhere
    text = MINIMAL.replace("peer = gw_a", "peer = h_b")
    with pytest.raises(InvalidTopology):
        _load(text)


def test_gateway_without_peer_rejected():
    text = MINIMAL.replace("peer = gw_b\n", "")
    with pytest.raises(InvalidTopology, match="no peer"):
        _load(text)


def test_secret_host_must_touch_gateway():
    text = MINIMAL.replace("secret = true", "").replace(
        "ip = 10.0.2.2", "ip = 10.0.2.2\nsecret = true"
    ).replace(
        "[link]\na = gw_b\nb = h_b\ncapacity = 1000", ""
    ) + dedent(
        """
        [node]
        name = r1
        kind = router

        [link]
        a = gw_b
        b = r1
        capacity = 1000

        [link]
        a = r1
        b = h_b
        capacity = 1000
        """
    )
    with pytest.raises(InvalidTopology, match="not directly attached"):
        _load(text)


def test_secret_and_workload_flags_are_host_only():
    text = MINIMAL.replace("kind = cgateway\nip = 10.0.1.1", "kind = cgateway\nip = 10.0.1.1\nworkload = true")
    with pytest.raises(InvalidTopology, match="only hosts"):
        _load(text)


@pytest.mark.parametrize(
    "extra",
    [
        "[node]\nname = h_c\nkind = host\nip = 10.0.2.3\npeer = gw_a",
        "[node]\nname = m1\nkind = monitor\npeer = gw_a",
        "[node]\nname = r1\nkind = router\npeer = gw_a",
    ],
)
def test_peer_is_gateway_only(extra):
    with pytest.raises(InvalidTopology, match="only covert gateways have a peer"):
        _load(MINIMAL + extra)


def test_link_endpoints_must_exist():
    text = MINIMAL + "\n[link]\na = h_a\nb = ghost\ncapacity = 10\n"
    with pytest.raises(InvalidTopology, match="undeclared node"):
        _load(text)
    text = MINIMAL + "\n[link]\na = h_a\nb = h_a\ncapacity = 10\n"
    with pytest.raises(InvalidTopology, match="to itself"):
        _load(text)


def test_rules_attach_only_to_monitors():
    text = MINIMAL + "\n[rule]\nnode = h_b\naction = drop\n"
    with pytest.raises(InvalidTopology, match="only attach to monitor"):
        _load(text)


def test_duplicate_addresses_rejected():
    text = MINIMAL.replace("ip = 10.0.2.2", "ip = 10.0.1.2")
    with pytest.raises(InvalidTopology, match="share address"):
        _load(text)


def test_host_needs_address():
    text = MINIMAL.replace("ip = 10.0.2.2\n", "")
    with pytest.raises(InvalidTopology, match="needs an ip"):
        _load(text)


def test_nat_monitor_needs_inside():
    text = MINIMAL + dedent(
        """
        [node]
        name = edge
        kind = monitor

        [link]
        a = gw_a
        b = edge
        capacity = 1000

        [policy]
        node = edge
        nat = true
        """
    )
    with pytest.raises(InvalidTopology, match="inside neighbor"):
        _load(text)
    ok = text.replace("nat = true", "nat = true\ninside = gw_a")
    topo = _load(ok)
    assert topo.nodes["edge"].nat and topo.nodes["edge"].nat_inside == "gw_a"


@pytest.mark.parametrize(
    "extra,key",
    [
        ("[policy]\nnode = gw_b\ndefault = drop", "default"),
        ("[policy]\nnode = h_b\ndefault = allow", "default"),
        ("[policy]\nnode = gw_b\ninside = h_b", "inside"),
        ("[policy]\nnode = h_b\nnat = true", "nat"),
        ("[node]\nname = r1\nkind = router\n[policy]\nnode = r1\nnat = true", "nat"),
    ],
)
def test_policy_keys_only_on_kinds_that_read_them(extra, key):
    with pytest.raises(InvalidTopology, match="policy key '%s' only applies" % key):
        _load(MINIMAL + extra)


def test_a_monitor_without_a_default_allows():
    topo = _load(MINIMAL + "[node]\nname = m1\nkind = monitor")
    assert topo.nodes["m1"].default_action == "allow"
    assert topo.nodes["h_b"].default_action is None


def test_disconnected_gateways_rejected():
    text = MINIMAL.replace(
        "[link]\na = gw_a\nb = gw_b\ncapacity = 1000\n", ""
    )
    with pytest.raises(InvalidTopology, match="not connected"):
        _load(text)


def test_long_paths_warn_but_load():
    insert = dedent(
        """
        [node]
        name = r1
        kind = router

        [node]
        name = r2
        kind = router

        [node]
        name = r3
        kind = router

        [link]
        a = gw_a
        b = r1
        capacity = 1000

        [link]
        a = r1
        b = r2
        capacity = 1000

        [link]
        a = r2
        b = r3
        capacity = 1000

        [link]
        a = r3
        b = gw_b
        capacity = 1000
        """
    )
    text = MINIMAL.replace("[link]\na = gw_a\nb = gw_b\ncapacity = 1000\n", "") + insert
    topo = _load(text)
    assert len(topo.warnings) == 1
    assert "3 intermediate nodes" in topo.warnings[0]


def test_comments_hex_and_explicit_macs():
    text = MINIMAL.replace(
        "capacity = 1000\n\n[link]\na = gw_a", "capacity = 0x400  # hex is fine\n\n[link]\na = gw_a"
    ).replace("ip = 10.0.2.2", "ip = 10.0.2.2\nmac = 02:aa:bb:cc:dd:ee")
    topo = _load(text)
    assert topo.links[0].capacity == 0x400
    assert topo.nodes["h_b"].mac == "02:aa:bb:cc:dd:ee"


def test_adjacency_agrees_with_the_link_scan():
    topo = line_topology(visible_users=3)
    topo.nodes["lone"] = NodeDef(name="lone", kind="router")
    adjacency = topo.adjacency()
    assert set(adjacency) == set(topo.nodes)
    for name in topo.nodes:
        assert adjacency[name] == sorted(topo.neighbors(name))
