import dataclasses
import enum
import itertools
import random
import sys

import pytest

import stegnet.handlers as hd
import stegnet.packet as pk
import stegnet.wire as wire


def _tcp(payload=b"x" * 32, flags=pk.TCP_ACK):
    return pk.build_tcp("10.0.0.1", "10.0.0.2", 1000, 80, flags=flags, payload=payload)


def _syn():
    return pk.build_tcp("10.0.0.1", "10.0.0.2", 1000, 80, flags=pk.TCP_SYN, seq=0x1234)


def _icmp(size=56):
    return pk.build_icmp_echo("10.0.0.1", "10.0.0.2", payload=bytes(range(size % 251)) + b"\x00" * (size - size % 251))


def _udp():
    return pk.build_udp("10.0.0.1", "10.0.0.2", 53, 5353, payload=b"q" * 30)


def _select(reg, candidates, p, opening, active_handler=None, active_multiplicity=1, augmented_allowed=False):
    """The id of the handler ``reg.select`` picks among the ``candidates``
    ids under the given stream state, or None."""
    cursor = wire.SegmentCursor(active_handler, active_multiplicity)
    picked = reg.select([reg.get(hid) for hid in candidates], p, cursor, opening, augmented_allowed)
    return None if picked is None else picked[0].id


def _match_ids(reg, p):
    return [spec.id for spec in reg.match(p)]


def test_builtin_table():
    reg = hd.build_registry(enabled=(1, 2, 3, 4, 5))
    spec = {hid: reg.get(hid) for hid in reg.ids}
    assert [s.id for s in spec.values()] == [1, 2, 3, 4, 5]
    assert spec[1].carrier_cost == 0.34
    assert spec[2].carrier_cost == 0.10
    assert spec[3].carrier_cost == 0.70
    assert spec[4].carrier_cost == 0.10
    assert spec[5].carrier_cost == 0.70
    assert spec[4].recovery is hd.RecoveryClass.SELF_RECOVERABLE
    assert spec[5].recovery is hd.RecoveryClass.AUGMENTED_CORRECTION
    assert spec[4].manipulation is hd.ManipulationClass.DESTRUCTIVE


def test_default_enabled_set():
    reg = hd.build_registry()
    # the risky wide channels stay out until asked for
    assert reg.ids == [1, 2, 4]


def test_match_dispatch():
    reg = hd.build_registry(enabled=(1, 2, 3, 4, 5))
    assert _match_ids(reg, _tcp()) == [1, 3, 4]
    assert _match_ids(reg, _syn()) == [3, 4, 5]
    assert _match_ids(reg, _icmp()) == [2, 3]
    assert _match_ids(reg, _udp()) == [3, 4]


def test_matches_agrees_with_match():
    carriers = (_tcp(), _syn(), _icmp(), _udp())
    for size in range(len(hd.STOCK_IDS) + 1):
        for enabled in itertools.combinations(hd.STOCK_IDS, size):
            reg = hd.build_registry(enabled=enabled)
            assert [reg.matches(p) for p in carriers] == [bool(reg.match(p)) for p in carriers], enabled


def test_capacities():
    reg = hd.build_registry(enabled=(1, 2, 3, 4, 5))
    assert reg.get(1).capacity(_tcp()) == 40
    assert reg.get(2).capacity(_icmp(56)) == 56
    assert reg.get(3).capacity(_tcp()) == 2
    assert reg.get(4).capacity(_tcp()) == 2
    assert reg.get(5).capacity(_syn()) == 4


def test_icmp_timestamp_preservation():
    reg = hd.build_registry(enabled=(2,), preserve_icmp_timestamp=True)
    p = _icmp(56)
    spec = reg.get(2)
    assert spec.capacity(p) == 48
    written = spec.writer(p, b"S" * 48)
    assert written.icmp.payload[:8] == p.icmp.payload[:8]
    assert written.icmp.payload[8:] == b"S" * 48


def test_pair_law_prefix_and_exact():
    # the read-back region starts with the written octets and matches
    # exactly when the segment fills the whole region
    reg = hd.build_registry(enabled=(1, 2, 4))
    rng = random.Random(77)
    for hid, carrier in ((1, _tcp()), (2, _icmp()), (4, _udp())):
        spec = reg.get(hid)
        cap = spec.capacity(carrier)
        for _ in range(40):
            size = rng.randint(1, cap)
            segment = rng.randbytes(size)
            got = spec.reader(spec.writer(carrier, segment))
            assert len(got) >= size
            assert got[:size] == segment
        full = rng.randbytes(cap)
        assert spec.reader(spec.writer(carrier, full)) == full


def test_registry_rejects_duplicate_id():
    reg = hd.HandlerRegistry()
    reg.register(hd.make_tcp_options_handler())
    with pytest.raises(hd.DuplicateId):
        reg.register(hd.make_tcp_options_handler())


@pytest.mark.parametrize("make", [hd.make_ipv4_checksum_handler, hd.make_tcp_isn_handler])
def test_registry_refuses_a_destructive_handler_with_no_recovery(make):
    # A destructive write must be repaired from the packet or corrected
    # by the fusing gateway; with neither it would damage every carrier it rides.
    unrepaired = dataclasses.replace(make(), recovery=hd.RecoveryClass.NO_RECOVERY)
    reg = hd.HandlerRegistry()
    with pytest.raises(hd.RegistryError, match="destructive handler %r has no recovery" % unrepaired.name):
        reg.register(unrepaired)
    assert reg.ids == [] and id(unrepaired) not in hd._PASSED


def test_self_test_catches_broken_reader():
    broken = hd.make_icmp_payload_handler()
    lying_reader = lambda p: p.icmp.payload[1:] + b"\x00"
    bad = hd.HandlerSpec(
        id=99, name="liar", match=broken.match, writer=broken.writer,
        reader=lying_reader, capacity=broken.capacity,
        carrier_cost=0.2, manipulation=broken.manipulation, recovery=broken.recovery,
    )
    with pytest.raises(hd.SelfTestFailed):
        hd.HandlerRegistry().register(bad)


def test_unknown_handler():
    reg = hd.build_registry()
    with pytest.raises(hd.UnknownHandler):
        reg.get(42)
    with pytest.raises(hd.UnknownHandler):
        hd.build_registry(enabled=(1, 42))
    with pytest.raises(hd.UnknownHandler):
        hd.build_registry(cost_overrides={7: 0.2})


def test_cost_override_changes_selection():
    reg = hd.build_registry(enabled=(1, 2), cost_overrides={1: 0.05})
    # tcp_options is normally pricier than icmp_payload; override flips nothing
    # here because the two never match the same packet, but the spec cost must
    # reflect the override.
    assert reg.get(1).carrier_cost == 0.05
    assert reg.get(2).carrier_cost == 0.10
    assert _select(reg, [1], _tcp(), opening=True) == 1


def test_selection_prefers_cheapest():
    reg = hd.build_registry(enabled=(1, 2, 3, 4, 5))
    # continuing on the checksum field is cheaper (0.10) than options (0.34)
    assert _select(reg, [1, 3, 4], _tcp(), opening=False, active_handler=4) == 4
    # when opening, two-octet fields fall out and options wins
    assert _select(reg, [1, 3, 4], _tcp(), opening=True) == 1
    # mid-item away from handler 1 a switch header cannot fit a 2-octet
    # field, so the active wide field keeps the stream
    assert _select(reg, [1, 3, 4], _tcp(), opening=False, active_handler=1) == 1


def test_selection_recovery_rank_breaks_cost_tie():
    # icmp_payload and ipv4_checksum share cost 0.10; NO_RECOVERY wins
    reg = hd.build_registry(enabled=(2, 4))
    chosen = _select(reg, [2, 4], _icmp(), opening=False, active_handler=2)
    assert chosen == 2


def test_selection_excludes_augmented_without_permission():
    reg = hd.build_registry(enabled=(3, 5))
    syn = _syn()
    # two candidates force a switch header; the 2-octet id field cannot
    # hold one and the ISN field is barred without permission
    assert _select(reg, [3, 5], syn, opening=False, active_handler=1) is None
    assert _select(reg, [3, 5], syn, opening=False, active_handler=1, augmented_allowed=True) == 5
    # a lone unambiguous id field continues an item silently
    assert _select(reg, [3], syn, opening=False, active_handler=1) == 3
    # the 4-octet ISN region can even open an item: header plus one octet
    assert _select(reg, [5], syn, opening=True, augmented_allowed=True) == 5


def test_selection_none_when_nothing_can_progress():
    reg = hd.build_registry(enabled=(3, 4, 5))
    # every candidate region is 2 octets; an opening header needs 3 + 1
    assert _select(reg, [3, 4], _tcp(), opening=True) is None


def test_selection_switch_need_counts_against_capacity():
    reg = hd.build_registry(enabled=(1, 2, 3, 4, 5))
    # mid-item, switching into a 2-octet field would need a 3-octet header
    assert _select(reg, [4], _udp(), opening=False, active_handler=1, active_multiplicity=2) is None
    # same field continuing silently is fine
    assert _select(reg, [4], _udp(), opening=False, active_handler=4, active_multiplicity=1) == 4


def test_selection_deterministic():
    reg = hd.build_registry(enabled=(1, 2, 3, 4, 5))
    rng = random.Random(11)
    carriers = [_tcp(), _syn(), _icmp(), _udp()]
    for _ in range(200):
        p = rng.choice(carriers)
        candidates = _match_ids(reg, p)
        state = dict(
            opening=rng.random() < 0.5,
            active_handler=rng.choice((None, 1, 2, 4)),
            active_multiplicity=rng.choice((1, 2)),
            augmented_allowed=rng.random() < 0.5,
        )
        first = _select(reg, candidates, p, **state)
        again = _select(reg, list(candidates), p, **state)
        assert first == again


def test_select_returns_capacity_of_the_choice():
    reg = hd.build_registry(enabled=(1, 2, 3, 4, 5))
    for p, chosen, capacity in ((_tcp(), 1, 40), (_icmp(56), 2, 56), (_syn(), 5, 4)):
        spec, got = reg.select(reg.match(p), p, wire.SegmentCursor(), True, True)
        assert spec is reg.get(chosen)
        assert (spec.id, got) == (chosen, capacity) == (chosen, reg.get(chosen).capacity(p))


@pytest.mark.parametrize("hid, carrier", [(3, _tcp), (4, _udp), (5, _syn)])
def test_integer_field_keeps_unwritten_octets(hid, carrier):
    spec = hd.build_registry(enabled=(hid,)).get(hid)
    width = spec.capacity(carrier())
    # start from a field whose every octet is set and distinct
    p = spec.writer(carrier(), bytes(range(0xA1, 0xA1 + width)))
    old = spec.reader(p)
    assert len(old) == width
    assert spec.reader(spec.writer(p, b"\x5a")) == b"\x5a" + old[1:]


@pytest.mark.parametrize("hid, carrier", [(1, _tcp), (2, _icmp), (3, _tcp), (4, _udp), (5, _syn)])
def test_oversize_segment_raises_value_error(hid, carrier):
    """Every stock writer refuses a segment one octet longer than its
    region with the same exception, whatever the layer below raises."""
    spec = hd.build_registry(enabled=(hid,)).get(hid)
    p = carrier()
    with pytest.raises(ValueError, match="at most|exceeds"):
        spec.writer(p, b"\x5a" * (spec.capacity(p) + 1))


def _count_self_tests(monkeypatch):
    """Forget every verdict of this process and count the self-tests run."""
    monkeypatch.setattr(hd, "_PASSED", {})
    tested = []
    real = hd._self_test

    def counting(spec):
        tested.append(spec)
        real(spec)

    monkeypatch.setattr(hd, "_self_test", counting)
    return tested


def test_stock_self_tests_run_once_per_process(monkeypatch):
    tested = _count_self_tests(monkeypatch)
    first = hd.build_registry(enabled=(1, 2, 4))
    second = hd.build_registry(enabled=(1, 2, 4))
    # disabled stock specs are self-tested when first enabled
    assert sorted(spec.id for spec in tested) == [1, 2, 4]
    assert all(first.get(hid) is second.get(hid) for hid in first.ids)


def test_new_stock_configuration_is_tested(monkeypatch):
    tested = _count_self_tests(monkeypatch)
    base = hd.build_registry()
    tested.clear()
    cheaper = hd.build_registry(cost_overrides={1: 0.2})
    assert tested == [cheaper.get(1)]
    assert cheaper.get(1) is not base.get(1) and cheaper.get(1).carrier_cost == 0.2
    tested.clear()
    stamped = hd.build_registry(preserve_icmp_timestamp=True)
    assert tested == [stamped.get(2)]
    assert stamped.get(2).capacity(_icmp(56)) == 48
    tested.clear()
    hd.build_registry(cost_overrides={1: 0.2}, preserve_icmp_timestamp=True)
    assert tested == []


def test_custom_spec_still_tested_after_stock_registries():
    hd.build_registry()
    hd.build_registry(enabled=(1, 2, 3, 4, 5))
    icmp = hd.make_icmp_payload_handler()
    bad = hd.HandlerSpec(
        id=2, name="liar", match=icmp.match, writer=icmp.writer,
        reader=lambda p: b"\x00" + p.icmp.payload[1:], capacity=icmp.capacity,
        carrier_cost=icmp.carrier_cost, manipulation=icmp.manipulation, recovery=icmp.recovery,
    )
    for _ in range(2):
        with pytest.raises(hd.SelfTestFailed):
            hd.HandlerRegistry().register(bad)
    assert id(bad) not in hd._PASSED


def test_build_registry_hashes_no_enum(monkeypatch):
    """A registry keys its self-test verdicts by spec identity and ranks
    recovery classes by position, so building one, its self-tests
    included, hashes no ``Enum`` (whose ``__hash__`` runs in Python)."""
    _count_self_tests(monkeypatch)
    hashes = []

    def hook(frame, event, arg):
        if event == "call" and frame.f_code is enum.Enum.__hash__.__code__:
            hashes.append(frame.f_locals["self"])

    sys.setprofile(hook)
    try:
        cold = hd.build_registry(enabled=hd.STOCK_IDS)
        warm = hd.build_registry(enabled=hd.STOCK_IDS)
    finally:
        sys.setprofile(None)
    assert hashes == []
    assert cold.ids == warm.ids == list(hd.STOCK_IDS)
    ranks = {hd.RecoveryClass.NO_RECOVERY: 0, hd.RecoveryClass.SELF_RECOVERABLE: 1,
             hd.RecoveryClass.AUGMENTED_CORRECTION: 2}
    assert warm._rank == {hid: ranks[warm.get(hid).recovery] for hid in warm.ids}
