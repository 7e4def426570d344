import concurrent.futures
import hashlib
import multiprocessing
import random
import threading
from unittest import mock

import pytest
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes
from hypothesis import example, given, settings
from hypothesis import strategies as st

import stegnet.crypto as cr

# Full-width keypairs are expensive; generate two per module run and share.
PAIR_A = cr.generate_keypair(101)
PAIR_B = cr.generate_keypair(202)

MAC_A = bytes.fromhex("020000000a0b")
MAC_B = bytes.fromhex("020000000102")


def test_mac_tail_value():
    assert cr.mac_tail(bytes.fromhex("0200deadbeef")) == 0xDEADBEEF
    with pytest.raises(ValueError):
        cr.mac_tail(b"\x02\x00\x00")


def test_generator_choice_antisymmetric():
    rng = random.Random(8)
    for _ in range(300):
        a = bytes((0x02, 0)) + rng.randbytes(4)
        b = bytes((0x02, 0)) + rng.randbytes(4)
        if a[2:] == b[2:]:
            continue
        assert cr.choose_generator(a, b) != cr.choose_generator(b, a)


def test_generator_tie_rejected():
    # distinct MACs whose low 32 bits collide
    a = bytes.fromhex("0200aabbccdd")
    b = bytes.fromhex("0299aabbccdd")
    with pytest.raises(cr.MacTie):
        cr.choose_generator(a, b)


def test_keypair_deterministic():
    small = cr.generate_keypair(7, bits=512)
    cr._keypair_cache.pop((7, 512))
    again = cr.generate_keypair(7, bits=512)
    assert small == again
    other = cr.generate_keypair(8, bits=512)
    assert other != small


KEY_DIGESTS = {
    (101, 2048): "f35077ca59311682141646b322dce735314f011084c354f04c9c92b94575e705",
    (202, 2048): "fe28f1d46ef8935c2dea0ebf82911f3310db42392554637e57558f23a2f1a494",
    (7, 512): "923f135d91d1969ecc65b1dcc45e723708a40bb9cff8cf2716ac189da18739b2",
    (8, 512): "77e59176f7c0879b5ae229ffcf3157fadadd6fa9f4da1cd2686467c72e5e8354",
    (11, 512): "20d2c08fbfdc03d1df5481b0fe5cb1e1ca8067303c030102bdcd417270719cde",
    (13, 512): "7748d231422d0f642f404528bbc70755be5999e02ac092c3582fd59fb36e15c7",
}


def test_keys_are_pinned():
    # sha256 over "n:d" in decimal: the prime search must keep every key bit-identical.
    def digest(pair):
        return hashlib.sha256(b"%d:%d" % (pair.public.n, pair.d)).hexdigest()

    assert digest(PAIR_A) == KEY_DIGESTS[(101, 2048)]
    assert digest(PAIR_B) == KEY_DIGESTS[(202, 2048)]
    for (seed, bits), expected in KEY_DIGESTS.items():
        assert digest(cr.generate_keypair(seed, bits=bits)) == expected, (seed, bits)


@pytest.mark.parametrize("bits", [8, 65, 254, 2047])
def test_keypair_refuses_bits_that_cannot_make_a_key(bits):
    # An odd size never gets a modulus of exactly that length, and tiny
    # primes repeat forever; both used to hang instead of failing.
    with pytest.raises(ValueError, match=r"\b%d\b" % bits):
        cr.generate_keypair(1, bits=bits)


def test_smallest_keypair_carries_a_secret():
    pair = cr.generate_keypair(3, bits=256)
    assert pair.public.n.bit_length() == 256
    secret = bytes(range(cr.SECRET_LEN))
    assert cr.rsa_decrypt(pair, cr.rsa_encrypt(pair.public, secret)) == secret


_SEED_SMALL_PRIMES = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89,
                      97, 101, 103, 107, 109, 113, 127, 131, 137, 139, 149, 151, 157, 163, 167, 173, 179, 181,
                      191, 193, 197, 199, 211, 223, 227, 229, 233, 239, 241, 251]


def _seed_is_probable_prime(n, rng, rounds=40):
    """The Miller-Rabin test before the gcd screen, kept as the reference."""
    if n < 2:
        return False
    for p in _SEED_SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for _ in range(rounds):
        a = rng.randrange(2, n - 2)
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = (x * x) % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _primes_up_to(limit):
    sieve = bytearray([1]) * (limit + 1)
    sieve[:2] = b"\0\0"
    for i in range(2, int(limit ** 0.5) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytes(len(range(i * i, limit + 1, i)))
    return [i for i in range(limit + 1) if sieve[i]]


SCREEN_PRIMES = [p for p in _primes_up_to(1 << 16) if p > 251]


def _is_probable_prime(n, rng):
    """``crypto._miller_rabin`` with each full-width round run here, in turn."""
    rounds = cr._miller_rabin(n, rng)
    try:
        job = next(rounds)
        while True:
            job = rounds.send(cr._strong_round(*job))
    except StopIteration as stop:
        return stop.value


def test_small_numbers_get_the_sieve_verdict():
    primes = set(_primes_up_to(600))
    for n in range(601):
        assert _is_probable_prime(n, random.Random(n)) == (n in primes), n
MERSENNE_PRIMES = [2**61 - 1, 2**89 - 1, 2**107 - 1, 2**127 - 1, 2**521 - 1]
# Carmichael numbers and strong pseudoprimes to the first few prime bases.
PSEUDOPRIMES = [561, 1105, 2047, 1373653, 25326001, 3215031751]

_screen_prime = st.sampled_from(SCREEN_PRIMES)
_large_prime = st.sampled_from(MERSENNE_PRIMES)
CANDIDATES = st.one_of(
    st.integers(12, 1024).flatmap(lambda b: st.integers(1 << (b - 1), (1 << b) - 1)).map(lambda n: n | 1),
    _screen_prime,
    _large_prime,
    st.tuples(_screen_prime, _screen_prime).map(lambda t: t[0] * t[1]),
    st.tuples(_screen_prime, _large_prime).map(lambda t: t[0] * t[1]),
    st.tuples(_large_prime, _large_prime).map(lambda t: t[0] * t[1]),
    st.sampled_from(PSEUDOPRIMES),
)


class _CountingRandom(random.Random):
    draws = 0

    def randrange(self, *args):
        self.draws += 1
        return super().randrange(*args)


@settings(max_examples=300, deadline=None)
@given(n=CANDIDATES, seed=st.integers(0, 2**64))
@example(n=561, seed=1)
@example(n=1105, seed=1)
@example(n=2047, seed=1)
@example(n=1373653, seed=1)
@example(n=25326001, seed=1)
@example(n=3215031751, seed=1)
@example(n=257 * (2**127 - 1), seed=1)
def test_prime_screen_keeps_verdict_and_draws(n, seed):
    expected_rng = random.Random(seed)
    expected = _seed_is_probable_prime(n, expected_rng)
    rng = _CountingRandom(seed)
    moduli = []
    strong_round = cr._strong_round

    def spy(a, d, r, m):
        moduli.append(m)
        return strong_round(a, d, r, m)

    with mock.patch.object(cr, "_strong_round", spy):
        got = _is_probable_prime(n, rng)
    assert got == expected
    assert rng.getstate() == expected_rng.getstate()
    # At most one full-width round per drawn base; any other modulus is
    # a proper divisor of n found by the screen.
    assert moduli.count(n) <= rng.draws
    assert all(m == n or (1 < m < n and n % m == 0) for m in moduli)


def _seed_gen_prime(bits, rng):
    """``crypto._gen_prime`` as it was before its full-width rounds went
    to worker processes, over the reference test: the sequential search."""
    while True:
        candidate = rng.getrandbits(bits) | (1 << (bits - 1)) | (1 << (bits - 2)) | 1
        if _seed_is_probable_prime(candidate, rng):
            return candidate


def _fork_pool(workers):
    return concurrent.futures.ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))


@settings(max_examples=80, deadline=None)
@given(bits=st.integers(128, 512), seed=st.integers(0, 2**64), window=st.integers(1, 6))
def test_search_draws_the_sequential_prime(bits, seed, window):
    # However far the search guesses ahead, it ends on the same prime
    # with the rng where the sequential search leaves it.
    expected_rng = random.Random(seed)
    expected = _seed_gen_prime(bits, expected_rng)
    rng = random.Random(seed)
    with _fork_pool(2) as pool:
        assert cr._gen_prime(bits, rng, pool, window) == expected
    assert rng.getstate() == expected_rng.getstate()


class _RecordingRandom(random.Random):
    """Keeps the state after every base drawn."""

    def __init__(self, seed):
        super().__init__(seed)
        self.after_base = []

    def randrange(self, *args):
        value = super().randrange(*args)
        self.after_base.append((value, self.getstate()))
        return value


_real_strong_round = cr._strong_round
_forced = set()


def _forced_round(a, d, r, m):
    """``_strong_round``, except that the full-width rounds in ``_forced``
    fail.  Module level, so forked workers inherit it and ``_forced``."""
    return (m, a) not in _forced and _real_strong_round(a, d, r, m)


@pytest.mark.parametrize("round_no", [1, 2, 40])
def test_search_rewinds_past_a_forced_failure(round_no):
    # The sequential search would reject the prime after drawing the
    # base of the failing round and go on from there.
    bits, seed = 256, 17
    recording = _RecordingRandom(seed)
    prime = _seed_gen_prime(bits, recording)
    base, state = recording.after_base[-40:][round_no - 1]
    expected_rng = random.Random()
    expected_rng.setstate(state)
    expected = _seed_gen_prime(bits, expected_rng)
    assert expected != prime
    rng = random.Random(seed)
    _forced.add((prime, base))
    try:
        with mock.patch.object(cr, "_strong_round", _forced_round), _fork_pool(2) as pool:
            got = cr._gen_prime(bits, rng, pool, 4)
    finally:
        _forced.clear()
    assert got == expected
    assert rng.getstate() == expected_rng.getstate()


class _CountingPool(concurrent.futures.ProcessPoolExecutor):
    workers = []

    def __init__(self, max_workers, **kwargs):
        self.workers.append(max_workers)
        super().__init__(max_workers, **kwargs)


@pytest.mark.parametrize("cpus", [{0, 1}, {0, 1, 2}])
def test_worker_count_never_changes_a_key(cpus):
    def digest(pair):
        return hashlib.sha256(b"%d:%d" % (pair.public.n, pair.d)).hexdigest()

    _CountingPool.workers.clear()
    with mock.patch.dict(cr._keypair_cache, clear=True), \
            mock.patch.object(cr.os, "sched_getaffinity", return_value=cpus), \
            mock.patch.object(concurrent.futures, "ProcessPoolExecutor", _CountingPool):
        for seed in (7, 8):
            assert digest(cr.generate_keypair(seed, bits=512)) == KEY_DIGESTS[(seed, 512)]
    assert _CountingPool.workers == [len(cpus)] * 2


def test_one_cpu_searches_in_process():
    # With one CPU a worker would only share the core with the caller:
    # the search runs here, starts no process and draws the same keys.
    def digest(pair):
        return hashlib.sha256(b"%d:%d" % (pair.public.n, pair.d)).hexdigest()

    _CountingPool.workers.clear()
    with mock.patch.dict(cr._keypair_cache, clear=True), \
            mock.patch.object(cr.os, "sched_getaffinity", return_value={0}), \
            mock.patch.object(concurrent.futures, "ProcessPoolExecutor", _CountingPool):
        for seed in (7, 8):
            assert digest(cr.generate_keypair(seed, bits=512)) == KEY_DIGESTS[(seed, 512)]
        assert multiprocessing.active_children() == []
    assert _CountingPool.workers == []


def _broken_round(a, d, r, m):
    raise ArithmeticError("round of base %d" % a)


def test_no_worker_outlives_key_generation():
    with mock.patch.dict(cr._keypair_cache, clear=True):
        cr.generate_keypair(3, bits=256)
        assert multiprocessing.active_children() == []
        with mock.patch.object(cr, "_strong_round", _broken_round):
            with pytest.raises(ArithmeticError):
                cr.generate_keypair(4, bits=256)
        assert multiprocessing.active_children() == []
        assert (4, 256) not in cr._keypair_cache


def test_no_thread_or_process_outlives_a_one_cpu_key_search():
    # On one CPU the rounds run in one worker thread, which is joined
    # when the key is made and when the search raises.
    threads = set()

    def spy(a, d, r, m):
        threads.add(threading.current_thread())
        return _real_strong_round(a, d, r, m)

    before = set(threading.enumerate())
    _CountingPool.workers.clear()
    with mock.patch.dict(cr._keypair_cache, clear=True), \
            mock.patch.object(cr.os, "sched_getaffinity", return_value={0}), \
            mock.patch.object(concurrent.futures, "ProcessPoolExecutor", _CountingPool):
        with mock.patch.object(cr, "_strong_round", spy):
            cr.generate_keypair(3, bits=256)
        assert threads - {threading.current_thread()}, "no full-width round ran in the worker thread"
        assert set(threading.enumerate()) == before and multiprocessing.active_children() == []
        with mock.patch.object(cr, "_strong_round", _broken_round):
            with pytest.raises(ArithmeticError):
                cr.generate_keypair(4, bits=256)
        assert set(threading.enumerate()) == before and multiprocessing.active_children() == []
        assert (4, 256) not in cr._keypair_cache
    assert _CountingPool.workers == []


def test_rsa_round_trip_and_determinism():
    message = b"\x00\x01secret-seed-material"
    ct = cr.rsa_encrypt(PAIR_A.public, message)
    assert len(ct) == cr.RSA_BYTES
    assert cr.rsa_decrypt(PAIR_A, ct) == message
    assert cr.rsa_encrypt(PAIR_A.public, message) == ct
    assert cr.rsa_encrypt(PAIR_A.public, b"other") != ct


def _seed_pad_stream(tag: bytes, length: int) -> bytes:
    """``crypto._pad_stream`` as it was before it mapped each block with
    one ``bytes.translate``."""
    out = bytearray()
    counter = 0
    while len(out) < length:
        block = hashlib.sha256(tag + counter.to_bytes(4, "big")).digest()
        out += bytes((b % 255) + 1 for b in block)
        counter += 1
    return bytes(out[:length])


def test_pad_stream_matches_the_per_octet_reference():
    for length in range(0, 301):
        tag = hashlib.sha256(length.to_bytes(2, "big")).digest()
        assert cr._pad_stream(tag, length) == _seed_pad_stream(tag, length)
    # Every SHA-256 octet value, 255 among them, maps to a non-zero octet.
    assert sorted(set(cr._NONZERO)) == list(range(1, 256))


def test_stream_cipher_length_preserving():
    key = cr.derive_cipher_key(b"0123456789abcdef")
    iv = cr.derive_iv(key, cr.ROLE_GENERATOR)
    rng = random.Random(5)
    for size in list(range(0, 70)) + [255, 1024, 1500]:
        data = rng.randbytes(size)
        ct = cr.encrypt_stream(key, iv, data)
        assert len(ct) == size
        assert cr.decrypt_stream(key, iv, ct) == data
        if size >= 1:
            assert ct != data  # vanishing chance of identity


def test_stream_cipher_deterministic_and_direction_split():
    key = cr.derive_cipher_key(b"fedcba9876543210")
    tx = cr.derive_iv(key, cr.ROLE_GENERATOR)
    rx = cr.derive_iv(key, cr.ROLE_RECEIVER)
    assert tx != rx
    data = bytes(range(48))
    assert cr.encrypt_stream(key, tx, data) == cr.encrypt_stream(key, tx, data)
    assert cr.encrypt_stream(key, tx, data) != cr.encrypt_stream(key, rx, data)


def test_stream_cipher_tail_rides_block_chain():
    # tampering with a full block changes how the tail decrypts
    key = cr.derive_cipher_key(b"0000000000000000")
    iv = cr.derive_iv(key, cr.ROLE_GENERATOR)
    data = bytes(range(16)) + b"tail"
    ct = bytearray(cr.encrypt_stream(key, iv, data))
    ct[3] ^= 1
    garbled = cr.decrypt_stream(key, iv, bytes(ct))
    assert garbled[16:] != b"tail"


STREAM_LENGTHS = (0, 1, 15, 16, 17, 31, 32, 33, 1500, 4001)


def _reference_stream(key, iv, data, decrypt):
    """The stream transform one block at a time over raw AES."""
    aes = Cipher(algorithms.AES(key), modes.ECB())
    enc, dec = aes.encryptor(), aes.decryptor()
    xor = lambda a, b: bytes(x ^ y for x, y in zip(a, b))
    full = len(data) - len(data) % cr.BLOCK
    out, chain = b"", iv
    for i in range(0, full, cr.BLOCK):
        block = data[i : i + cr.BLOCK]
        if decrypt:
            out += xor(dec.update(block), chain)
            chain = block
        else:
            chain = enc.update(xor(block, chain))
            out += chain
    return out + xor(data[full:], enc.update(chain))


def test_stream_cipher_matches_per_block_reference():
    key = cr.derive_cipher_key(b"0123456789abcdef")
    iv = cr.derive_iv(key, cr.ROLE_RECEIVER)
    rng = random.Random(21)
    for size in STREAM_LENGTHS:
        data = rng.randbytes(size)
        assert cr.encrypt_stream(key, iv, data) == _reference_stream(key, iv, data, decrypt=False)
        assert cr.decrypt_stream(key, iv, data) == _reference_stream(key, iv, data, decrypt=True)


def test_stream_cipher_independent_of_segmentation():
    # Cutting the stream at any block boundary and continuing the second
    # part from the last ciphertext block of the first gives the same octets.
    key = cr.derive_cipher_key(b"segmentation-key")
    iv = cr.derive_iv(key, cr.ROLE_GENERATOR)
    rng = random.Random(22)
    for size in STREAM_LENGTHS:
        data = rng.randbytes(size)
        whole = cr.encrypt_stream(key, iv, data)
        for cut in range(cr.BLOCK, size + 1, cr.BLOCK * 7):
            head = cr.encrypt_stream(key, iv, data[:cut])
            chain = head[-cr.BLOCK:]
            assert head + cr.encrypt_stream(key, chain, data[cut:]) == whole
            assert cr.decrypt_stream(key, iv, whole[:cut]) + cr.decrypt_stream(key, chain, whole[cut:]) == data


def test_session_items_match_the_one_shot_stream_and_the_reference():
    # One expansion per session serves every item: encrypt and decrypt
    # items interleave under both roles' IVs, with pad-only items between
    # the full-block ones, and each gives the octets of a fresh expansion
    # and of the per-block reference.
    secret = bytes(range(cr.SECRET_LEN))
    gen, rcv = cr.CryptoSession(keypair=PAIR_A), cr.CryptoSession(keypair=PAIR_B)
    gen.install_secret(secret, cr.ROLE_GENERATOR)
    rcv.install_secret(secret, cr.ROLE_RECEIVER)
    key = gen.key
    rng = random.Random(33)
    for size in STREAM_LENGTHS:
        for data in (rng.randbytes(size), rng.randbytes(rng.randint(1, cr.BLOCK - 1))):
            for session in (gen, rcv):
                tx, rx = session.tx_iv, session.rx_iv
                assert session.encrypt_item(data) == cr.encrypt_stream(key, tx, data) \
                    == _reference_stream(key, tx, data, decrypt=False)
                assert session.decrypt_item(data) == cr.decrypt_stream(key, rx, data) \
                    == _reference_stream(key, rx, data, decrypt=True)
            assert rcv.decrypt_item(gen.encrypt_item(data)) == data
            assert gen.decrypt_item(rcv.encrypt_item(data)) == data


def test_items_build_no_cipher_context_after_the_secret(monkeypatch):
    # install_secret expands the key into two contexts; items build none.
    # A second session with the same secret expands it again: no cache
    # outlives a session.
    built = []

    def counting(*args, **kwargs):
        built.append(args)
        return Cipher(*args, **kwargs)

    monkeypatch.setattr(cr, "Cipher", counting)
    rng = random.Random(34)
    for _ in range(2):
        session = cr.CryptoSession(keypair=PAIR_A)
        session.install_secret(bytes(range(cr.SECRET_LEN)), cr.ROLE_GENERATOR)
        assert len(built) == 2
        built.clear()
        for size in STREAM_LENGTHS:
            data = rng.randbytes(size)
            session.encrypt_item(data)
            session.decrypt_item(data)
        assert built == []


def _seed_rsa_decrypt(pair, ciphertext):
    """The decoder over the plain private power, before OpenSSL, kept as the reference."""
    key_bytes = (pair.public.n.bit_length() + 7) // 8
    if len(ciphertext) != key_bytes:
        raise cr.BadCiphertext("ciphertext must be %d octets" % key_bytes)
    c = int.from_bytes(ciphertext, "big")
    if c >= pair.public.n:
        raise cr.BadCiphertext("ciphertext out of range")
    block = pow(c, pair.d, pair.public.n).to_bytes(key_bytes, "big")
    if block[0] != 0x00 or block[1] != 0x02:
        raise cr.BadCiphertext("bad padding frame")
    try:
        sep = block.index(b"\x00", 2)
    except ValueError:
        raise cr.BadCiphertext("padding separator missing") from None
    return block[sep + 1 :]


MAX_MESSAGE = cr.RSA_BYTES - 11  # 00 02, eight octets of padding, 00


@settings(max_examples=30, deadline=None)
@given(size=st.integers(0, MAX_MESSAGE), seed=st.integers(0, 2**32))
@example(size=0, seed=1)
@example(size=1, seed=1)
@example(size=cr.SECRET_LEN, seed=1)
@example(size=MAX_MESSAGE, seed=1)
def test_rsa_decrypt_matches_the_plain_power_decoder(size, seed):
    message = random.Random(seed).randbytes(size)
    for pair in (PAIR_A, PAIR_B):
        ct = cr.rsa_encrypt(pair.public, message)
        assert cr.rsa_decrypt(pair, ct) == _seed_rsa_decrypt(pair, ct) == message


def test_rsa_rejects_tampering():
    # Tampered, random, out-of-range and wrong-length ciphertexts, one
    # under the other key, and a frame with two octets of padding, which
    # the plain-power decoder accepts.  OpenSSL answers a bad frame with
    # a made-up message, not an error; each must still end in BadCiphertext.
    rng = random.Random(24)
    for pair, other in ((PAIR_A, PAIR_B), (PAIR_B, PAIR_A)):
        n = pair.public.n
        message = b"s" * (cr.RSA_BYTES - 5)
        frame = int.from_bytes(b"\x00\x02\x01\x01\x00" + message, "big")
        short_ps = pow(frame, pair.public.e, n).to_bytes(cr.RSA_BYTES, "big")
        assert _seed_rsa_decrypt(pair, short_ps) == message
        refused = [short_ps]
        ct = cr.rsa_encrypt(pair.public, bytes(range(cr.SECRET_LEN)))
        for i in range(0, cr.RSA_BYTES, 17):
            tampered = bytearray(ct)
            tampered[i] ^= 1 << rng.randrange(8)
            refused.append(bytes(tampered))
        refused += [rng.randrange(n).to_bytes(cr.RSA_BYTES, "big") for _ in range(50)]
        refused += [c.to_bytes(cr.RSA_BYTES, "big") for c in (n, n + 1, (1 << cr.RSA_BITS) - 1)]
        refused += [ct[:-1], ct + b"\x00", b"", b"\x01" * 10]
        refused.append(cr.rsa_encrypt(other.public, bytes(range(cr.SECRET_LEN))))
        for blob in refused:
            with pytest.raises(cr.BadCiphertext):
                cr.rsa_decrypt(pair, blob)


def test_openssl_key_is_built_once_per_pair():
    cr._private_key.cache_clear()
    secret = bytes(range(cr.SECRET_LEN))
    with mock.patch.object(cr.rsa, "RSAPrivateNumbers", wraps=cr.rsa.RSAPrivateNumbers) as numbers:
        for _ in range(3):
            for pair in (PAIR_A, PAIR_B):
                assert cr.rsa_decrypt(pair, cr.rsa_encrypt(pair.public, secret)) == secret
    assert numbers.call_count == 2


def test_ke_message_codec():
    blob = cr.encode_ke_message(cr.KE_PUBKEY, MAC_A, b"payload-bytes")
    assert blob[0] == cr.KE_PUBKEY
    assert len(blob) == cr.KE_PREFIX + 13
    msg_type, mac, payload = cr.decode_ke_message(blob)
    assert (msg_type, mac, payload) == (cr.KE_PUBKEY, MAC_A, b"payload-bytes")
    with pytest.raises(cr.CryptoError):
        cr.decode_ke_message(blob[:8])
    with pytest.raises(cr.CryptoError):
        cr.decode_ke_message(blob[:-1])
    with pytest.raises(cr.CryptoError):
        cr.decode_ke_message(blob + b"\x00")


def test_public_key_codec():
    blob = PAIR_A.public.to_bytes()
    assert cr.RsaPublicKey.from_bytes(blob) == PAIR_A.public


def test_negotiate_roles_and_session():
    # The larger MAC tail generates the secret and sends it under the
    # peer's public key, as the gateway's key exchange does.
    assert cr.mac_tail(MAC_A) > cr.mac_tail(MAC_B)
    assert cr.choose_generator(MAC_A, MAC_B) and not cr.choose_generator(MAC_B, MAC_A)
    sent = random.Random(12).randbytes(cr.SECRET_LEN)
    blob = cr.encode_ke_message(cr.KE_SYMKEY, MAC_A, cr.rsa_encrypt(PAIR_B.public, sent))

    msg_type, mac, ciphertext = cr.decode_ke_message(blob)
    assert msg_type == cr.KE_SYMKEY and mac == MAC_A
    secret = cr.rsa_decrypt(PAIR_B, ciphertext)
    assert secret == sent and len(secret) == cr.SECRET_LEN

    gen = cr.CryptoSession(keypair=PAIR_A)
    rcv = cr.CryptoSession(keypair=PAIR_B)
    gen.install_secret(secret, cr.ROLE_GENERATOR)
    rcv.install_secret(secret, cr.ROLE_RECEIVER)
    assert gen.established and rcv.established

    item = b"covert item payload" * 3
    assert rcv.decrypt_item(gen.encrypt_item(item)) == item
    assert gen.decrypt_item(rcv.encrypt_item(item)) == item
    # per-item chain reset: same item encrypts identically each time
    assert gen.encrypt_item(item) == gen.encrypt_item(item)


def test_session_requires_key():
    session = cr.CryptoSession(keypair=PAIR_A)
    with pytest.raises(cr.NotEstablished):
        session.encrypt_item(b"x")
