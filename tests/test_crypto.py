import random

import pytest
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

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


def test_rsa_round_trip_and_determinism():
    message = b"\x00\x01secret-seed-material"
    ct = cr.rsa_encrypt(PAIR_A.public, message)
    assert len(ct) == cr.RSA_BYTES
    assert cr.rsa_decrypt(PAIR_A, ct) == message
    assert cr.rsa_encrypt(PAIR_A.public, message) == ct
    assert cr.rsa_encrypt(PAIR_A.public, b"other") != ct


def test_rsa_rejects_tampering():
    ct = bytearray(cr.rsa_encrypt(PAIR_B.public, b"hello"))
    ct[40] ^= 0x80
    with pytest.raises(cr.BadCiphertext):
        cr.rsa_decrypt(PAIR_B, bytes(ct))
    with pytest.raises(cr.BadCiphertext):
        cr.rsa_decrypt(PAIR_B, b"\x01" * 10)


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


def test_crt_private_operation_matches_plain_power():
    rng = random.Random(23)
    for pair in (PAIR_A, PAIR_B):
        n = pair.public.n
        assert pair.p * pair.q == n
        for c in [0, 1, n - 1] + [rng.randrange(n) for _ in range(20)]:
            assert pair.private(c) == pow(c, pair.d, n)


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

    gen = cr.CryptoSession(local_mac=MAC_A, keypair=PAIR_A)
    rcv = cr.CryptoSession(local_mac=MAC_B, keypair=PAIR_B)
    gen.install_secret(secret, cr.ROLE_GENERATOR)
    rcv.install_secret(secret, cr.ROLE_RECEIVER)
    assert gen.established and rcv.established

    item = b"covert item payload" * 3
    assert rcv.decrypt_item(gen.encrypt_item(item)) == item
    assert gen.decrypt_item(rcv.encrypt_item(item)) == item
    # per-item chain reset: same item encrypts identically each time
    assert gen.encrypt_item(item) == gen.encrypt_item(item)


def test_session_requires_key():
    session = cr.CryptoSession(local_mac=MAC_A, keypair=PAIR_A)
    with pytest.raises(cr.NotEstablished):
        session.encrypt_item(b"x")
