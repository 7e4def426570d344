"""Session crypto for the covert stream.

Design constraints drive some unusual choices here:

* Everything must be reproducible from a seed, because simulation
  reports are compared bit for bit across runs.  Library RSA key
  generation is not seedable, so key pairs are produced by a seeded
  Miller-Rabin search and the asymmetric padding is derived
  deterministically from the message and recipient key.  This trades
  away semantic security, which is acceptable for a research artifact
  whose adversary model is a rule-based traffic monitor.
* Decryption runs the private operation and unpadding through OpenSSL.
  Its PKCS#1 v1.5 decoder answers a bad frame with a made-up message
  instead of an error (implicit rejection, the defence against
  Bleichenbacher's padding oracle), so a result is trusted only when it
  re-encrypts to the very ciphertext received.  Because the padding is
  derived, every message has one canonical ciphertext, and that check
  also refuses frames this module would never build and a wrong key.
* Keys are pinned by their seed, so the prime search may get faster
  but must never change what it draws.  A candidate that survives
  trial division by the primes up to 251 takes one gcd with the
  product of the primes in (251, 2^16].  Each Miller-Rabin round
  still draws its base as before; when the gcd is a proper divisor m
  of n, the base is first tried modulo m.  A strong liar for n is a
  strong liar for every divisor of n, so a base that fails modulo m
  fails modulo n in the same round: the search returns the same
  verdict after the same draws, only without the 1024-bit power.
* The full-width powers run in forked worker processes, one per CPU
  the process may run on, or in one worker thread when it may run on
  one CPU only, so that nothing is forked or pickled there.  Every draw
  and every cheap screen stays in the calling thread, in the sequential
  order.  It draws ahead on the guess that each candidate fails its
  first full-width round, as a random composite almost always does,
  and keeps the rng state after each base.  The first round that
  passes voids the guesses behind it: the rng goes back to that state,
  the candidate's other bases are drawn and their rounds run together,
  and a failure among them rewinds the rng to just after its base.
  The search so ends on the same prime, with the rng where the
  sequential search leaves it, and the worker count never changes a
  key.  It needs the ``fork`` start method (Linux).
* Symmetric encryption is AES-256 in CBC mode, keyed by the SHA-256 of
  a 16-octet negotiated secret.  Ciphertext must be exactly as long as
  plaintext so capacity accounting is identical with and without
  encryption: full blocks are chained normally, in one CBC call, and a
  trailing partial block is XORed with the encryption of the chain.
* The key is expanded once per session, into one CBC encryptor and one
  CBC decryptor that live as long as the session.  Each context keeps
  chaining on the last ciphertext block X it saw, so an item rewinds
  the chain to its IV through X: the first block goes in as
  P1 ^ IV ^ X, since CBC makes C1 = E(P1 ^ IV) (NIST SP 800-38A, 6.2),
  and the decryptor's first block comes out XORed with X ^ IV.
* The chain runs across all segments of one stream item and resets at
  the next item, so a desynchronized item never poisons the session.

Synchronization headers never pass through any of this; they are
always plaintext on the wire.
"""

from __future__ import annotations

import functools
import hashlib
import math
import os
import random
import struct
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Deque, Generator, Optional, Tuple, Union

from cryptography.hazmat.primitives.asymmetric import padding, rsa
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

if TYPE_CHECKING:
    from concurrent.futures import Executor, Future

BLOCK = 16
RSA_BITS = 2048
RSA_BYTES = RSA_BITS // 8
SECRET_LEN = 16
# The shortest modulus rsa_encrypt pads a secret to: 00 02, eight
# octets of padding, 00, then the secret.
MIN_MODULUS_BYTES = SECRET_LEN + 11

KE_PUBKEY = 0x01
KE_SYMKEY = 0x02
KE_CIPHER_ON = 0x03

ROLE_GENERATOR = "generator"
ROLE_RECEIVER = "receiver"

_ROLE_OCTET = {ROLE_GENERATOR: 0x01, ROLE_RECEIVER: 0x02}

_SMALL_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97,
                 101, 103, 107, 109, 113, 127, 131, 137, 139, 149, 151, 157, 163, 167, 173, 179, 181, 191,
                 193, 197, 199, 211, 223, 227, 229, 233, 239, 241, 251]


class CryptoError(Exception):
    pass


class MacTie(CryptoError):
    """Both MAC addresses share the same low 32 bits; roles undecidable."""


class NotEstablished(CryptoError):
    pass


class BadCiphertext(CryptoError):
    pass


# ---------------------------------------------------------------------------
# Deterministic RSA


@dataclass(frozen=True)
class RsaPublicKey:
    n: int
    e: int

    def to_bytes(self) -> bytes:
        e_bytes = self.e.to_bytes((self.e.bit_length() + 7) // 8 or 1, "big")
        n_bytes = self.n.to_bytes((self.n.bit_length() + 7) // 8 or 1, "big")
        return struct.pack("!H", len(e_bytes)) + e_bytes + struct.pack("!H", len(n_bytes)) + n_bytes

    @classmethod
    def from_bytes(cls, blob: bytes) -> "RsaPublicKey":
        if len(blob) < 2:
            raise CryptoError("public key blob truncated")
        (e_len,) = struct.unpack_from("!H", blob, 0)
        offset = 2 + e_len
        if len(blob) < offset + 2:
            raise CryptoError("public key blob truncated")
        e = int.from_bytes(blob[2:offset], "big")
        (n_len,) = struct.unpack_from("!H", blob, offset)
        body = blob[offset + 2 : offset + 2 + n_len]
        if len(body) != n_len:
            raise CryptoError("public key blob truncated")
        return cls(n=int.from_bytes(body, "big"), e=e)


@dataclass(frozen=True)
class RsaKeyPair:
    """Private key with its CRT parts d mod (p-1), d mod (q-1), q^-1 mod p."""

    public: RsaPublicKey
    d: int
    p: int
    q: int
    dp: int
    dq: int
    qinv: int


@functools.cache
def _screen() -> int:
    """Product of the primes in (251, 2^16], built on first use."""
    limit = 1 << 16
    sieve = bytearray([1]) * (limit + 1)
    for i in range(2, math.isqrt(limit) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytes(len(range(i * i, limit + 1, i)))
    return math.prod(i for i in range(_SMALL_PRIMES[-1] + 1, limit + 1) if sieve[i])


def _strong_round(a: int, d: int, r: int, m: int) -> bool:
    """One Miller-Rabin round of base ``a`` modulo ``m``, where the
    candidate n (``m`` or a multiple of it) has n - 1 = 2^r * d."""
    x = pow(a, d, m)
    if x == 1 or x == m - 1:
        return True
    for _ in range(r - 1):
        x = x * x % m
        if x == m - 1:
            return True
    return False


def _miller_rabin(n: int, rng: random.Random) -> Generator[Tuple[int, int, int, int], bool, bool]:
    """Miller-Rabin test of ``n`` that leaves its full-width rounds to the caller.

    Yields ``(a, d, r, n)`` for each of its 40 rounds that the cheap
    screens leave to a power modulo n, is sent back whether n passed
    it, and returns the verdict.  Sent the true answers, it draws from
    ``rng`` and decides as a sequential test does.
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    m = math.gcd(n, _screen())
    for _ in range(40):
        a = rng.randrange(2, n - 2)
        if 1 < m < n and not _strong_round(a, d, r, m):
            return False
        if not (yield a, d, r, n):
            return False
    return True


def _confirm(rounds: Generator, rng: random.Random, pool: Executor) -> bool:
    """Finish a candidate that passed its first full-width round.

    Draws its other bases as if every round passed, runs their rounds
    in ``pool`` together, and on the first that fails leaves ``rng``
    just after that round's base, where a sequential test stops.
    """
    jobs, states = [], []
    try:
        while True:
            jobs.append(rounds.send(True))
            states.append(rng.getstate())
    except StopIteration as stop:
        verdict = stop.value
    futures = [pool.submit(_strong_round, *job) for job in jobs]
    for i, future in enumerate(futures):
        if not future.result():
            for later in futures[i + 1:]:
                later.cancel()
            rng.setstate(states[i])
            return False
    return verdict


def _gen_prime(bits: int, rng: random.Random, pool: Executor, window: int) -> int:
    """The prime of ``bits`` bits (at least 9) that a sequential search
    draws from ``rng``, leaving ``rng`` where that search does.

    Up to ``window`` candidates wait in ``pool`` on their first
    full-width round, each with the rng state after its base, on the
    guess that it fails.  The first that passes voids the guesses
    behind it and rewinds ``rng`` to its state before ``_confirm``.
    """
    guesses: Deque[Tuple[Future, int, Generator, tuple]] = deque()
    while True:
        while len(guesses) < window:
            n = rng.getrandbits(bits) | (1 << (bits - 1)) | (1 << (bits - 2)) | 1
            rounds = _miller_rabin(n, rng)
            try:
                job = next(rounds)
            except StopIteration:
                continue  # n exceeds 251, so the cheap screens can only reject it
            guesses.append((pool.submit(_strong_round, *job), n, rounds, rng.getstate()))
        future, n, rounds, state = guesses.popleft()
        if not future.result():
            continue
        for later in guesses:
            later[0].cancel()
        guesses.clear()
        rng.setstate(state)
        if _confirm(rounds, rng, pool):
            return n


_keypair_cache: dict = {}


def generate_keypair(seed: int, bits: int = RSA_BITS) -> RsaKeyPair:
    """Deterministic RSA key pair for ``seed``; memoized, 2048-bit modulus.

    ``bits`` must be even, so that two ``bits // 2``-bit primes can
    multiply to exactly ``bits`` bits, and at least 256, so that the two
    primes differ and ``rsa_encrypt`` can pad a secret (216 bits needed).
    A key not yet made opens a pool for the prime search: forked
    workers, one per CPU this process may run on, or on one CPU a single
    thread that takes one candidate at a time.  The pool is shut down,
    its workers joined, when the key is made or the search raises.
    """
    if bits % 2 or bits < 256:
        raise ValueError("RSA modulus bits must be even and at least 256, got %r" % (bits,))
    cached = _keypair_cache.get((seed, bits))
    if cached is not None:
        return cached
    import concurrent.futures
    import multiprocessing

    rng = random.Random(seed)
    e = 65537
    workers = len(os.sched_getaffinity(0))
    if workers == 1:
        pool, window = concurrent.futures.ThreadPoolExecutor(1), 1
    else:
        pool = concurrent.futures.ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))
        window = 2 * workers
    with pool:
        while True:
            p = _gen_prime(bits // 2, rng, pool, window)
            q = _gen_prime(bits // 2, rng, pool, window)
            if p == q:
                continue
            phi = (p - 1) * (q - 1)
            n = p * q
            if n.bit_length() != bits:
                continue
            try:
                d = pow(e, -1, phi)
            except ValueError:
                continue
            pair = RsaKeyPair(public=RsaPublicKey(n=n, e=e), d=d, p=p, q=q,
                              dp=d % (p - 1), dq=d % (q - 1), qinv=pow(q, -1, p))
            _keypair_cache[(seed, bits)] = pair
            return pair


# Maps each octet b to b % 255 + 1, so no padding octet is zero.
_NONZERO = bytes(b % 255 + 1 for b in range(256))


def _pad_stream(tag: bytes, length: int) -> bytes:
    """Deterministic non-zero padding bytes derived from ``tag``."""
    out = bytearray()
    counter = 0
    while len(out) < length:
        out += hashlib.sha256(tag + counter.to_bytes(4, "big")).digest().translate(_NONZERO)
        counter += 1
    return bytes(out[:length])


def rsa_encrypt(pub: RsaPublicKey, message: bytes) -> bytes:
    """Encrypt a short message to a fixed 256-octet block.

    Padding layout follows the familiar 00 02 PS 00 M shape but the
    padding string is derived from hash(key, message) so the same
    inputs always yield the same ciphertext.
    """
    key_bytes = (pub.n.bit_length() + 7) // 8
    ps_len = key_bytes - 3 - len(message)
    if ps_len < 8:
        raise CryptoError("message too long for modulus")
    tag = hashlib.sha256(pub.to_bytes() + message).digest()
    block = b"\x00\x02" + _pad_stream(tag, ps_len) + b"\x00" + message
    c = pow(int.from_bytes(block, "big"), pub.e, pub.n)
    return c.to_bytes(key_bytes, "big")


@functools.cache
def _private_key(pair: RsaKeyPair) -> rsa.RSAPrivateKey:
    """OpenSSL's copy of ``pair``, built once and kept as
    ``generate_keypair`` keeps the pair.  The pair is sound by
    construction, so the library's key check (about 65 ms) is skipped."""
    public = rsa.RSAPublicNumbers(pair.public.e, pair.public.n)
    numbers = rsa.RSAPrivateNumbers(pair.p, pair.q, pair.d, pair.dp, pair.dq, pair.qinv, public)
    return numbers.private_key(unsafe_skip_rsa_key_validation=True)


def rsa_decrypt(pair: RsaKeyPair, ciphertext: bytes) -> bytes:
    key_bytes = (pair.public.n.bit_length() + 7) // 8
    if len(ciphertext) != key_bytes:
        raise BadCiphertext("ciphertext must be %d octets" % key_bytes)
    if int.from_bytes(ciphertext, "big") >= pair.public.n:
        raise BadCiphertext("ciphertext out of range")
    try:
        message = _private_key(pair).decrypt(ciphertext, padding.PKCS1v15())
    except ValueError:
        raise BadCiphertext("bad padding frame") from None
    # A bad frame still yields a message (implicit rejection); only the
    # message whose canonical ciphertext this is was really sent.
    if rsa_encrypt(pair.public, message) != ciphertext:
        raise BadCiphertext("bad padding frame")
    return message


# ---------------------------------------------------------------------------
# Role selection and key derivation


def mac_tail(mac: bytes) -> int:
    """Numeric value of the right-most 32 bits of a MAC address."""
    if len(mac) != 6:
        raise ValueError("MAC address must be 6 octets")
    return int.from_bytes(mac[2:], "big")


def choose_generator(local_mac: bytes, remote_mac: bytes) -> bool:
    """True when the local side generates the symmetric key."""
    local, remote = mac_tail(local_mac), mac_tail(remote_mac)
    if local == remote:
        raise MacTie("MAC tails are equal; key generator role is undecidable")
    return local > remote


def derive_cipher_key(secret: bytes) -> bytes:
    if len(secret) != SECRET_LEN:
        raise CryptoError("symmetric secret must be %d octets" % SECRET_LEN)
    return hashlib.sha256(secret).digest()


def derive_iv(key: bytes, role: str) -> bytes:
    return hashlib.sha256(key + bytes([_ROLE_OCTET[role]])).digest()[:BLOCK]


# ---------------------------------------------------------------------------
# Length-preserving CBC stream


def _xor(a: bytes, b: bytes) -> bytes:
    """``a`` XOR the first ``len(a)`` octets of ``b``."""
    n = len(a)
    return (int.from_bytes(a, "big") ^ int.from_bytes(b[:n], "big")).to_bytes(n, "big")


class StreamKey:
    """A stream key expanded once: a CBC encryptor and a CBC decryptor
    over one ``algorithms.AES``, each with the last ciphertext block it
    chained on, from which every item rewinds to its own IV."""

    __slots__ = ("_enc", "_dec", "_enc_x", "_dec_x")

    def __init__(self, key: bytes):
        aes = algorithms.AES(key)
        self._enc_x = self._dec_x = bytes(BLOCK)
        self._enc = Cipher(aes, modes.CBC(self._enc_x)).encryptor()
        self._dec = Cipher(aes, modes.CBC(self._dec_x)).decryptor()

    def _tail(self, chain: bytes, tail: bytes) -> bytes:
        """The partial last block XORed with E(``chain``), the last full
        ciphertext block or the IV; its own inverse.  E(chain) is one
        more block through the encryptor, fed chain ^ X."""
        if not tail:
            return b""
        self._enc_x = self._enc.update(_xor(chain, self._enc_x))
        return _xor(tail, self._enc_x)

    def encrypt(self, iv: bytes, data: bytes) -> bytes:
        full = len(data) - len(data) % BLOCK
        if not full:
            return self._tail(iv, data)
        body = self._enc.update(_xor(data[:BLOCK], _xor(iv, self._enc_x)) + data[BLOCK:full])
        self._enc_x = body[-BLOCK:]
        return body + self._tail(self._enc_x, data[full:])

    def decrypt(self, iv: bytes, data: bytes) -> bytes:
        full = len(data) - len(data) % BLOCK
        if not full:
            return self._tail(iv, data)
        body = self._dec.update(data[:full])
        head = _xor(body[:BLOCK], _xor(iv, self._dec_x))
        self._dec_x = data[full - BLOCK : full]
        return head + body[BLOCK:] + self._tail(self._dec_x, data[full:])


def encrypt_stream(key: Union[bytes, StreamKey], iv: bytes, data: bytes) -> bytes:
    """CBC over full blocks; the trailing partial block is XORed with
    the encryption of the chain value.  Output length equals input
    length, and the transform is independent of how the stream was cut
    into carrier segments.  ``key`` is the raw key, expanded for this
    call, or a ``StreamKey`` that keeps its expansion."""
    return (key if isinstance(key, StreamKey) else StreamKey(key)).encrypt(iv, data)


def decrypt_stream(key: Union[bytes, StreamKey], iv: bytes, data: bytes) -> bytes:
    return (key if isinstance(key, StreamKey) else StreamKey(key)).decrypt(iv, data)


# ---------------------------------------------------------------------------
# Key-exchange messages


# Key-exchange message prefix: type, MAC, payload length.
_KE = struct.Struct("!B6sH")
KE_PREFIX = _KE.size
# The longest message built here, a public key: exponent 65537 in 3
# octets and the modulus, each after a 2-octet length.
KE_LONGEST = KE_PREFIX + 2 + 3 + 2 + RSA_BYTES


def encode_ke_message(msg_type: int, mac: bytes, payload: bytes) -> bytes:
    """[type:1][MAC:6][length:2][payload]."""
    if len(mac) != 6:
        raise ValueError("MAC address must be 6 octets")
    if len(payload) > 0xFFFF:
        raise ValueError("key exchange payload too long")
    return _KE.pack(msg_type, mac, len(payload)) + payload


def decode_ke_message(blob: bytes) -> Tuple[int, bytes, bytes]:
    """Type, MAC and payload of ``blob``, which must end where its
    prefix says the message ends."""
    if len(blob) < KE_PREFIX:
        raise CryptoError("key exchange message truncated")
    msg_type, mac, length = _KE.unpack_from(blob)
    if len(blob) != KE_PREFIX + length:
        raise CryptoError("key exchange payload of %d octets announced as %d" % (len(blob) - KE_PREFIX, length))
    return msg_type, mac, blob[KE_PREFIX:]


@dataclass
class CryptoSession:
    """Negotiated state for one gateway pair.

    ``tx_iv`` seeds the chain for items this side emits, ``rx_iv`` for
    items it receives; the generator role octet feeds the generator's
    transmit IV so the two directions never share a chain.  The key is
    expanded once, when the secret is installed, and the expansion goes
    with the session.
    """

    keypair: RsaKeyPair
    role: Optional[str] = None
    peer_public: Optional[RsaPublicKey] = None
    secret: Optional[bytes] = None
    key: Optional[bytes] = None
    tx_iv: Optional[bytes] = None
    rx_iv: Optional[bytes] = None
    _stream: Optional[StreamKey] = field(default=None, init=False, repr=False, compare=False)

    def install_secret(self, secret: bytes, role: str) -> None:
        self.role = role
        self.secret = secret
        self.key = derive_cipher_key(secret)
        self._stream = StreamKey(self.key)
        peer_role = ROLE_RECEIVER if role == ROLE_GENERATOR else ROLE_GENERATOR
        self.tx_iv = derive_iv(self.key, role)
        self.rx_iv = derive_iv(self.key, peer_role)

    @property
    def established(self) -> bool:
        return self.key is not None

    def encrypt_item(self, plaintext: bytes) -> bytes:
        if not self.established:
            raise NotEstablished("no symmetric key installed")
        return encrypt_stream(self._stream, self.tx_iv, plaintext)

    def decrypt_item(self, ciphertext: bytes) -> bytes:
        if not self.established:
            raise NotEstablished("no symmetric key installed")
        return decrypt_stream(self._stream, self.rx_iv, ciphertext)

