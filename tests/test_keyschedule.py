from __future__ import annotations

import hashlib
import hmac as hmac_mod
import struct
import sys
import threading

import pytest
from cryptography.hazmat.primitives.ciphers.aead import AESGCM
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import build_store
from sealog.collector import LogWriter, RawEntry
from sealog.errors import InvalidParameter, KeyUnavailable
from sealog.keyschedule import (
    LABEL_BLOCK_FIRST,
    LABEL_BLOCK_NEXT,
    LABEL_CHANNEL,
    LABEL_IK,
    LABEL_MESSAGE,
    LABEL_STORAGE,
    SCHEME_SALT,
    ChainParams,
    RootLoggingKey,
    block_key_at,
    block_walk,
    derive_ik,
    hkdf,
    hkdf_expand,
    hkdf_extract,
    hmac_sha256,
    message_walk,
    walk_message_chain,
)

# RFC 5869 Appendix A test vectors (published OKM values; cross-checked
# against an independent implementation below before being trusted here).
RFC5869_VECTORS = [
    # (hash, ikm, salt, info, L, okm_hex)
    (
        "sha256",
        b"\x0b" * 22,
        bytes.fromhex("000102030405060708090a0b0c"),
        bytes.fromhex("f0f1f2f3f4f5f6f7f8f9"),
        42,
        "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf"
        "34007208d5b887185865",
    ),
    (
        "sha256",
        bytes(range(0x00, 0x50)),
        bytes(range(0x60, 0xB0)),
        bytes(range(0xB0, 0x100)),
        82,
        "b11e398dc80327a1c8e7f78c596a49344f012eda2d4efad8a050cc4c19afa97c"
        "59045a99cac7827271cb41c65e590e09da3275600c2f09b8367793a9aca3db71"
        "cc30c58179ec3e87c14c01d5c1f3434f1d87",
    ),
    (
        "sha256",
        b"\x0b" * 22,
        b"",
        b"",
        42,
        "8da4e775a563c18f715f802a063c5a31b8a11f5c5ee1879ec3454e5f3c738d2d"
        "9d201395faa4b61a96c8",
    ),
    (
        "sha1",
        b"\x0b" * 11,
        bytes.fromhex("000102030405060708090a0b0c"),
        bytes.fromhex("f0f1f2f3f4f5f6f7f8f9"),
        42,
        "085a01ea1b10f36933068b56efa5ad81a4f14b822f5b091568a9cdd4f155fda2"
        "c22e422478d305f3f896",
    ),
    (
        "sha1",
        bytes(range(0x00, 0x50)),
        bytes(range(0x60, 0xB0)),
        bytes(range(0xB0, 0x100)),
        82,
        "0bd770a74d1160f7c9f12cd5912a06ebff6adcae899d92191fe4305673ba2ffe"
        "8fa3f1a4e5ad79f3f334b3b202b2173c486ea37ce3d397ed034c7f9dfeb15c5e"
        "927336d0441f4c4300e2cff0d0900b52d3b4",
    ),
    (
        "sha1",
        b"\x0b" * 22,
        b"",
        b"",
        42,
        "0ac1af7002b3d761d1e55298da9d0506b9ae52057220a306e07b6b87e8df21d0"
        "ea00033de03984d34918",
    ),
    (
        "sha1",
        b"\x0c" * 22,
        b"",
        b"",
        42,
        "2c91117204d745f3500d636a62f64f0ab3bae548aa53d423b0d1f27ebba6f5e5"
        "673a081d70cce7acfc48",
    ),
]


def oracle_hkdf(ikm: bytes, salt: bytes, info: bytes, length: int, hash_name: str) -> bytes:
    """Independent scratch HKDF used as the oracle for the production path."""
    hash_len = hashlib.new(hash_name).digest_size
    if not salt:
        salt = b"\x00" * hash_len
    prk = hmac_mod.new(salt, ikm, hash_name).digest()
    okm, t, i = b"", b"", 0
    while len(okm) < length:
        i += 1
        t = hmac_mod.new(prk, t + info + bytes([i]), hash_name).digest()
        okm += t
    return okm[:length]


@pytest.mark.parametrize("hash_name,ikm,salt,info,length,okm_hex", RFC5869_VECTORS)
def test_rfc5869_vectors(hash_name, ikm, salt, info, length, okm_hex):
    expected = bytes.fromhex(okm_hex)
    assert oracle_hkdf(ikm, salt, info, length, hash_name) == expected
    assert hkdf(ikm, salt, info, length, hash_name) == expected


def test_hkdf_deterministic():
    a = hkdf(b"\x0b" * 22, SCHEME_SALT, b"info", 32)
    b = hkdf(b"\x0b" * 22, SCHEME_SALT, b"info", 32)
    assert a == b


def test_hkdf_info_bit_flip_changes_output():
    base = hkdf(b"k" * 32, SCHEME_SALT, b"\x00\x01", 32)
    flipped = hkdf(b"k" * 32, SCHEME_SALT, b"\x00\x03", 32)
    assert base != flipped
    assert oracle_hkdf(b"k" * 32, SCHEME_SALT, b"\x00\x01", 32, "sha256") == base
    assert oracle_hkdf(b"k" * 32, SCHEME_SALT, b"\x00\x03", 32, "sha256") == flipped


def test_hkdf_expansion_limit():
    assert len(hkdf(b"x" * 32, b"", b"", 255 * 32)) == 255 * 32
    with pytest.raises(InvalidParameter):
        hkdf(b"x" * 32, b"", b"", 255 * 32 + 1)


@settings(max_examples=50, deadline=None)
@given(
    ikm=st.binary(min_size=1, max_size=80),
    salt=st.binary(max_size=64),
    info=st.binary(max_size=64),
    length=st.integers(min_value=1, max_value=128),
)
def test_hkdf_matches_oracle(ikm, salt, info, length):
    assert hkdf(ikm, salt, info, length) == oracle_hkdf(ikm, salt, info, length, "sha256")


@pytest.mark.parametrize(
    "label", [LABEL_IK, LABEL_BLOCK_FIRST, LABEL_BLOCK_NEXT, LABEL_MESSAGE, LABEL_STORAGE, LABEL_CHANNEL]
)
@settings(max_examples=25, deadline=None)
@given(ikm=st.binary(max_size=80), suffix=st.binary(max_size=40))
def test_one_shot_hkdf_matches_extract_expand(label, ikm, suffix):
    # Outputs of up to 32 bytes take the one-shot path; the general
    # extract/expand path is its reference.
    info = label + suffix
    prk = hkdf_extract(ikm, SCHEME_SALT)
    for out_len in range(1, 33):
        assert hkdf(ikm, SCHEME_SALT, info, out_len) == hkdf_expand(prk, info, out_len)


@settings(max_examples=200, deadline=None)
@given(
    key=st.one_of(st.just(SCHEME_SALT), st.binary(max_size=100)),
    msg=st.binary(max_size=600),
)
def test_hmac_sha256_matches_stdlib(key, msg):
    # Keys of up to 64 bytes take the pad path, SCHEME_SALT its cached
    # states, longer keys the stdlib fallback.
    assert hmac_sha256(key, msg) == hmac_mod.digest(key, msg, "sha256")
    assert hmac_sha256(bytearray(key), msg) == hmac_mod.digest(key, msg, "sha256")


def test_hmac_sha256_cached_salt_states_are_never_updated():
    messages = [b"", b"a", b"b" * 63, b"c" * 64, b"d" * 65, b"e" * 1000, b"a"]
    first = [hmac_sha256(SCHEME_SALT, msg) for msg in messages]
    again = [hmac_sha256(SCHEME_SALT, msg) for msg in reversed(messages)][::-1]
    assert first == again == [hmac_mod.digest(SCHEME_SALT, m, "sha256") for m in messages]
    assert first[1] == first[-1]


def test_hkdf_with_cached_salt_states_is_thread_safe():
    # The export server thread and the main thread share the cached states.
    failures, results = [], []

    def derive(seed: int) -> None:
        try:
            for i in range(2000):
                ikm, info = struct.pack(">II", seed, i) * 4, LABEL_MESSAGE + struct.pack(">I", i)
                expected = oracle_hkdf(ikm, SCHEME_SALT, info, 32, "sha256")
                if hkdf(ikm, SCHEME_SALT, info, 32) != expected:
                    failures.append((seed, i))
            results.append(seed)
        except Exception as exc:  # surfaced by the assertions below
            failures.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=derive, args=(seed,)) for seed in (1, 2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []
    assert sorted(results) == [1, 2]


# Intermediate keys ----------------------------------------------------------


def test_derive_ik_domain_separation():
    rlk = RootLoggingKey(b"\x11" * 32)
    ik0 = derive_ik(rlk, 0)
    ik1 = derive_ik(rlk, 1)
    assert isinstance(ik0, bytearray) and len(ik0) == 32
    assert ik0 != ik1


def test_derive_ik_deterministic_across_devices():
    k = b"\x77" * 32
    device_side = derive_ik(RootLoggingKey(k), 5)
    verifier_side = derive_ik(RootLoggingKey(k), 5)
    assert device_side == verifier_side


def test_ik_position_addressed_not_chained():
    rlk = RootLoggingKey(b"\x42" * 32)
    one_by_one = [bytes(derive_ik(rlk, g)) for g in range(1000)]
    direct = derive_ik(rlk, 999)
    assert direct == one_by_one[999]
    # and matches a from-scratch recomputation
    oracle = oracle_hkdf(b"\x42" * 32, SCHEME_SALT, LABEL_IK + struct.pack(">I", 999), 32, "sha256")
    assert direct == oracle


def test_destroyed_rlk_unusable():
    rlk = RootLoggingKey.generate()
    rlk.destroy()
    assert rlk.destroyed
    with pytest.raises(KeyUnavailable):
        derive_ik(rlk, 0)


# Block keys ------------------------------------------------------------------


def _oracle_block_keys(ik: bytes, first: int, count: int) -> list[bytes]:
    keys = [oracle_hkdf(ik, SCHEME_SALT, LABEL_BLOCK_FIRST + struct.pack(">I", first), 32, "sha256")]
    for bid in range(first + 1, first + count):
        info = LABEL_BLOCK_NEXT + struct.pack(">I", bid)
        keys.append(oracle_hkdf(keys[-1], SCHEME_SALT, info, 32, "sha256"))
    return keys


def test_block_walk_starts_at_the_groups_first_block():
    # Group 2 of c=10 serves blocks 20..29: its first key is BK0 || 20 over
    # the IK, the key block_key_at re-derives for block 20 and no other.
    params = ChainParams(c=10, m=5)
    rlk = RootLoggingKey(b"\x01" * 32)
    ik = derive_ik(rlk, 2)
    oracle = oracle_hkdf(bytes(ik), SCHEME_SALT, LABEL_BLOCK_FIRST + struct.pack(">I", 20), 32, "sha256")
    walk = block_walk(ik, 2, params)
    first = bytes(next(walk))
    walk.close()
    assert first == oracle == block_key_at(rlk, 20, params)
    assert first != block_key_at(rlk, 21, params)


def test_block_chain_matches_full_rederivation():
    params = ChainParams(c=10, m=5)
    rlk = RootLoggingKey(b"\x05" * 32)
    walk = block_walk(derive_ik(rlk, 0), 0, params)
    stepped = [bytes(next(walk)) for _ in range(3)]
    walk.close()
    fresh = RootLoggingKey(b"\x05" * 32)
    assert stepped == [block_key_at(fresh, bid, params) for bid in range(3)]
    # The same holds in any group: block 7 of group 1 at c=4.
    params = ChainParams(c=4, m=2)
    walked = [bytes(k) for k in block_walk(derive_ik(rlk, 1), 1, params)]
    assert walked[3] == block_key_at(rlk, 7, params)


def test_block_walk_yields_exactly_c_oracle_keys_then_ends():
    # The walk stops at its group's last block: the next group's first
    # block derives from its own IK, never from this chain.
    params = ChainParams(c=4, m=3)
    seed = b"\x3c" * 32
    ik = derive_ik(RootLoggingKey(seed), 1)
    oracle = _oracle_block_keys(bytes(ik), 4, 4)
    walk = block_walk(ik, 1, params)
    assert [bytes(k) for k in walk] == oracle
    with pytest.raises(StopIteration):
        next(walk)
    assert block_key_at(RootLoggingKey(seed), 8, params) == _oracle_block_keys(
        bytes(derive_ik(RootLoggingKey(seed), 2)), 8, 1
    )[0]


def test_block_chain_oracle_recomputation():
    params = ChainParams(c=4, m=3)
    seed = b"\x3c" * 32
    got = block_key_at(RootLoggingKey(seed), 6, params)
    # group 1 serves blocks 4..7; walk the chain by hand
    ik = oracle_hkdf(seed, SCHEME_SALT, LABEL_IK + struct.pack(">I", 1), 32, "sha256")
    bk = oracle_hkdf(ik, SCHEME_SALT, LABEL_BLOCK_FIRST + struct.pack(">I", 4), 32, "sha256")
    for bid in (5, 6):
        bk = oracle_hkdf(bk, SCHEME_SALT, LABEL_BLOCK_NEXT + struct.pack(">I", bid), 32, "sha256")
    assert isinstance(got, bytearray)
    assert got == bk


def test_block_ids_outside_32_bits_are_invalid_parameters():
    with pytest.raises(InvalidParameter):
        block_key_at(RootLoggingKey(b"\x05" * 32), 2**32, ChainParams(c=10, m=5))
    # Group 1431655765 of c=3 starts at block 2**32 - 1: the walk yields
    # that key, then refuses block 2**32 and zeroes its buffer.
    params = ChainParams(c=3, m=1)
    group_id = (2**32 - 1) // 3
    ik = derive_ik(RootLoggingKey(b"\x05" * 32), group_id)
    oracle = _oracle_block_keys(bytes(ik), 2**32 - 1, 1)
    walk = block_walk(ik, group_id, params)
    assert bytes(next(walk)) == oracle[0]
    with pytest.raises(InvalidParameter):
        next(walk)
    assert ik == bytes(32)


# Message keys ----------------------------------------------------------------


def _oracle_message_keys(block_key: bytes, block_id: int, count: int) -> list[bytes]:
    keys, mk = [], block_key
    for i in range(count):
        info = LABEL_MESSAGE + struct.pack(">II", block_id, i)
        mk = oracle_hkdf(mk, SCHEME_SALT, info, 32, "sha256")
        keys.append(mk)
    return keys


def _message_keys(rlk: RootLoggingKey, block_id: int, count: int, params: ChainParams) -> list[bytes]:
    return [bytes(k) for k in walk_message_chain(rlk, block_id, count, params)]


def test_message_chain_single_message_block():
    params = ChainParams(c=1, m=1)
    bk = bytes(block_key_at(RootLoggingKey(b"\x09" * 32), 0, params))
    keys = [bytes(k) for k in message_walk(bytearray(bk), 0, 1, params)]
    assert keys == _oracle_message_keys(bk, 0, 1)
    # A block holds at most m keys: a walk past m fails on its first step,
    # and still zeroes the buffer it owns.
    buf = bytearray(bk)
    walk = message_walk(buf, 0, params.m + 1, params)
    with pytest.raises(InvalidParameter):
        next(walk)
    assert bytes(buf) == bytes(32)


def test_message_walk_rejects_a_block_id_outside_32_bits():
    buf = bytearray(b"\x01" * 32)
    with pytest.raises(InvalidParameter):
        next(message_walk(buf, 2**32, 1, ChainParams(c=1, m=4)))
    assert bytes(buf) == bytes(32)


def test_message_chain_rederivation_matches_device_side():
    params = ChainParams(c=2, m=100)
    seed = b"\x5a" * 32
    # Device side: the writer's walk, over a copy of its live block key.
    bk = bytes(block_key_at(RootLoggingKey(seed), 3, params))
    device = [bytes(k) for k in message_walk(bytearray(bk), 3, 100, params)]
    assert device == _oracle_message_keys(bk, 3, 100)
    assert _message_keys(RootLoggingKey(seed), 3, 100, params) == device


def test_message_key_oracle_recomputation():
    params = ChainParams(c=3, m=8)
    seed = b"\x66" * 32
    keys = _message_keys(RootLoggingKey(seed), 4, 6, params)
    ik = oracle_hkdf(seed, SCHEME_SALT, LABEL_IK + struct.pack(">I", 1), 32, "sha256")
    bk = oracle_hkdf(ik, SCHEME_SALT, LABEL_BLOCK_FIRST + struct.pack(">I", 3), 32, "sha256")
    bk = oracle_hkdf(bk, SCHEME_SALT, LABEL_BLOCK_NEXT + struct.pack(">I", 4), 32, "sha256")
    mk = oracle_hkdf(bk, SCHEME_SALT, LABEL_MESSAGE + struct.pack(">II", 4, 0), 32, "sha256")
    expected = [mk]
    for i in range(1, 6):
        mk = oracle_hkdf(mk, SCHEME_SALT, LABEL_MESSAGE + struct.pack(">II", 4, i), 32, "sha256")
        expected.append(mk)
    assert keys == expected


def test_message_keys_encode_both_coordinates():
    params = ChainParams(c=100, m=100)
    rlk = RootLoggingKey(b"\x13" * 32)
    k35 = _message_keys(rlk, 3, 6, params)[5]
    k53 = _message_keys(rlk, 5, 4, params)[3]
    assert k35 != k53


# Group confinement ------------------------------------------------------------


def test_group_keys_derivable_from_ik_alone():
    params = ChainParams(c=3, m=4)
    seed = b"\x2b" * 32
    rlk = RootLoggingKey(seed)
    ik = derive_ik(rlk, 2)  # serves blocks 6, 7, 8
    ik_bytes = bytes(ik)

    from_ik = {}
    for bid, bk in zip((6, 7, 8), block_walk(ik, 2, params)):
        walk = message_walk(bytearray(bk), bid, params.m, params)
        from_ik[bid] = [bytes(k) for k in walk]

    for bid, oracle_bk in zip((6, 7, 8), _oracle_block_keys(ik_bytes, 6, 3)):
        assert from_ik[bid] == _oracle_message_keys(oracle_bk, bid, params.m)
        assert _message_keys(RootLoggingKey(seed), bid, params.m, params) == from_ik[bid]


# Erasure -----------------------------------------------------------------------


def test_next_block_key_erases_predecessor():
    # Each step of the block walk overwrites its one buffer: block key j
    # replaces key j-1 (the IK for j = 0), and closing zeroes it.
    params = ChainParams(c=10, m=2)
    ik = derive_ik(RootLoggingKey(b"\x01" * 32), 0)
    oracle = _oracle_block_keys(bytes(ik), 0, 4)
    walk = block_walk(ik, 0, params)
    for j in range(4):
        assert next(walk) is ik
        assert ik == oracle[j]
    walk.close()
    assert ik == bytes(32)


def test_message_walk_erases_each_predecessor():
    params = ChainParams(c=1, m=4)
    bk = bytes(block_key_at(RootLoggingKey(b"\x01" * 32), 0, params))
    oracle = _oracle_message_keys(bk, 0, 4)
    buf = bytearray(bk)
    walk = message_walk(buf, 0, 4, params)
    for i in range(4):
        assert next(walk) is buf
        # Key i overwrote key i-1 (the block key for i = 0) in place.
        assert bytes(buf) == oracle[i]
    walk.close()
    assert bytes(buf) == bytes(32)


def test_message_walk_zeroes_its_buffer_when_done_or_closed():
    params = ChainParams(c=2, m=4)
    rlk = RootLoggingKey(b"\x01" * 32)
    walk = walk_message_chain(rlk, 1, 4, params)
    buf = next(walk)
    assert next(walk) is buf  # one buffer, overwritten in place
    walk.close()
    assert bytes(buf) == bytes(32)

    bufs = list(walk_message_chain(rlk, 1, 4, params))
    assert all(b is bufs[0] for b in bufs)
    assert bytes(bufs[0]) == bytes(32)


def test_rlk_destroy_zeroes_buffer():
    rlk = RootLoggingKey(b"\xaa" * 32)
    buf = rlk._buf
    rlk.destroy()
    assert bytes(buf) == b"\x00" * 32


def test_erased_ik_unusable():
    params = ChainParams(c=2, m=2)
    ik = bytearray(32)  # what sealing or a finished walk leaves behind
    with pytest.raises(KeyUnavailable):
        next(block_walk(ik, 0, params))
    assert ik == bytes(32)


def test_erase_zeroes_the_same_buffer_in_place():
    # Every walk zeroes the one buffer it was given, whether it ends,
    # is closed, or fails; a finished walk cannot be stepped again.
    params = ChainParams(c=2, m=2)
    rlk = RootLoggingKey(b"\x31" * 32)
    ends = {
        "done": lambda walk: list(walk),
        "closed": lambda walk: (next(walk), walk.close()),
    }
    for end in ends.values():
        for buf, walk in (
            (ik := derive_ik(rlk, 0), block_walk(ik, 0, params)),
            (bk := block_key_at(rlk, 0, params), message_walk(bk, 0, 2, params)),
        ):
            end(walk)
            assert buf == bytes(32)
            with pytest.raises(StopIteration):
                next(walk)


def _assert_no_material(texts: list[str], materials: list[bytes]) -> None:
    for text in texts:
        for material in materials:
            assert material.hex() not in text
            assert repr(material) not in text


def test_key_repr_never_shows_material(tmp_path):
    rlk = RootLoggingKey(b"\x31" * 32)
    sk = AESGCM(b"\x32" * 32)
    _assert_no_material([repr(rlk), str(rlk)], [b"\x31" * 32])
    _assert_no_material([repr(sk), str(sk)], [b"\x32" * 32])

    # A writer in the middle of block 1 of group 0: none of its attributes
    # shows the group's IK, the open block's key or the last message key.
    store = build_store(tmp_path / "s", c=3, m=4)
    writer = LogWriter(store)
    for i in range(6):
        writer.append_entry(RawEntry("generic", b"entry %d" % i))
    root, params = store.root_logging_key(), store.params
    live = [
        bytes(derive_ik(root, 0)),
        bytes(block_key_at(root, 1, params)),
        _message_keys(root, 1, 2, params)[1],
    ]
    _assert_no_material([repr(v) for v in vars(writer).values()], live)
    writer.close()
