from __future__ import annotations

import hashlib
import hmac as hmac_mod
import struct
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    IntermediateKey,
    RootLoggingKey,
    block_key_at,
    derive_ik,
    first_block_key,
    hkdf,
    hkdf_expand,
    hkdf_extract,
    hmac_sha256,
    message_keys_for_block,
    message_walk,
    next_block_key,
    walk_block_chain,
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
    assert len(ik0.key_bytes()) == 32
    assert ik0.key_bytes() != ik1.key_bytes()


def test_derive_ik_deterministic_across_devices():
    k = b"\x77" * 32
    device_side = derive_ik(RootLoggingKey(k), 5)
    verifier_side = derive_ik(RootLoggingKey(k), 5)
    assert device_side.key_bytes() == verifier_side.key_bytes()


def test_ik_position_addressed_not_chained():
    rlk = RootLoggingKey(b"\x42" * 32)
    one_by_one = [derive_ik(rlk, g).key_bytes() for g in range(1000)]
    direct = derive_ik(rlk, 999)
    assert direct.key_bytes() == one_by_one[999]
    # and matches a from-scratch recomputation
    oracle = oracle_hkdf(b"\x42" * 32, SCHEME_SALT, LABEL_IK + struct.pack(">I", 999), 32, "sha256")
    assert direct.key_bytes() == oracle


def test_destroyed_rlk_unusable():
    rlk = RootLoggingKey.generate()
    rlk.destroy()
    assert rlk.destroyed
    with pytest.raises(KeyUnavailable):
        derive_ik(rlk, 0)


# Block keys ------------------------------------------------------------------


def test_first_block_key_group_precondition():
    params = ChainParams(c=10, m=5)
    rlk = RootLoggingKey(b"\x01" * 32)
    ik2 = derive_ik(rlk, 2)
    assert first_block_key(ik2, 20, params).block_id == 20
    with pytest.raises(InvalidParameter):
        first_block_key(derive_ik(rlk, 2), 21, params)


def test_block_chain_matches_full_rederivation():
    params = ChainParams(c=10, m=5)
    rlk = RootLoggingKey(b"\x05" * 32)
    ik = derive_ik(rlk, 0)
    bk = first_block_key(ik, 0, params)
    bk = next_block_key(bk, 1, params)
    bk = next_block_key(bk, 2, params)
    fresh = block_key_at(RootLoggingKey(b"\x05" * 32), 2, params)
    assert bk.key_bytes() == fresh.key_bytes()


def test_walk_block_chain_rejects_a_block_outside_the_ik_group():
    params = ChainParams(c=4, m=2)
    rlk = RootLoggingKey(b"\x07" * 32)
    for block_id in (3, 8, 100):  # group 1 serves blocks 4..7
        with pytest.raises(InvalidParameter):
            walk_block_chain(derive_ik(rlk, 1), block_id, params)
    walked = walk_block_chain(derive_ik(rlk, 1), 7, params)
    assert walked.block_id == 7
    assert walked.key_bytes() == block_key_at(rlk, 7, params).key_bytes()


def test_next_block_key_rejects_group_boundary():
    params = ChainParams(c=10, m=5)
    rlk = RootLoggingKey(b"\x05" * 32)
    bk9 = block_key_at(rlk, 9, params)
    with pytest.raises(InvalidParameter):
        next_block_key(bk9, 10, params)


def test_next_block_key_rejects_nonconsecutive():
    params = ChainParams(c=10, m=5)
    bk = block_key_at(RootLoggingKey(b"\x05" * 32), 3, params)
    with pytest.raises(InvalidParameter):
        next_block_key(bk, 5, params)


def test_block_chain_oracle_recomputation():
    params = ChainParams(c=4, m=3)
    seed = b"\x3c" * 32
    got = block_key_at(RootLoggingKey(seed), 6, params)
    # group 1 serves blocks 4..7; walk the chain by hand
    ik = oracle_hkdf(seed, SCHEME_SALT, LABEL_IK + struct.pack(">I", 1), 32, "sha256")
    bk = oracle_hkdf(ik, SCHEME_SALT, LABEL_BLOCK_FIRST + struct.pack(">I", 4), 32, "sha256")
    for bid in (5, 6):
        bk = oracle_hkdf(bk, SCHEME_SALT, LABEL_BLOCK_NEXT + struct.pack(">I", bid), 32, "sha256")
    assert got.key_bytes() == bk


# Message keys ----------------------------------------------------------------


def _oracle_message_keys(block_key: bytes, block_id: int, count: int) -> list[bytes]:
    keys, mk = [], block_key
    for i in range(count):
        info = LABEL_MESSAGE + struct.pack(">II", block_id, i)
        mk = oracle_hkdf(mk, SCHEME_SALT, info, 32, "sha256")
        keys.append(mk)
    return keys


def test_message_chain_single_message_block():
    params = ChainParams(c=1, m=1)
    bk = block_key_at(RootLoggingKey(b"\x09" * 32), 0, params).key_bytes()
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
    bk = block_key_at(RootLoggingKey(seed), 3, params)
    device = [bytes(k) for k in message_walk(bytearray(bk.key_bytes()), 3, 100, params)]
    assert device == _oracle_message_keys(bk.key_bytes(), 3, 100)
    verifier = message_keys_for_block(RootLoggingKey(seed), 3, 100, params)
    assert [k.key_bytes() for k in verifier] == device


def test_message_key_oracle_recomputation():
    params = ChainParams(c=3, m=8)
    seed = b"\x66" * 32
    keys = message_keys_for_block(RootLoggingKey(seed), 4, 6, params)
    ik = oracle_hkdf(seed, SCHEME_SALT, LABEL_IK + struct.pack(">I", 1), 32, "sha256")
    bk = oracle_hkdf(ik, SCHEME_SALT, LABEL_BLOCK_FIRST + struct.pack(">I", 3), 32, "sha256")
    bk = oracle_hkdf(bk, SCHEME_SALT, LABEL_BLOCK_NEXT + struct.pack(">I", 4), 32, "sha256")
    mk = oracle_hkdf(bk, SCHEME_SALT, LABEL_MESSAGE + struct.pack(">II", 4, 0), 32, "sha256")
    expected = [mk]
    for i in range(1, 6):
        mk = oracle_hkdf(mk, SCHEME_SALT, LABEL_MESSAGE + struct.pack(">II", 4, i), 32, "sha256")
        expected.append(mk)
    assert [k.key_bytes() for k in keys] == expected


def test_message_keys_encode_both_coordinates():
    params = ChainParams(c=100, m=100)
    rlk = RootLoggingKey(b"\x13" * 32)
    k35 = message_keys_for_block(rlk, 3, 6, params)[5]
    k53 = message_keys_for_block(rlk, 5, 4, params)[3]
    assert k35.key_bytes() != k53.key_bytes()


# Group confinement ------------------------------------------------------------


def test_group_keys_derivable_from_ik_alone():
    params = ChainParams(c=3, m=4)
    seed = b"\x2b" * 32
    rlk = RootLoggingKey(seed)
    ik = derive_ik(rlk, 2)  # serves blocks 6, 7, 8
    ik_bytes = ik.key_bytes()

    from_ik = {}
    bk = first_block_key(ik, 6, params)
    for bid in (6, 7, 8):
        if bid > 6:
            bk = next_block_key(bk, bid, params)
        walk = message_walk(bytearray(bk.key_bytes()), bid, params.m, params)
        from_ik[bid] = [bytes(k) for k in walk]

    info = LABEL_BLOCK_FIRST + struct.pack(">I", 6)
    oracle_bk = oracle_hkdf(ik_bytes, SCHEME_SALT, info, 32, "sha256")
    for bid in (6, 7, 8):
        if bid > 6:
            oracle_bk = oracle_hkdf(
                oracle_bk, SCHEME_SALT, LABEL_BLOCK_NEXT + struct.pack(">I", bid), 32, "sha256"
            )
        assert from_ik[bid] == _oracle_message_keys(oracle_bk, bid, params.m)
        via_rlk = message_keys_for_block(RootLoggingKey(seed), bid, params.m, params)
        assert [k.key_bytes() for k in via_rlk] == from_ik[bid]


# Erasure -----------------------------------------------------------------------


def test_next_block_key_erases_predecessor():
    params = ChainParams(c=10, m=2)
    bk0 = block_key_at(RootLoggingKey(b"\x01" * 32), 0, params)
    buf = bk0.key
    next_block_key(bk0, 1, params)
    assert bytes(buf) == b"\x00" * 32
    assert bk0.erased
    with pytest.raises(KeyUnavailable):
        bk0.key_bytes()


def test_message_walk_erases_each_predecessor():
    params = ChainParams(c=1, m=4)
    bk = block_key_at(RootLoggingKey(b"\x01" * 32), 0, params).key_bytes()
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
    ik = IntermediateKey(group_id=0, key=bytearray(b"\x01" * 32))
    ik.erase()
    with pytest.raises(KeyUnavailable):
        first_block_key(ik, 0, params)


def _one_key_of_each_type():
    params = ChainParams(c=2, m=2)
    ik = derive_ik(RootLoggingKey(b"\x31" * 32), 0)
    bk = first_block_key(ik, 0, params)
    return [ik, bk, message_keys_for_block(RootLoggingKey(b"\x31" * 32), 0, 1, params)[0]]


def test_erase_zeroes_the_same_buffer_in_place():
    for key in _one_key_of_each_type():
        buf = key.key
        key.erase()
        assert key.key is buf
        assert bytes(buf) == bytes(32)
        with pytest.raises(KeyUnavailable):
            key.key_bytes()


def test_key_repr_never_shows_material():
    for key in _one_key_of_each_type():
        material = key.key_bytes()
        for text in (repr(key), str(key)):
            assert material.hex() not in text
            assert repr(material) not in text
            assert repr(key.key) not in text
