from __future__ import annotations

import hmac as hmac_mod
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sealog.errors import InvalidParameter, KeyMisuse, ParseError
from sealog.identity import DeviceIdentity
from sealog.keyschedule import (
    LABEL_MESSAGE,
    SCHEME_SALT,
    ChainParams,
    MessageKey,
    RootLoggingKey,
    hkdf,
    message_keys_for_block,
)
from sealog.logchain import (
    MAX_TEXT_LEN,
    RECORD_LEN,
    STATUS_BAD_SIGNATURE,
    STATUS_OK,
    Block,
    LogRecord,
    make_record,
    pack_text_field,
    sign_block,
    unpack_text_field,
    verify_block_full,
    verify_block_public,
)

PARAMS = ChainParams(c=2, m=8)
SEED = b"\x21" * 32


def _keys(block_id: int, count: int):
    return message_keys_for_block(RootLoggingKey(SEED), block_id, count, PARAMS)


def _build_block(block_id: int, texts: list[bytes], identity: DeviceIdentity) -> Block:
    keys = _keys(block_id, len(texts))
    records = [
        make_record(i, text, keys[i], erase_key=False) for i, text in enumerate(texts)
    ]
    return sign_block(block_id, records, identity)


@pytest.fixture(scope="module")
def identity():
    return DeviceIdentity.generate()


# Records ---------------------------------------------------------------------


def test_record_serialized_size_is_292():
    key = _keys(0, 1)[0]
    record = make_record(0, b"hello", key, erase_key=False)
    assert len(record.serialize()) == RECORD_LEN == 292


def test_empty_text_record_valid():
    key = _keys(0, 1)[0]
    record = make_record(0, b"", key, erase_key=False)
    assert record.text == b""
    assert len(record.serialize()) == 292


def test_text_boundary_254_ok_255_rejected():
    key = _keys(0, 1)[0]
    record = make_record(0, b"x" * 254, key, erase_key=False)
    assert record.text == b"x" * 254
    key2 = _keys(0, 1)[0]
    with pytest.raises(InvalidParameter):
        make_record(0, b"x" * 255, key2)


def test_record_identical_across_machines():
    # Same coordinate, text, and root key on two "machines": byte-identical
    # serialization, cross-checked against a direct HMAC computation.
    a = make_record(3, b"payload", _keys(1, 4)[3], erase_key=False)
    b = make_record(3, b"payload", _keys(1, 4)[3], erase_key=False)
    assert a.serialize() == b.serialize()

    key_bytes = _keys(1, 4)[3].key_bytes()
    field = pack_text_field(b"payload")
    expected_tag = hmac_mod.new(
        key_bytes, struct.pack(">II", 1, 3) + field, "sha256"
    ).digest()
    assert a.tag == expected_tag


def test_make_record_coordinate_mismatch():
    key = _keys(0, 2)[1]
    with pytest.raises(KeyMisuse):
        make_record(0, b"x", key)


def test_make_record_erases_key_by_default():
    key = _keys(0, 1)[0]
    make_record(0, b"x", key)
    assert key.erased


def test_text_field_prefix_roundtrip():
    field = pack_text_field(b"abc", continuation=True)
    content, cont = unpack_text_field(field)
    assert content == b"abc" and cont is True
    field2 = pack_text_field(b"", continuation=False)
    assert unpack_text_field(field2) == (b"", False)


# Blocks ------------------------------------------------------------------------


def test_signed_block_verifies(identity):
    block = _build_block(0, [b"a", b"b", b"c"], identity)
    assert verify_block_public(block, identity.public_key) == STATUS_OK


def test_empty_block_rejected(identity):
    with pytest.raises(InvalidParameter):
        sign_block(0, [], identity)


def test_tag_bit_flip_breaks_signature(identity):
    block = _build_block(0, [b"a", b"b", b"c"], identity)
    for i in range(3):
        tampered_tag = bytearray(block.records[i].tag)
        tampered_tag[0] ^= 0x01
        records = list(block.records)
        records[i] = LogRecord(records[i].msg_id, bytes(tampered_tag), records[i].text_field)
        tampered = Block(block.block_id, tuple(records), block.signature)
        assert verify_block_public(tampered, identity.public_key) == STATUS_BAD_SIGNATURE


def test_signatures_do_not_cross_verify_between_block_ids(identity):
    texts = [b"same", b"records"]
    block0 = _build_block(0, texts, identity)
    block1 = _build_block(1, texts, identity)
    assert block0.signature != block1.signature
    swapped = Block(block1.block_id, block1.records, block0.signature)
    assert verify_block_public(swapped, identity.public_key) == STATUS_BAD_SIGNATURE


def test_truncated_signature_is_parse_error(identity):
    block = _build_block(0, [b"a"], identity)
    broken = Block(block.block_id, block.records, block.signature[:63])
    with pytest.raises(ParseError):
        verify_block_public(broken, identity.public_key)


def test_public_path_does_not_cover_text(identity):
    # Mutating text while keeping tags/signature: public check still passes,
    # full verification is the layer that catches it.
    block = _build_block(0, [b"original"], identity)
    field = bytearray(block.records[0].text_field)
    field[2] ^= 0xFF
    records = (LogRecord(0, block.records[0].tag, bytes(field)),)
    tampered = Block(block.block_id, records, block.signature)
    assert verify_block_public(tampered, identity.public_key) == STATUS_OK
    outcome = verify_block_full(tampered, RootLoggingKey(SEED), PARAMS, identity.public_key)
    assert not outcome.ok and outcome.bad_records == [0]


# Full verification ---------------------------------------------------------------


def test_full_verification_clean_block(identity):
    block = _build_block(2, [b"r0", b"r1", b"r2", b"r3"], identity)
    outcome = verify_block_full(block, RootLoggingKey(SEED), PARAMS, identity.public_key)
    assert outcome.ok and outcome.signature_ok and outcome.checked_records == 4


def test_text_flip_reports_failing_record_and_signature(identity):
    texts = [b"zero", b"one", b"two", b"three", b"four", b"five", b"six", b"seven"]
    block = _build_block(0, texts, identity)
    field = bytearray(block.records[7].text_field)
    field[5] ^= 0x10
    records = list(block.records)
    records[7] = LogRecord(7, records[7].tag, bytes(field))
    tampered = Block(block.block_id, tuple(records), block.signature)
    outcome = verify_block_full(tampered, RootLoggingKey(SEED), PARAMS, identity.public_key)
    assert outcome.bad_records == [7]
    # tags feed the signature, so fixing the tag to match would break it;
    # leaving the tag stale keeps the signature valid over the old tags
    assert outcome.signature_ok


def test_swapped_records_fail_at_first_swapped_coordinate(identity):
    texts = [b"zero", b"one", b"two", b"three", b"four"]
    block = _build_block(0, texts, identity)
    records = list(block.records)
    records[3], records[4] = records[4], records[3]
    swapped = Block(block.block_id, tuple(records), block.signature)
    outcome = verify_block_full(swapped, RootLoggingKey(SEED), PARAMS, identity.public_key)
    assert not outcome.ok
    assert outcome.first_bad_msg_id == 3


def test_record_moved_across_blocks_fails(identity):
    block0 = _build_block(0, [b"a", b"b"], identity)
    block1 = _build_block(1, [b"a", b"b"], identity)
    # transplant record 1 of block 0 into the same slot of block 1
    records = (block1.records[0], block0.records[1])
    franken = Block(1, records, block1.signature)
    outcome = verify_block_full(franken, RootLoggingKey(SEED), PARAMS, identity.public_key)
    assert 1 in outcome.bad_records


def test_wrong_rlk_fails_every_record(identity):
    block = _build_block(0, [b"a", b"b", b"c"], identity)
    outcome = verify_block_full(
        block, RootLoggingKey(b"\x99" * 32), PARAMS, identity.public_key
    )
    assert outcome.bad_records == [0, 1, 2]
    assert outcome.signature_ok  # signature has nothing to do with the RLK


def test_block_longer_than_m_rejected(identity):
    block = _build_block(0, [bytes([i]) for i in range(PARAMS.m)], identity)
    overlong = Block(0, block.records + block.records[:1], block.signature)
    with pytest.raises(InvalidParameter):
        verify_block_full(overlong, RootLoggingKey(SEED), PARAMS, identity.public_key)


def test_public_full_consistency(identity):
    # Anything that passes full verification passes the public check too.
    for block_id in range(4):
        block = _build_block(block_id, [bytes([i]) * 10 for i in range(5)], identity)
        full = verify_block_full(block, RootLoggingKey(SEED), PARAMS, identity.public_key)
        assert full.ok
        assert verify_block_public(block, identity.public_key) == STATUS_OK


# Serialization -------------------------------------------------------------------


def test_block_roundtrip(identity):
    block = _build_block(3, [b"alpha", b"beta"], identity)
    assert Block.deserialize(block.serialize()) == block


def test_block_deserialize_rejects_bad_magic(identity):
    raw = bytearray(_build_block(0, [b"x"], identity).serialize())
    raw[0] ^= 0xFF
    with pytest.raises(ParseError):
        Block.deserialize(bytes(raw))


def test_block_deserialize_rejects_truncation(identity):
    raw = _build_block(0, [b"x", b"y"], identity).serialize()
    with pytest.raises(ParseError):
        Block.deserialize(raw[:-1])


@settings(max_examples=40, deadline=None)
@given(
    block_id=st.integers(min_value=0, max_value=2**32 - 1),
    contents=st.lists(
        st.tuples(st.binary(max_size=MAX_TEXT_LEN), st.booleans()),
        min_size=1,
        max_size=6,
    ),
    signature=st.binary(min_size=64, max_size=64),
)
def test_block_roundtrip_property(block_id, contents, signature):
    records = tuple(
        LogRecord(
            msg_id=i,
            tag=hkdf(bytes([i]), SCHEME_SALT, b"tag", 32),
            text_field=pack_text_field(text, cont),
        )
        for i, (text, cont) in enumerate(contents)
    )
    block = Block(block_id=block_id, records=records, signature=signature)
    again = Block.deserialize(block.serialize())
    assert again == block
    for rec, (text, cont) in zip(again.records, contents):
        assert rec.text == text and rec.continuation == cont


# Compromise scope -----------------------------------------------------------------


def _forge_records_from_leaked_key(leaked: bytes, block_id: int, count: int) -> list[LogRecord]:
    """What an adversary holding one block key can do: derive that block's
    message keys and tag arbitrary records."""
    mk = hkdf(leaked, SCHEME_SALT, LABEL_MESSAGE + struct.pack(">II", block_id, 0), 32)
    records = []
    for i in range(count):
        if i > 0:
            mk = hkdf(mk, SCHEME_SALT, LABEL_MESSAGE + struct.pack(">II", block_id, i), 32)
        field = pack_text_field(b"FORGED %d" % i)
        tag = hmac_mod.new(mk, struct.pack(">II", block_id, i) + field, "sha256").digest()
        records.append(LogRecord(msg_id=i, tag=tag, text_field=field))
    return records


def test_leaked_block_key_forges_only_forward_in_group(identity):
    from sealog.keyschedule import LABEL_BLOCK_NEXT, block_key_at

    params = ChainParams(c=4, m=3)
    rlk_seed = b"\x47" * 32
    leak_block = 5  # group 1 spans blocks 4..7
    leaked = block_key_at(RootLoggingKey(rlk_seed), leak_block, params).key_bytes()

    def hmac_only_ok(block: Block) -> bool:
        keys = message_keys_for_block(
            RootLoggingKey(rlk_seed), block.block_id, len(block.records), params
        )
        return all(
            hmac_mod.new(
                keys[i].key_bytes(),
                struct.pack(">II", block.block_id, i) + block.records[i].text_field,
                "sha256",
            ).digest()
            == block.records[i].tag
            for i in range(len(block.records))
        )

    # forward within the group: forgeries pass the HMAC-only check
    bk = leaked
    for target in range(leak_block, 8):
        if target > leak_block:
            bk = hkdf(bk, SCHEME_SALT, LABEL_BLOCK_NEXT + struct.pack(">I", target), 32)
        forged = Block(target, tuple(_forge_records_from_leaked_key(bk, target, 3)), b"\x00" * 64)
        assert hmac_only_ok(forged)
        # ...but they can never pass public verification without sk
        assert verify_block_public(forged, identity.public_key) == STATUS_BAD_SIGNATURE

    # backwards or cross-group: the leaked material yields wrong tags
    for target in (4, 3, 8):
        forged = Block(
            target, tuple(_forge_records_from_leaked_key(leaked, target, 3)), b"\x00" * 64
        )
        assert not hmac_only_ok(forged)
