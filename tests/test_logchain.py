from __future__ import annotations

import hashlib
import hmac as hmac_mod
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sealog import keyschedule, logchain
from sealog.errors import InvalidParameter, ParseError
from sealog.identity import DeviceIdentity, verify_raw
from sealog.keyschedule import (
    LABEL_MESSAGE,
    SCHEME_SALT,
    ChainParams,
    RootLoggingKey,
    hkdf,
    walk_message_chain,
)
from sealog.logchain import (
    MAX_TEXT_LEN,
    RECORD_LEN,
    STATUS_BAD_HMAC,
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
    verify_sequence,
)
from sealog.sealstore import ChainState

PARAMS = ChainParams(c=2, m=8)
SEED = b"\x21" * 32


def _keys(block_id: int, count: int) -> list[bytes]:
    return [bytes(k) for k in walk_message_chain(RootLoggingKey(SEED), block_id, count, PARAMS)]


def _reference_preimage(block_id: int, tags: list[bytes]) -> bytes:
    """A block's signature preimage as the format defines it, encoded
    apart from the code under test: BE32 block_id, BE32 record count, tags."""
    return struct.pack(">II", block_id, len(tags)) + b"".join(tags)


def _record_bytes(record: LogRecord) -> bytes:
    """A record's bytes as a block encodes them: between the 13-byte block
    header and the 64-byte signature."""
    return Block(0, (record,), bytes(64)).serialize()[13:-64]


def _build_block(block_id: int, texts: list[bytes], identity: DeviceIdentity) -> Block:
    keys = _keys(block_id, len(texts))
    records = [make_record(block_id, i, text, keys[i]) for i, text in enumerate(texts)]
    return sign_block(block_id, records, identity)


@pytest.fixture(scope="module")
def identity():
    return DeviceIdentity.generate()


# Records ---------------------------------------------------------------------


def test_record_serialized_size_is_292():
    key = _keys(0, 1)[0]
    record = make_record(0, 0, b"hello", key)
    assert len(_record_bytes(record)) == RECORD_LEN == 292


def test_empty_text_record_valid():
    key = _keys(0, 1)[0]
    record = make_record(0, 0, b"", key)
    assert record.text == b""
    assert len(_record_bytes(record)) == 292


def test_text_boundary_254_ok_255_rejected():
    key = _keys(0, 1)[0]
    record = make_record(0, 0, b"x" * 254, key)
    assert record.text == b"x" * 254
    key2 = _keys(0, 1)[0]
    with pytest.raises(InvalidParameter):
        make_record(0, 0, b"x" * 255, key2)


def test_record_identical_across_machines():
    # Same coordinate, text, and root key on two "machines": byte-identical
    # serialization, cross-checked against a direct HMAC computation.
    a = make_record(1, 3, b"payload", _keys(1, 4)[3])
    b = make_record(1, 3, b"payload", _keys(1, 4)[3])
    assert _record_bytes(a) == _record_bytes(b)

    key_bytes = _keys(1, 4)[3]
    field = pack_text_field(b"payload")
    expected_tag = hmac_mod.new(
        key_bytes, struct.pack(">II", 1, 3) + field, "sha256"
    ).digest()
    assert a.tag == expected_tag


def test_text_field_prefix_roundtrip():
    field = pack_text_field(b"abc", continuation=True)
    content, cont = unpack_text_field(field)
    assert content == b"abc" and cont is True
    field2 = pack_text_field(b"", continuation=False)
    assert unpack_text_field(field2) == (b"", False)


@pytest.mark.parametrize(
    "tag_len, field_len", [(31, 256), (33, 256), (32, 255), (32, 257)]
)
def test_direct_record_with_wrong_field_length_rejected(tag_len, field_len):
    with pytest.raises(InvalidParameter):
        LogRecord(0, b"t" * tag_len, b"f" * field_len)
    with pytest.raises(InvalidParameter):
        LogRecord(msg_id=0, tag=b"t" * tag_len, text_field=b"f" * field_len)


def test_record_value_semantics():
    field = pack_text_field(b"abc", continuation=True)
    record = LogRecord(7, b"t" * 32, field)
    assert record == LogRecord(msg_id=7, tag=b"t" * 32, text_field=field)
    assert record != LogRecord(8, b"t" * 32, field)
    assert repr(record).startswith("LogRecord(msg_id=7, tag=b'tttt")
    assert (record.text, record.continuation) == (b"abc", True)
    with pytest.raises(AttributeError):
        record.msg_id = 8
    assert Block.deserialize(Block(0, (record,), bytes(64)).serialize()).records == (record,)


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


def test_a_signature_of_the_wrong_length_is_a_bad_signature(identity):
    block = _build_block(0, [b"a"], identity)
    broken = Block(block.block_id, block.records, block.signature[:63])
    assert verify_block_public(broken, identity.public_key) == STATUS_BAD_SIGNATURE
    state = ChainState(sealed_blocks=1, commit_counter=1)
    for rlk, notes in ((None, ["hmac-unverified (no RLK)"]), (RootLoggingKey(SEED), [])):
        report = verify_sequence(
            [(0, broken, None)], 0, state, rlk, lambda: identity.public_key, PARAMS
        )
        assert [(e.block_id, e.status) for e in report.entries] == [(0, STATUS_BAD_SIGNATURE)]
        assert report.notes == notes and report.findings == []


def test_public_path_does_not_cover_text(identity):
    # Mutating text while keeping tags/signature: public check still passes,
    # full verification is the layer that catches it.
    block = _build_block(0, [b"original"], identity)
    field = bytearray(block.records[0].text_field)
    field[2] ^= 0xFF
    records = (LogRecord(0, block.records[0].tag, bytes(field)),)
    tampered = Block(block.block_id, records, block.signature)
    assert verify_block_public(tampered, identity.public_key) == STATUS_OK
    assert verify_block_full(tampered, RootLoggingKey(SEED), PARAMS) == [0]


# Full verification ---------------------------------------------------------------


def test_full_verification_clean_block(identity):
    block = _build_block(2, [b"r0", b"r1", b"r2", b"r3"], identity)
    assert verify_block_public(block, identity.public_key) == STATUS_OK
    assert verify_block_full(block, RootLoggingKey(SEED), PARAMS) == []


def test_full_verification_with_no_key_checks_only_the_records(identity, monkeypatch):
    block = _build_block(2, [b"r0", b"r1", b"r2"], identity)
    monkeypatch.setattr(logchain, "verify_raw", None)  # no signature check may run
    assert verify_block_full(block, RootLoggingKey(SEED), PARAMS) == []
    field = bytearray(block.records[1].text_field)
    field[2] ^= 0x01
    records = (block.records[0], LogRecord(1, block.records[1].tag, bytes(field)), block.records[2])
    tampered = Block(2, records, block.signature)
    assert verify_block_full(tampered, RootLoggingKey(SEED), PARAMS) == [1]


def test_text_flip_reports_failing_record_and_signature(identity):
    texts = [b"zero", b"one", b"two", b"three", b"four", b"five", b"six", b"seven"]
    block = _build_block(0, texts, identity)
    field = bytearray(block.records[7].text_field)
    field[5] ^= 0x10
    records = list(block.records)
    records[7] = LogRecord(7, records[7].tag, bytes(field))
    tampered = Block(block.block_id, tuple(records), block.signature)
    assert verify_block_full(tampered, RootLoggingKey(SEED), PARAMS) == [7]
    # tags feed the signature, so fixing the tag to match would break it;
    # leaving the tag stale keeps the signature valid over the old tags
    assert verify_block_public(tampered, identity.public_key) == STATUS_OK


def test_swapped_records_fail_at_first_swapped_coordinate(identity):
    texts = [b"zero", b"one", b"two", b"three", b"four"]
    block = _build_block(0, texts, identity)
    records = list(block.records)
    records[3], records[4] = records[4], records[3]
    swapped = Block(block.block_id, tuple(records), block.signature)
    assert verify_block_full(swapped, RootLoggingKey(SEED), PARAMS)[0] == 3


def test_swapped_records_report_one_bad_hmac_entry(identity):
    texts = [b"zero", b"one", b"two", b"three", b"four"]
    block = _build_block(0, texts, identity)
    records = list(block.records)
    records[3], records[4] = records[4], records[3]
    swapped = Block(block.block_id, tuple(records), block.signature)
    state = ChainState(sealed_blocks=1, commit_counter=1)
    report = verify_sequence(
        [(0, swapped, None)], 0, state, RootLoggingKey(SEED), lambda: identity.public_key, PARAMS
    )
    assert report.mode == "full"
    assert [(e.block_id, e.status, e.msg_id) for e in report.entries] == [
        (0, STATUS_BAD_HMAC, 3)
    ]
    assert report.findings == []


def test_record_moved_across_blocks_fails(identity):
    block0 = _build_block(0, [b"a", b"b"], identity)
    block1 = _build_block(1, [b"a", b"b"], identity)
    # transplant record 1 of block 0 into the same slot of block 1
    records = (block1.records[0], block0.records[1])
    franken = Block(1, records, block1.signature)
    assert 1 in verify_block_full(franken, RootLoggingKey(SEED), PARAMS)


def test_wrong_rlk_fails_every_record(identity):
    block = _build_block(0, [b"a", b"b", b"c"], identity)
    assert verify_block_full(block, RootLoggingKey(b"\x99" * 32), PARAMS) == [0, 1, 2]
    # signature has nothing to do with the RLK
    assert verify_block_public(block, identity.public_key) == STATUS_OK


def test_block_longer_than_m_rejected(identity):
    block = _build_block(0, [bytes([i]) for i in range(PARAMS.m)], identity)
    overlong = Block(0, block.records + block.records[:1], block.signature)
    with pytest.raises(InvalidParameter):
        verify_block_full(overlong, RootLoggingKey(SEED), PARAMS)


def test_empty_block_derives_only_its_block_key(identity, monkeypatch):
    calls = []
    real_hkdf = keyschedule.hkdf

    def counting_hkdf(*args, **kwargs):
        calls.append(args[2])
        return real_hkdf(*args, **kwargs)

    monkeypatch.setattr(keyschedule, "hkdf", counting_hkdf)
    empty = Block(block_id=3, records=(), signature=b"\x00" * 64)
    bad = verify_block_full(empty, RootLoggingKey(SEED), PARAMS)
    # Block 3 is the second of group 1: its IK, the group's first block key,
    # one chain step; no message key.
    assert calls == [
        b"IK" + struct.pack(">I", 1),
        b"BK0" + struct.pack(">I", 2),
        b"BK" + struct.pack(">I", 3),
    ]
    assert bad == []


def test_public_full_consistency(identity):
    # Anything that passes full verification passes the public check too.
    for block_id in range(4):
        block = _build_block(block_id, [bytes([i]) * 10 for i in range(5)], identity)
        assert verify_block_full(block, RootLoggingKey(SEED), PARAMS) == []
        assert verify_block_public(block, identity.public_key) == STATUS_OK


def _both_checks(block, rlk, params, public_key):
    """A full audit's two checks of a block: its signature status and the
    positions of its failing records."""
    return verify_block_public(block, public_key), verify_block_full(block, rlk, params)


def _reference_checks(block, rlk, params, public_key):
    """``_both_checks`` as they were before they read records from the
    bytes: the signature over a preimage encoded apart, then a loop over
    the decoded ``block.records``."""
    records = block.records
    preimage = _reference_preimage(block.block_id, [record.tag for record in records])
    signature_ok = verify_raw(public_key, preimage, block.signature)
    bad = []
    for position, key in enumerate(walk_message_chain(rlk, block.block_id, len(records), params)):
        record = records[position]
        expected = hmac_mod.new(
            bytes(key), struct.pack(">II", block.block_id, position) + record.text_field, "sha256"
        ).digest()
        if record.msg_id != position or not hmac_mod.compare_digest(expected, record.tag):
            bad.append(position)
    return (STATUS_OK if signature_ok else STATUS_BAD_SIGNATURE), bad


_RECORD_FIELDS = {"msg_id": (0, 4), "tag": (4, 32), "text": (36, 256)}
_EDITS = ("flip", "swap", "duplicate", "empty", "overlong", "signature")


@pytest.fixture(scope="module")
def signed_blocks(identity) -> dict[tuple[int, int], bytes]:
    """Signed blocks 0-3 of every length, by (block_id, record count)."""
    blocks = {}
    for block_id in range(4):
        for count in range(1, PARAMS.m + 1):
            texts = [b"entry %d of block %d" % (i, block_id) * (i + 1) for i in range(count)]
            blocks[block_id, count] = _build_block(block_id, texts, identity).serialize()
    return blocks


def _tampered_block(data, signed_blocks) -> bytes:
    """A signed block, then up to three edits of its records or signature."""
    draw = data.draw
    block_id = draw(st.integers(min_value=0, max_value=3))
    raw = signed_blocks[block_id, draw(st.integers(1, PARAMS.m))]
    body, signature = raw[13:-64], raw[-64:]
    signed = [body[i : i + RECORD_LEN] for i in range(0, len(body), RECORD_LEN)]
    records = list(signed)
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        edit = draw(st.sampled_from(_EDITS))
        if edit == "empty":
            records = []
        elif edit == "overlong":
            records += [signed[0]] * (PARAMS.m + 1 - len(records))
        elif edit == "signature":
            at = draw(st.integers(0, 63))
            signature = signature[:at] + bytes([signature[at] ^ 0x01]) + signature[at + 1 :]
        elif not records:
            continue
        elif edit == "flip":
            i = draw(st.integers(0, len(records) - 1))
            start, size = _RECORD_FIELDS[draw(st.sampled_from(sorted(_RECORD_FIELDS)))]
            at = start + draw(st.integers(0, size - 1))
            mask = draw(st.integers(1, 255))
            records[i] = records[i][:at] + bytes([records[i][at] ^ mask]) + records[i][at + 1 :]
        elif edit == "swap":
            i, j = (draw(st.integers(0, len(records) - 1)) for _ in range(2))
            records[i], records[j] = records[j], records[i]
        else:  # duplicate
            i = draw(st.integers(0, len(records) - 1))
            records.insert(draw(st.integers(0, len(records))), records[i])
    head = struct.pack(">4sBII", b"EMLB", 1, block_id, len(records))
    return head + b"".join(records) + signature


def _full_audit_outcome(verify, raw: bytes, public_key) -> tuple[tuple, list[bytes]]:
    """What ``verify`` says of a freshly read block, and the info of every
    ``keyschedule.hkdf`` call it made."""
    calls = []
    real_hkdf = keyschedule.hkdf

    def counting_hkdf(*args, **kwargs):
        calls.append(args[2])
        return real_hkdf(*args, **kwargs)

    keyschedule.hkdf = counting_hkdf
    try:
        said = verify(Block.deserialize(raw), RootLoggingKey(SEED), PARAMS, public_key)
    except InvalidParameter as exc:
        said = ("InvalidParameter", str(exc))
    finally:
        keyschedule.hkdf = real_hkdf
    return said, calls


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_full_audit_from_bytes_matches_the_decoding_reference(identity, signed_blocks, data):
    raw = _tampered_block(data, signed_blocks)
    got = _full_audit_outcome(_both_checks, raw, identity.public_key)
    want = _full_audit_outcome(_reference_checks, raw, identity.public_key)
    assert got == want
    assert got[1], "every full audit derives at least the block's key"


def test_full_audit_runs_the_message_walk_to_its_end(identity, monkeypatch):
    texts = [b"zero", b"one", b"two", b"three"]
    raw = bytearray(_build_block(1, texts, identity).serialize())
    raw[13 + RECORD_LEN + 40] ^= 0x04  # a text byte of record 1
    walks, keys = [], []
    real_walk = logchain.walk_message_chain

    def watched_walk(*args):
        walk = real_walk(*args)
        walks.append(walk)

        def steps():
            for key in walk:
                keys.append(key)
                yield key

        return steps()

    monkeypatch.setattr(logchain, "walk_message_chain", watched_walk)
    assert verify_block_full(Block.deserialize(bytes(raw)), RootLoggingKey(SEED), PARAMS) == [1]
    # One walk, run to its end: its one buffer is zeroed by the time the
    # audit returns.
    assert len(walks) == 1 and walks[0].gi_frame is None
    assert len(keys) == 4 and all(key is keys[0] for key in keys)
    assert keys[0] == bytearray(32)


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


def test_block_bytes_match_golden_digest():
    # Pins the EMLB encoding: a continued record, a full 254-byte one and an
    # empty one (all padding), under fixed tags and signature.
    records = (
        LogRecord(0, bytes(range(32)), pack_text_field(b"hello", continuation=True)),
        LogRecord(1, bytes(range(32, 64)), pack_text_field(b"A" * 254)),
        LogRecord(2, b"\xff" * 32, pack_text_field(b"")),
    )
    block = Block(block_id=0x01020304, records=records, signature=bytes(range(64, 128)))
    raw = block.serialize()
    assert raw[:13] == b"EMLB\x01\x01\x02\x03\x04\x00\x00\x00\x03"
    assert len(raw) == 13 + 3 * RECORD_LEN + 64
    assert (
        hashlib.sha256(raw).hexdigest()
        == "bc7cccf0ef6ed0081642619be9689f141591f4e008a887a36490ab9dfc5e1777"
    )
    assert Block.deserialize(raw) == block


def _well_formed_block_bytes(max_records=3):
    """Well-formed block encodings: arbitrary record and signature bytes."""
    return st.integers(min_value=0, max_value=max_records).flatmap(
        lambda n: st.builds(
            lambda block_id, rest: struct.pack(">4sBII", b"EMLB", 1, block_id, n) + rest,
            st.integers(min_value=0, max_value=2**32 - 1),
            st.binary(min_size=n * RECORD_LEN + 64, max_size=n * RECORD_LEN + 64),
        )
    )


def _block_like_bytes():
    """Well-formed block encodings (0-3 records), and the same cut short or
    with up to 4 bytes overwritten or spliced in anywhere, header included."""
    well_formed = _well_formed_block_bytes()

    def damaged(raw):
        return st.tuples(
            st.integers(min_value=0, max_value=len(raw)), st.binary(max_size=4), st.booleans()
        ).map(lambda t: raw[: t[0]] + t[1] + (b"" if t[2] else raw[t[0] + len(t[1]) :]))

    return st.one_of(well_formed, well_formed.flatmap(damaged))


@settings(max_examples=200, deadline=None)
@given(data=st.one_of(st.binary(max_size=700), _block_like_bytes()))
def test_block_deserialize_arbitrary_bytes_roundtrips_or_parse_error(data):
    try:
        block = Block.deserialize(data)
    except ParseError:
        return
    assert block.serialize() == data


@settings(max_examples=100, deadline=None)
@given(data=_well_formed_block_bytes(max_records=8))
def test_block_read_from_bytes_keeps_them_and_signs_its_tags(data):
    block = Block.deserialize(data)
    assert block.serialize() == data
    assert block.sign_preimage() == _reference_preimage(
        block.block_id, [r.tag for r in block.records]
    )
    # The same block built from its decoded records encodes to the same bytes.
    rebuilt = Block(block.block_id, block.records, block.signature)
    assert rebuilt.serialize() == data and rebuilt == block
    assert rebuilt.sign_preimage() == block.sign_preimage()


@pytest.mark.parametrize("m", [1, 4, 100])
def test_sign_preimage_is_the_signed_header_then_the_tags(identity, m):
    # Every length up to m, partial blocks included, signed and read back.
    key = bytearray(32)
    for count in range(1, m + 1):
        records = [make_record(m, i, f"entry {i}".encode(), key) for i in range(count)]
        signed = sign_block(m, records, identity)
        for block in (signed, Block.deserialize(signed.serialize())):
            expected = block.serialize()[5:13] + b"".join(r.tag for r in block.records)
            assert block.sign_preimage() == expected
        assert verify_block_public(signed, identity.public_key) == STATUS_OK
    # One compiled struct per record count, and no more than the bound kept.
    cached = logchain._signed_fields.cache_info()
    assert cached.maxsize == logchain._SIGNED_FIELDS_CACHED
    assert cached.currsize <= logchain._SIGNED_FIELDS_CACHED


def test_read_block_equals_the_block_it_was_built_from(identity):
    built = _build_block(5, [b"first", b"x" * MAX_TEXT_LEN, b""], identity)
    read = Block.deserialize(built.serialize())
    assert read == built and hash(read) == hash(built)
    assert (read.block_id, read.signature) == (built.block_id, built.signature)
    assert read.records == built.records
    assert read.sign_preimage() == _reference_preimage(5, [r.tag for r in built.records])
    assert identity.verify(_reference_preimage(5, [r.tag for r in built.records]), built.signature)
    assert verify_block_public(read, identity.public_key) == STATUS_OK
    assert Block.deserialize(_build_block(6, [b"first"], identity).serialize()) != built


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
    leaked = bytes(block_key_at(RootLoggingKey(rlk_seed), leak_block, params))

    def hmac_only_ok(block: Block) -> bool:
        keys = [
            bytes(k)
            for k in walk_message_chain(
                RootLoggingKey(rlk_seed), block.block_id, len(block.records), params
            )
        ]
        return all(
            hmac_mod.new(
                keys[i],
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
