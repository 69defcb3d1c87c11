"""Tests for request kinds."""

from repro.mem.request import (
    KIND_BY_INDEX,
    KIND_DATA,
    KIND_INSTRUCTION,
    KIND_METADATA,
    RequestKind,
)


class TestRequestKind:
    def test_kind_codes_index_kinds(self):
        assert KIND_BY_INDEX[KIND_DATA] is RequestKind.DATA
        assert KIND_BY_INDEX[KIND_METADATA] is RequestKind.METADATA
        assert KIND_BY_INDEX[KIND_INSTRUCTION] is RequestKind.INSTRUCTION
