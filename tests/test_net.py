"""Tests for the genre latency bounds and protocol messages."""

import pytest

from repro.net.latency import GENRE_LATENCY_THRESHOLDS_MS
from repro.net.message import Message, MessageKind


def test_genre_thresholds_match_the_paper():
    assert GENRE_LATENCY_THRESHOLDS_MS["fps"] == 100.0
    assert GENRE_LATENCY_THRESHOLDS_MS["rpg"] == 500.0
    assert GENRE_LATENCY_THRESHOLDS_MS["rts"] == 1000.0


def test_message_validation():
    message = Message(MessageKind.MOVE, 3, {"x": 1, "y": 2, "z": 3})
    assert message.kind is MessageKind.MOVE
    with pytest.raises(ValueError):
        Message(MessageKind.MOVE, -1, {})


def test_messages_without_a_payload_do_not_share_one():
    first = Message(MessageKind.IDLE, 1)
    second = Message(MessageKind.IDLE, 2)
    assert first.payload == {} and first.payload is not second.payload
    first.payload["x"] = 1
    assert second.payload == {}


def test_stamping_a_sequence_keeps_the_other_fields():
    payload = {"x": 1, "y": 2, "z": 3}
    message = Message(MessageKind.MOVE, 3, payload)
    stamped = message._replace(sequence=9)
    assert message.sequence is None and stamped.sequence == 9
    assert (stamped.kind, stamped.player_id) == (MessageKind.MOVE, 3)
    assert stamped.payload is payload
    assert repr(stamped) == (
        "Message(kind=<MessageKind.MOVE: 'move'>, player_id=3, "
        "payload={'x': 1, 'y': 2, 'z': 3}, sequence=9)"
    )
    with pytest.raises(AttributeError):
        stamped.sequence = 10
