"""The avatar table: its readers, and the 64-bit range of its position columns."""

import pytest

from repro.server.entities import Avatar, AvatarTable
from repro.world.coords import CHUNK_SIZE, BlockPos

PAST = (BlockPos(2**63, 65, 0), BlockPos(0, 65, -(2**63) - 1), BlockPos(0, 2**64, 0))


def bound(*positions):
    table = AvatarTable()
    avatars = [Avatar(index, f"p{index}", position) for index, position in enumerate(positions)]
    for avatar in avatars:
        table.bind(avatar)
    return table, avatars


def test_the_readers_agree_with_the_avatars_positions():
    table, avatars = bound(BlockPos(-1, 65, 40), BlockPos(2**62, 70, -(2**62)), BlockPos(15, 1, 16))
    chunks = [(a.position.x // CHUNK_SIZE, a.position.z // CHUNK_SIZE) for a in avatars]
    assert table.chunks() == chunks
    assert [table.chunk_of(avatar) for avatar in avatars] == chunks
    xs, zs = table.horizontal()
    assert xs.tolist() == [float(a.position.x) for a in avatars]
    assert zs.tolist() == [float(a.position.z) for a in avatars]
    assert table.holds_exactly(avatars)
    table.unbind(avatars[0])  # the last row moves into the freed one
    assert table.chunks() == [chunks[2], chunks[1]]
    assert table.holds_exactly(avatars[1:]) and not table.holds_exactly(avatars)


@pytest.mark.parametrize("position", PAST)
def test_binding_a_position_past_64_bits_raises_and_adds_no_row(position):
    table, avatars = bound(BlockPos(1, 65, 1))
    with pytest.raises(OverflowError):
        table.bind(Avatar(9, "far", position))
    assert table.holds_exactly(avatars)


@pytest.mark.parametrize("position", PAST)
def test_writing_a_position_past_64_bits_raises_and_keeps_the_row(position):
    _, (avatar,) = bound(BlockPos(1, 65, 1))
    with pytest.raises(OverflowError):
        avatar.position = position
    assert avatar.position == BlockPos(1, 65, 1)
