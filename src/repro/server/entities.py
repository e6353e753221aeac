"""Avatars and the column table a server keeps their positions in.

A server serves its avatars from an :class:`AvatarTable`: their ``x``,
``y``, ``z`` and distance travelled are columns, one row per live session,
so a tick's MOVEs are applied as one pass over rows instead of one Python
call per message.  :meth:`AvatarTable.bind` gives an avatar its row when a
server adopts the session and :meth:`AvatarTable.unbind` copies the row back
onto the avatar when the server releases it; an unbound avatar carries its
own values.  So a handoff still moves one self-contained session, and
``Avatar.position`` reads the same either way.  Only this module knows the
column layout: readers ask the table for chunks (:meth:`AvatarTable.chunk_of`,
:meth:`AvatarTable.chunks`) or horizontal coordinates
(:meth:`AvatarTable.horizontal`).

Coordinates are signed 64-bit integers.  A MOVE to a position outside that
range is malformed input, like a text coordinate: it is dropped and counted,
and leaves the avatar's row as it stood.  Binding or writing such a position
raises ``OverflowError`` and changes nothing.
"""

from __future__ import annotations

import math
from array import array
from operator import attrgetter, itemgetter, sub
from itertools import compress
from typing import TYPE_CHECKING, Callable, Mapping, Optional, Sequence

import numpy as np

from repro.world.coords import CHUNK_SIZE, BlockPos

if TYPE_CHECKING:
    from repro.net.message import Message
    from repro.server.session import PlayerSession

#: a run of at least this many MOVEs is applied by the numpy pass, a shorter
#: one by the loop: the pass costs about thirty numpy calls, the loop one
#: Python iteration per MOVE.  Median µs per drain of K in-chunk MOVEs in a
#: ticking 150-player server, the two sides alternating tick by tick (400
#: ticks each), on a 2-core box (Python 3.11, numpy 2.4.6), loop / pass:
#: 5 MOVEs 18.0 / 37.3, 12 MOVEs 24.3 / 38.1, 25 MOVEs 39.9 / 52.4,
#: 48 MOVEs 64.9 / 69.9, 64 MOVEs 84.1 / 86.4, 80 MOVEs 103.7 / 103.8,
#: 96 MOVEs 194.2 / 177.8, 150 MOVEs 307.8 / 259.2; two more runs put the
#: meeting point at 64.  (Timed alone with warm caches, the two meet at ≈96.)
ARRAY_PASS_MIN_MOVES = 64

#: what converting a malformed client payload raises: a missing key, a value
#: ``int()`` rejects, or a coordinate past the 64-bit columns
MALFORMED = (KeyError, TypeError, ValueError, OverflowError)


class Avatar:
    """A player's in-world representation.

    ``position`` and ``distance_travelled`` live in :attr:`table`'s row
    :attr:`row` while a server serves the avatar, and on the avatar itself
    otherwise; both read and write the same either way.
    """

    def __init__(self, player_id: int, name: str, position: BlockPos) -> None:
        self.player_id = player_id
        self.name = name
        #: the table of the server that serves this avatar, or None when unbound
        self.table: Optional[AvatarTable] = None
        #: this avatar's row in :attr:`table` (meaningless when unbound)
        self.row = -1
        self._position = position
        #: blocks travelled since connecting (useful for workload statistics)
        self._distance_travelled = 0.0
        self.inventory_item = "stone"
        self.chat_messages_sent = 0
        self.blocks_placed = 0
        self.blocks_broken = 0

    @property
    def position(self) -> BlockPos:
        table = self.table
        if table is None:
            return self._position
        row = self.row
        return BlockPos(table.x[row], table.y[row], table.z[row])

    @position.setter
    def position(self, position: BlockPos) -> None:
        table = self.table
        if table is None:
            self._position = position
        else:
            row = self.row
            # Converted whole first: a position past 64 bits raises before any column changes.
            table.x[row], table.y[row], table.z[row] = array("q", position)

    @property
    def distance_travelled(self) -> float:
        table = self.table
        return self._distance_travelled if table is None else table.distance[self.row]

    @distance_travelled.setter
    def distance_travelled(self, distance: float) -> None:
        table = self.table
        if table is None:
            self._distance_travelled = distance
        else:
            table.distance[self.row] = distance


class AvatarTable:
    """The avatars one server serves, as columns: row ``i`` is ``avatars[i]``.

    Rows are dense: unbinding moves the last row into the freed one, so the
    columns hold exactly the live avatars and a reader can scan them whole.
    Positions are signed 64-bit integers.
    """

    def __init__(self) -> None:
        self.x = array("q")
        self.y = array("q")
        self.z = array("q")
        self.distance = array("d")
        self.avatars: list[Avatar] = []

    def bind(self, avatar: Avatar) -> None:
        """Give ``avatar`` the next row, holding the values it carried."""
        if avatar.table is not None:
            raise ValueError(f"avatar {avatar.player_id} is already bound to a table")
        # A position past 64 bits raises here, before any column grows.
        x, y, z = array("q", avatar._position)
        self.x.append(x)
        self.y.append(y)
        self.z.append(z)
        self.distance.append(avatar._distance_travelled)
        avatar.table, avatar.row = self, len(self.avatars)
        self.avatars.append(avatar)

    def unbind(self, avatar: Avatar) -> None:
        """Copy ``avatar``'s row back onto it and free the row."""
        if avatar.table is not self:
            raise ValueError(f"avatar {avatar.player_id} is not bound to this table")
        row = avatar.row
        avatar._position = avatar.position
        avatar._distance_travelled = self.distance[row]
        avatar.table, avatar.row = None, -1
        last = self.avatars.pop()
        columns = (self.x, self.y, self.z, self.distance)
        if last is not avatar:
            for column in columns:
                column[row] = column[-1]
            self.avatars[row], last.row = last, row
        for column in columns:
            column.pop()

    def chunk_of(self, avatar: Avatar) -> tuple[int, int]:
        """The chunk ``(cx, cz)`` that ``avatar``, bound to this table, stands in."""
        row = avatar.row
        return self.x[row] // CHUNK_SIZE, self.z[row] // CHUNK_SIZE

    def chunks(self) -> list[tuple[int, int]]:
        """The chunk ``(cx, cz)`` every row's avatar stands in, in row order."""
        return list(zip([x // CHUNK_SIZE for x in self.x], [z // CHUNK_SIZE for z in self.z]))

    def horizontal(self) -> tuple[np.ndarray, np.ndarray]:
        """Every row's ``x`` and ``z`` as ``float64`` arrays, in row order."""
        return np.array(self.x, dtype=np.float64), np.array(self.z, dtype=np.float64)

    def holds_exactly(self, avatars: Sequence[Avatar]) -> bool:
        """True when ``avatars`` and this table's rows pair up one to one.

        Every one is bound to this table at a row that holds it, and every
        column has exactly one entry per row.
        """
        rows = len(self.avatars)
        return (
            all(len(column) == rows for column in (self.x, self.y, self.z, self.distance))
            and sorted(avatar.row for avatar in avatars) == list(range(rows))
            and all(
                avatar.table is self and self.avatars[avatar.row] is avatar for avatar in avatars
            )
        )

    def apply_moves(
        self,
        senders: Sequence["PlayerSession"],
        moves: Sequence["Message"],
        moved: list[Avatar],
        note_dirty: Optional[Callable[..., None]],
    ) -> int:
        """Apply a run of MOVE messages, ``moves[i]`` sent by session ``senders[i]``, in order.

        Each steps its sender's avatar, bound to this table, to the
        payload's ``x``, ``y`` and ``z``, converted as ``int()`` converts
        them, and adds the step's horizontal length to the avatar's
        distance; a sender listed twice steps from where its previous step
        ended.  An avatar whose chunk changed is appended to ``moved``, and
        ``note_dirty((cx, cz), drift=length, source_player_id=...)`` is
        called for every MOVE when given; both in arrival order.  A run of
        :data:`ARRAY_PASS_MIN_MOVES` or more is one numpy pass; a shorter
        one is this loop.

        A MOVE whose payload is malformed (see :data:`MALFORMED`) is
        dropped: its avatar's row is untouched, and the MOVEs before and
        after it are applied.  Returns how many were dropped.
        """
        if len(moves) >= ARRAY_PASS_MIN_MOVES:
            avatars: list[Avatar] = list(map(_AVATAR, senders))
            stepped = self._move_array(avatars, list(map(_PAYLOAD, moves)))
            if stepped is not None:
                distances, cxs, czs, crossed = stepped
                moved.extend(compress(avatars, crossed))
                if note_dirty is not None:
                    for avatar, cx, cz, distance in zip(avatars, cxs, czs, distances):
                        note_dirty((cx, cz), drift=distance, source_player_id=avatar.player_id)
                return 0
            # A malformed payload: the loop takes the run and drops it.
        x_column, y_column, z_column, distance_column = self.x, self.y, self.z, self.distance
        hypot = math.hypot
        dropped = 0
        for session, message in zip(senders, moves):
            payload = message.payload
            avatar = session.avatar
            row = avatar.row
            old_x, old_z = x_column[row], z_column[row]
            try:
                x, z, y = int(payload["x"]), int(payload["z"]), int(payload["y"])
                x_column[row], z_column[row], y_column[row] = x, z, y
            except MALFORMED:
                # Put back what a write past the 64-bit columns left behind.
                x_column[row], z_column[row] = old_x, old_z
                dropped += 1
                continue
            distance = hypot(old_x - x, old_z - z)
            distance_column[row] += distance
            cx, cz = x // CHUNK_SIZE, z // CHUNK_SIZE
            if cx != old_x // CHUNK_SIZE or cz != old_z // CHUNK_SIZE:
                moved.append(avatar)
            if note_dirty is not None:
                note_dirty((cx, cz), drift=distance, source_player_id=avatar.player_id)
        return dropped

    def _move_array(
        self, avatars: Sequence[Avatar], payloads: Sequence[Mapping]
    ) -> Optional[tuple[list[float], list[int], list[int], list[bool]]]:
        """Step ``avatars`` to ``payloads`` as one numpy pass over views of the columns.

        Returns per step the length, the chunk ``cx`` and ``cz`` stepped
        into, and whether that chunk differs from the one stepped out of;
        or None, with nothing written, when a payload is malformed.
        """
        count = len(avatars)
        try:
            # fromiter converts a value that is not an int as int() does,
            # and fails where int() fails or the result is past 64 bits.
            new_x = np.fromiter(list(map(_X, payloads)), np.int64, count)
            new_y = np.fromiter(list(map(_Y, payloads)), np.int64, count)
            new_z = np.fromiter(list(map(_Z, payloads)), np.int64, count)
        except Exception:
            return None  # the caller's loop drops the malformed payloads
        rows = list(map(_ROW, avatars))
        index = np.fromiter(rows, np.intp, count)
        x_column = np.frombuffer(self.x, np.int64)
        y_column = np.frombuffer(self.y, np.int64)
        z_column = np.frombuffer(self.z, np.int64)
        old_x, old_z = x_column[index], z_column[index]
        repeated = len(set(rows)) < count
        if repeated:
            # A row's later step starts where its previous step ended, and
            # only its last step is written.
            order = np.argsort(index, kind="stable")
            again = index[order[1:]] == index[order[:-1]]
            later, earlier = order[1:][again], order[:-1][again]
            old_x[later], old_z[later] = new_x[earlier], new_z[earlier]
            last = np.ones(count, dtype=bool)
            last[earlier] = False
        # As the loop: the steps in Python ints (an int64 difference
        # can wrap), their lengths by math.hypot (numpy's hypot is libm's,
        # which can differ from CPython's in the last bit).
        steps_x = map(sub, old_x.tolist(), new_x.tolist())
        steps_z = map(sub, old_z.tolist(), new_z.tolist())
        distances = np.fromiter(map(math.hypot, steps_x, steps_z), np.float64, count)
        # Unbuffered, in step order: a row's steps add up as the loop adds them.
        np.add.at(np.frombuffer(self.distance, np.float64), index, distances)
        cx, cz = new_x // CHUNK_SIZE, new_z // CHUNK_SIZE
        crossed = (old_x // CHUNK_SIZE != cx) | (old_z // CHUNK_SIZE != cz)
        if repeated:
            index, new_x, new_y, new_z = index[last], new_x[last], new_y[last], new_z[last]
        x_column[index], y_column[index], z_column[index] = new_x, new_y, new_z
        return distances.tolist(), cx.tolist(), cz.tolist(), crossed.tolist()


# Field readers the numpy pass maps over a whole run (one C loop per field).
_AVATAR, _ROW, _PAYLOAD = attrgetter("avatar"), attrgetter("row"), attrgetter("payload")
_X, _Y, _Z = itemgetter("x"), itemgetter("y"), itemgetter("z")
