"""Differential test: settled per-chunk routing against the per-event executable spec.

``ReferenceRouter`` is the routing ``InterestMap`` shipped before its index
knew the tier: every event visits every subscriber and rediscovers footprint
and tier from the subscriber's center.  It is slow and obviously right.  The
state machine drives it beside a real ``InterestMap`` and requires identical
results from every call and identical per-subscriber state — ``far_drift``
compared with ``==``, because a re-associated float sum could flip a far flush.

Reading a subscription settles the map, so the state comparison is a rule of
its own (and the teardown), not an invariant: were it run after every step, no
``subscribe``/``unsubscribe``/``update_center`` would ever meet pending entries.
"""

from dataclasses import dataclass

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.interest import NEAR_RADIUS_CHUNKS, InterestMap
from repro.world.coords import CHUNK_SIZE, BlockPos

from hypothesis_profiles import examples


class ReferenceRouter(InterestMap):
    """The executable spec of ``_route``: per event, per subscriber, from centers."""

    def _route(self, chunk, drift, source_player_id):
        delivered = False
        for sub in self._subs.values():
            distance = max(abs(chunk[0] - sub.center[0]), abs(chunk[1] - sub.center[1]))
            if distance > self.radius_chunks or sub.player_id == source_player_id:
                continue  # not subscribed / a player needs no update about itself
            delivered = True
            if distance <= NEAR_RADIUS_CHUNKS:
                sub.near_entries += 1
            else:
                sub.far_entries += 1
                sub.far_drift += drift
                if sub.far_first_tick is None:
                    sub.far_first_tick = self._tick
        if delivered:
            self._entries_encoded += 1


@dataclass
class Avatar:
    position: BlockPos


@dataclass
class Session:
    player_id: int
    avatar: Avatar
    updates: int = 0

    def record_updates(self, count=1):
        self.updates += count


PLAYERS = (1, 2, 3)
STRANGER = 99  # never subscribed
COORDS = st.integers(-1, 1)  # tight, so footprints overlap; radius 1 still leaves chunks outside
CHUNKS = st.tuples(COORDS, COORDS)
DRIFTS = st.sampled_from([0.0, 1.0, 2**0.5, 0.1, 7.3])
EVENTS = st.lists(st.tuples(CHUNKS, DRIFTS), min_size=1, max_size=4)


class RoutingMachine(RuleBasedStateMachine):
    @initialize(radius=st.integers(1, 3))
    def build(self, radius):
        self.maps = [cls(radius) for cls in (InterestMap, ReferenceRouter)]
        self.batches = ([], [])
        for interest, sink in zip(self.maps, self.batches):
            interest.record_dirty_log = True
            interest.batch_sink = sink.append
        self.tick = 0
        self.subscribed = set()

    def both(self, call):
        """Apply ``call`` to the real map and the reference; results must agree."""
        real, reference = (call(interest) for interest in self.maps)
        assert real == reference
        return real

    def someone(self, data, *others):
        """Mostly a subscribed player: rules should rarely be no-ops."""
        return data.draw(st.sampled_from([*sorted(self.subscribed), *others]))

    @precondition(lambda self: len(self.subscribed) < len(PLAYERS))
    @rule(data=st.data(), chunk=CHUNKS)
    def subscribe(self, data, chunk):
        player = data.draw(st.sampled_from(sorted(set(PLAYERS) - self.subscribed)))
        self.subscribed.add(player)
        position = BlockPos(chunk[0] * CHUNK_SIZE + 3, 65, chunk[1] * CHUNK_SIZE + 9)
        self.both(lambda m: m.subscribe(Session(player, Avatar(position))).center)

    @rule(data=st.data())
    def unsubscribe(self, data):
        player = self.someone(data, STRANGER)
        self.subscribed.discard(player)
        self.both(lambda m: m.unsubscribe(player))

    @rule(data=st.data(), center=CHUNKS)
    def update_center(self, data, center):
        player = self.someone(data, STRANGER)
        self.both(lambda m: m.update_center(player, center))

    @rule(data=st.data(), events=EVENTS, external=st.booleans())
    def note(self, data, events, external):
        """A burst, as a tick's message drain or a round's relay produces."""
        for chunk, drift in events:
            source = self.someone(data, None, STRANGER)
            self.both(
                lambda m: (m.note_external if external else m.note_dirty)(
                    chunk, drift, source
                )
            )

    @precondition(lambda self: self.subscribed)
    @rule(data=st.data())
    def hand_over(self, data):
        donor = self.someone(data, STRANGER)
        state = self.both(lambda m: m.export_state(donor))
        if state is not None:
            receiver = self.someone(data)
            self.both(lambda m: m.import_state(receiver, state))

    @rule(shed=st.one_of(st.none(), st.integers(0, 3)))
    def flush(self, shed):
        shed_far = None if shed is None else (lambda due: min(shed, due))
        self.both(lambda m: m.flush(self.tick, shed_far=shed_far))
        self.both(lambda m: m.drain_dirty_log())
        self.tick += 1

    @rule()
    def same_state_everywhere(self):
        for player in PLAYERS:
            real, reference = (m.subscription(player) for m in self.maps)
            assert (real is None) == (reference is None) == (player not in self.subscribed)
            if real is not None:
                assert real.center == reference.center
                assert real.export_state() == reference.export_state()
                assert real.session.updates == reference.session.updates
        assert self.batches[0] == self.batches[1]

    def teardown(self):
        self.same_state_everywhere()

    @invariant()
    def index_matches_recomputation(self):
        assert self.maps[0].verify_index()


TestRoutingMatchesThePerEventSpec = RoutingMachine.TestCase
TestRoutingMatchesThePerEventSpec.settings = settings(
    max_examples=examples(150), stateful_step_count=40
)


def test_a_held_subscription_is_refreshed_by_the_next_read(make_session):
    """No reader sees unsettled near-tier state."""
    interest = InterestMap(radius_chunks=2)
    interest.subscribe(make_session(1))
    held = interest.subscription(1)
    interest.note_dirty((1, 0))
    interest.note_dirty((1, 0))
    interest.note_dirty((0, 0), source_player_id=1)  # own action: not delivered
    assert interest.subscription(1).near_entries == 2
    assert held.near_entries == 2
    interest.note_dirty((0, 1))
    assert interest.export_state(1).near_entries == 3


def test_unsubscribe_hands_over_entries_noted_earlier_in_the_tick(make_session):
    """A migration handoff must not lose what the message drain just routed."""
    interest = InterestMap(radius_chunks=2)
    interest.subscribe(make_session(1))
    interest.subscribe(make_session(2))
    for _ in range(4):
        interest.note_dirty((0, 0), source_player_id=2)
    state = interest.unsubscribe(1)
    assert state.near_entries == 4
    assert interest.flush(0).near_flushes == 0, "player 2 was told about its own action"
