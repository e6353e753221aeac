"""Give a freshly built interest-mode server other dyconit budgets.

A server's :class:`InterestMap` always carries the production budgets
(``repro.interest``'s constants).  Tests that isolate one bound from another
swap in a map with their own budgets before any player joins; the new map
takes over the old one's chunk-crossing listener.
"""

from repro.interest import InterestMap


def rebudget_interest(server, **budgets) -> InterestMap:
    old = server.broadcast
    assert isinstance(old, InterestMap) and not old._subs, "swap before any player joins"
    interest = InterestMap(radius_chunks=old.radius_chunks, **budgets)
    listeners = server.chunks.center_listeners
    listeners[listeners.index(old.update_center)] = interest.update_center
    server.broadcast = interest
    return interest
