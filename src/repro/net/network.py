"""The simulated local-area network.

Models a 10 Mb Ethernet as a constant one-way latency plus a per-byte
transfer cost (no shared-medium contention; the paper attributes remote
costs to per-message latency, not bandwidth saturation).

Failure model:

* a **site** may be down (crashed) -- messages to or from it vanish;
* the network may be **partitioned** into groups; messages only flow
  within a group (section 4.3's "topology change").

Observers (the per-site transaction managers) register callbacks and are
notified when the reachable set changes, after a configurable detection
delay -- Locus's underlying topology-change protocol.
"""

from __future__ import annotations

from repro.sim import Mailbox, SimError, Stats

from .messages import Message

__all__ = ["Network", "NetworkError"]


class NetworkError(SimError):
    """Raised for malformed use of the network (not for message loss)."""


class Network:
    """Connects sites; delivery is point-to-point with simulated latency."""

    def __init__(self, engine, cost, detection_delay=0.1):
        self._engine = engine
        self._cost = cost
        self._mailboxes = {}      # site_id -> Mailbox
        self._down = set()        # crashed site ids
        self._partition = {}      # site_id -> group label (default one group)
        self._observers = []      # callables(event_dict)
        self._detection_delay = detection_delay
        self.stats = Stats()
        # Deterministic fault-injection hook for tests: when set, a
        # message for which ``loss_filter(message)`` is truthy is
        # dropped (counted in net.dropped) instead of delivered.
        self.loss_filter = None

    # ------------------------------------------------------------------
    # attachment
    # ------------------------------------------------------------------

    def attach(self, site_id) -> Mailbox:
        """Register a site and return its receive mailbox."""
        if site_id in self._mailboxes:
            raise NetworkError("site %r already attached" % (site_id,))
        box = Mailbox(self._engine)
        self._mailboxes[site_id] = box
        self._partition[site_id] = 0
        return box

    @property
    def site_ids(self):
        return sorted(self._mailboxes)

    # ------------------------------------------------------------------
    # reachability and failures
    # ------------------------------------------------------------------

    def reachable(self, a, b) -> bool:
        """Can ``a`` currently exchange messages with ``b``?"""
        if a not in self._mailboxes or b not in self._mailboxes:
            return False
        if a in self._down or b in self._down:
            return False
        return self._partition[a] == self._partition[b]

    def is_up(self, site_id) -> bool:
        """Is the site attached and not crashed?"""
        return site_id in self._mailboxes and site_id not in self._down

    def crash_site(self, site_id):
        """Take a site off the network; queued messages to it are lost."""
        self._require(site_id)
        if site_id in self._down:
            return
        self._down.add(site_id)
        self._mailboxes[site_id].close()
        self._notify({"type": "site_down", "site": site_id})

    def restart_site(self, site_id):
        """Bring a crashed site back onto the network."""
        self._require(site_id)
        if site_id not in self._down:
            return
        self._down.discard(site_id)
        self._mailboxes[site_id].reopen()
        self._notify({"type": "site_up", "site": site_id})

    def partition(self, *groups):
        """Split the network: each argument is an iterable of site ids.

        Sites not mentioned keep their current group only if it remains
        consistent; normally callers list every site.
        """
        labels = {}
        for label, group in enumerate(groups):
            for site_id in group:
                self._require(site_id)
                if site_id in labels:
                    raise NetworkError("site %r in two partitions" % (site_id,))
                labels[site_id] = label + 1
        for site_id in self._mailboxes:
            self._partition[site_id] = labels.get(site_id, 0)
        self._notify({"type": "partition", "groups": [sorted(g) for g in groups]})

    def heal_partition(self):
        """Restore full connectivity between all sites."""
        for site_id in self._mailboxes:
            self._partition[site_id] = 0
        self._notify({"type": "heal"})

    def subscribe(self, callback):
        """Register for topology-change events (delivered after the
        detection delay, like Locus's network protocols)."""
        self._observers.append(callback)

    def _notify(self, event):
        for cb in list(self._observers):
            self._engine.schedule(self._detection_delay, cb, dict(event))

    # ------------------------------------------------------------------
    # transmission
    # ------------------------------------------------------------------

    def send(self, message: Message):
        """Transmit; silently drops when src/dst cannot communicate
        (the sender learns through its own RPC timeout)."""
        self._require(message.src)
        if message.dst not in self._mailboxes:
            raise NetworkError("unknown destination %r" % (message.dst,))
        self.stats.incr("net.messages")
        self.stats.incr("net.bytes", message.nbytes)
        # Per-kind message census: what phase-2 coalescing saves is an
        # argument about message *counts by kind*, so count them here.
        self.stats.incr("net.msg." + message.kind)
        obs = self._engine.obs
        obs.observe(message.src, "net.msg.bytes", message.nbytes)
        if not self.reachable(message.src, message.dst):
            self.stats.incr("net.dropped")
            return
        if self.loss_filter is not None and self.loss_filter(message):
            self.stats.incr("net.dropped")
            return
        delay = self._cost.message_time(message.nbytes)
        obs.observe(message.src, "net.msg.latency", delay)
        self._engine.schedule(delay, self._deliver, message)

    def _deliver(self, message: Message):
        # Re-check at delivery time: the destination may have crashed or
        # been partitioned away while the message was in flight.
        if not self.reachable(message.src, message.dst):
            self.stats.incr("net.dropped")
            return
        self._mailboxes[message.dst].put(message)

    def _require(self, site_id):
        if site_id not in self._mailboxes:
            raise NetworkError("unknown site %r" % (site_id,))
