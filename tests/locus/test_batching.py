"""Phase-2 coalescing, the second user of the group-commit pump
(docs/COMMIT_BATCHING.md): what one ``trans.commit_batch`` carries.

Each test drives ``BatchingLayer.notify`` at site 1 for participant
site 2 directly.  The tids name no prepared transaction, so each
delivery is the idempotent no-op commit a recovery resend would be.
"""

from repro import Cluster, SystemConfig
from repro.core.ids import TransactionId
from repro.net import MessageKinds, RpcError

T1, T2, T3 = (TransactionId(0.5, 1, n) for n in (1, 2, 3))


def build(drop=lambda tids: False):
    """A batching cluster whose network records each commit batch sent
    to site 2 and loses the ones ``drop(tids)`` picks."""
    cluster = Cluster(site_ids=(1, 2, 3),
                      config=SystemConfig(commit_batching=True))
    sent = []

    def loss(message):
        if (message.kind != MessageKinds.COMMIT_BATCH
                or message.reply_to is not None):
            return False
        sent.append(message.body["tids"])
        return drop(message.body["tids"])

    cluster.network.loss_filter = loss
    return cluster, sent


def notify(cluster, tid, delay=0.0):
    """Start a phase-two sender; its process fails as the send does."""
    engine = cluster.engine

    def sender():
        if delay:
            yield engine.timeout(delay)
        yield from cluster.site(1).batching.notify(2, tid)
        return engine.now

    return engine.process(sender())


def test_a_late_notify_joins_the_next_batch():
    cluster, sent = build()
    early = [notify(cluster, T1), notify(cluster, T2)]
    late = notify(cluster, T3, delay=0.001)  # the first batch has left
    cluster.run()
    assert sent == [[T1, T2], [T3]]
    assert [p.failed for p in early + [late]] == [False] * 3
    assert early[0].value == early[1].value < late.value


def test_an_unreachable_target_fails_only_its_own_batch():
    """Every send of the first batch is lost (the idempotent resend
    too): its two members fail with the RPC error, the member that
    arrived meanwhile still goes out in the next batch."""
    cluster, sent = build(drop=lambda tids: T1 in tids)
    early = [notify(cluster, T1), notify(cluster, T2)]
    late = notify(cluster, T3, delay=0.001)
    cluster.run()
    assert sent == [[T1, T2], [T1, T2], [T3]]
    for proc in early:
        assert proc.failed and isinstance(proc.value, RpcError)
    assert not late.failed


def test_a_tid_queued_twice_is_sent_once():
    cluster, sent = build()
    procs = [notify(cluster, T2), notify(cluster, T1), notify(cluster, T2)]
    cluster.run()
    assert sent == [[T1, T2]]
    assert not [p for p in procs if p.failed]
