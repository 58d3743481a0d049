"""R*-style tree-structured commit (section 7.5 comparison).

The paper contrasts its commit topology with R*'s: "because an R*
transaction can constitute a tree of processes, the commit protocol
follows this model: at each level of the tree, when a process receives
a *prepare to commit* message, it propagates the message to all of its
subordinate processes, and collects *prepared* messages for eventual
return to its parent.  This differs from Locus, where ... the exchange
of messages is between the kernels at the coordinator site and the
kernels at all participant sites; this protocol involves less latency."

This module implements the tree topology over the same participant
machinery (same logs, same recovery) so the latency claim can be
measured: select it with ``SystemConfig(commit_protocol="tree")``.
Participants are arranged into a balanced tree of the configured
branching factor; prepares propagate down it level by level and
prepared acknowledgements aggregate back up, paying one round trip per
level where the Locus protocol pays one in total.
"""

from __future__ import annotations

from repro.locus.errors import TransactionAborted
from repro.net import RpcError

from .twophase import abort_at_participants, phase_two, prepare_participant

__all__ = ["run_tree_commit", "handle_tree_prepare", "TREE_PREPARE",
           "build_tree"]

TREE_PREPARE = "trans.tree_prepare"


def build_tree(participants, branching):
    """A balanced tree (list-of-levels encoding) over the participants.

    Returns nested nodes ``{"site": s, "files": [...], "children":
    [...]}`` -- the files map is attached by the caller.
    """
    if branching < 1:
        raise ValueError("branching must be >= 1")
    nodes = [{"site": s, "files": [], "children": []} for s in participants]
    if not nodes:
        return []
    roots = []
    for index, node in enumerate(nodes):
        if index == 0:
            roots.append(node)
            continue
        parent = nodes[(index - 1) // branching]
        parent["children"].append(node)
    return roots


def run_tree_commit(site, txn):
    """Generator: the tree-topology analogue of
    :func:`~repro.core.twophase.run_two_phase_commit`."""
    from .transaction import TxnState

    txn.state = TxnState.PREPARING
    txn.coordinator_site = site.site_id

    files = sorted(txn.files())
    by_site = {}
    for vol_id, ino, storage_site in files:
        by_site.setdefault(storage_site, []).append((vol_id, ino))
    participants = sorted(by_site) or [site.site_id]
    txn.participants = tuple(participants)

    yield from site.coordinator_log.append(
        {"type": "txn", "tid": txn.tid, "files": files, "status": "unknown"}
    )

    # Arrange every participant (coordinator first) into the tree and
    # attach each node's local file list.
    ordered = [site.site_id] + [s for s in participants if s != site.site_id]
    roots = build_tree(ordered, branching=site.config.tree_branching)
    _attach_files(roots, by_site)

    try:
        # The coordinator is the root: prepare here, then propagate.
        read_only = yield from _prepare_subtree(
            site, txn.tid, roots[0], site.site_id)
    except (RpcError, TransactionAborted, Exception) as exc:  # noqa: BLE001
        yield from site.coordinator_log.append_in_place(
            {"type": "status", "tid": txn.tid, "status": "aborted"}
        )
        txn.state = TxnState.ABORTING
        txn.abort_reason = "tree prepare failed: %s" % exc
        yield from abort_at_participants(site, txn.tid, participants)
        txn.state = TxnState.ABORTED
        raise TransactionAborted(txn.tid, txn.abort_reason)

    yield from site.coordinator_log.append_in_place(
        {"type": "status", "tid": txn.tid, "status": "committed"}
    )
    txn.state = TxnState.COMMITTED
    # Phase two reuses the flat machinery (recovery-compatible) and, as
    # there, skips the READ_ONLY voters: they hold nothing to apply.
    live = [p for p in participants if p not in read_only]
    site.process(phase_two(site, txn, live), "tree-phase2@%s" % site.site_id)


def _attach_files(nodes, by_site):
    for node in nodes:
        node["files"] = by_site.get(node["site"], [])
        _attach_files(node["children"], by_site)


def _prepare_subtree(site, tid, node, coordinator):
    """Generator: propagate prepares to the subordinate subtrees
    immediately (R* forwards before doing its own work), prepare the
    local files concurrently, and collect every prepared response.
    Returns the subtree's sites that voted READ_ONLY."""
    from repro.sim import AllOf

    workers = [
        site.process(_forward_prepare(site, tid, child, coordinator),
                     "tree-prepare@%s" % child["site"])
        for child in node["children"]
    ]
    read_only = set()
    if node["files"]:
        reply = yield from prepare_participant(
            site, tid, node["files"], coordinator)
        if reply.get("read_only"):
            read_only.add(site.site_id)
    if workers:
        for sites in (yield AllOf(site.engine, workers)):
            read_only.update(sites)
    return read_only


def _forward_prepare(site, tid, child, coordinator):
    reply = yield from site.rpc.call(
        child["site"], TREE_PREPARE,
        {"tid": tid, "node": child, "coordinator": coordinator},
    )
    return reply["read_only_sites"]


def handle_tree_prepare(site, body, _src):
    """Participant handler: prepare locally, recurse into the subtree."""
    yield site.engine.charge(site.cost.instr(site.cost.trans_msg_instr))
    read_only = yield from _prepare_subtree(
        site, body["tid"], body["node"], body["coordinator"]
    )
    return {"prepared": True, "read_only_sites": sorted(read_only)}
