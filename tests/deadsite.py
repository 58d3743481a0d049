"""A strict dead-site check: once a site is down, no process it owns
resumes -- not while it is down, and not after it reboots either.

Ownership is traced here, apart from the site's own registry, so the
check also catches a process that protocol code starts some other way:

* a program's process belongs to the site its ``OsProcess`` is at;
* a site's recovery process belongs to the site;
* a process started during the network's delivery turn for a site (a
  request's ``serve:*`` process) belongs to that site;
* any other process belongs to the site of the process that started it
  (none when it was started outside a site's process and outside a
  delivery turn: the cluster's deadlock detector, the test itself).

When a site crashes, every live process that belongs to it is marked;
a marked process that resumes later fails the run on the spot.

Use as ``with dead_site_check(cluster): ...`` around everything that
runs the cluster.
"""

import contextlib

from repro.sim.process import Process


@contextlib.contextmanager
def dead_site_check(cluster):
    engine, network = cluster.engine, cluster.network
    started = {}     # process -> site of the process or turn that started it
    dead = {}        # process -> the site whose crash it outlived
    delivering = []  # the site whose delivery turn is running, if any

    def site_of(proc):
        for osproc in cluster.procs.values():
            if osproc.sim_proc is proc:
                return osproc.site_id
        return started.get(proc)

    spawn = engine.process

    def process(generator, name=None):
        parent = engine.current_process
        proc = spawn(generator, name=name)
        if parent is not None:
            owner = site_of(parent)
        else:
            owner = delivering[-1] if delivering else None
        if owner is not None:
            started[proc] = owner
        return proc

    hand_over = network._hand_over

    def hand_over_as(site_id, inbox):
        delivering.append(site_id)
        try:
            hand_over(site_id, inbox)
        finally:
            delivering.pop()

    def crash_of(site):
        crash = site.crash

        def crash_and_mark():
            if site.up:
                for proc in list(started) + [
                        osproc.sim_proc for osproc in cluster.procs.values()
                ]:
                    if proc is not None and proc.alive and (
                            site_of(proc) == site.site_id):
                        dead[proc] = site.site_id
            crash()
        return crash_and_mark

    def reboot_of(site):
        reboot = site.reboot

        def reboot_and_own(*args, **kwargs):
            proc = reboot(*args, **kwargs)
            if proc is not None:
                started[proc] = site.site_id
            return proc
        return reboot_and_own

    resume = Process._resume

    def checked_resume(proc, epoch, ok, value):
        if proc.alive and epoch == proc._epoch and proc in dead:
            raise AssertionError(
                "%r resumed after site %r crashed" % (proc, dead[proc]))
        return resume(proc, epoch, ok, value)

    engine.process = process
    network._hand_over = hand_over_as
    for site in cluster.sites.values():
        site.crash = crash_of(site)
        site.reboot = reboot_of(site)
    Process._resume = checked_resume
    try:
        yield
    finally:
        Process._resume = resume
        del engine.process, network._hand_over
        for site in cluster.sites.values():
            del site.crash, site.reboot
