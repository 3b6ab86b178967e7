"""End-to-end host-time benchmark of the repository (``BENCHMARK.json``).

Six workloads time what a user of the system waits on — checkpoint/restore
cycles through the whole protocol stack, a supervised SKT-HPL recovery and
the smoke chaos campaign on its three engines — from outside, through
public entry points only.  See ``README.md`` in this directory.
"""
