"""Deliberately nondeterministic helpers for the sanitizer fixture.

The violations live here, one module away from the protocol class that
calls them: simlint flags each call where it is made, so hiding
``random``/``time`` behind an innocent-looking helper does not help.
"""

import random
import time


def jitter():
    return random.random() * 1e-6


def stamp():
    return time.time()
