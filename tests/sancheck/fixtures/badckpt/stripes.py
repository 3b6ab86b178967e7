"""An impure "kernel" module (fixture).

The module is named ``stripes`` so the flow analyzer treats it as an
encode/reconstruct kernel; this one reads the wall clock, which is
simlint's ``wallclock`` finding in a kernel as anywhere else.
"""

import time


def encode_stripe(block):
    started = time.time()
    return block, started
