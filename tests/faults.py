"""An injected fault for the exit-4 tests, imported the way tests import conftest.

BUG_LINE is a good neutral record.  broken(reduce_orbits) moves the reduced
element of every row holding BUG_ENTRY off its normal form, so _row_status
finds that row's representative residual past its ceiling: an invariant
violation (exit 4) that does not rest on a defect of the kernel.  slice has
no frames and answers the row from its invariants.
"""
from pathlib import Path

import numpy as np

BUG_ENTRY = 0.8125
BUG_LINE = '{"id":"bug","c":[0.8125,0,0,0,0,0.8125]}\n'


def broken(reduce_orbits):
    """reduce_orbits, with the reduced element of each row holding BUG_ENTRY
    moved by 1 in every entry; every other row keeps its bits."""

    def reduce(W, *args, **kwargs):
        b = reduce_orbits(W, *args, **kwargs)
        hit = (np.asarray(W) == BUG_ENTRY).any(axis=1)
        return b._replace(reduced=np.where(hit[:, None], b.reduced + 1.0, b.reduced))

    return reduce


# The process entry of the CLI with the fault in place: python -c BROKEN_CONSOLE args...
BROKEN_CONSOLE = (
    f"import sys; sys.path.insert(0, {str(Path(__file__).parent)!r}); "
    "import faults, lbo.cli as cli; cli.reduce_orbits = faults.broken(cli.reduce_orbits); "
    "sys.exit(cli.console())"
)
