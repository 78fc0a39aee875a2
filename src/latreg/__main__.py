"""Process entry of the ``latreg`` command.

Both ``python -m latreg`` and the ``latreg`` console script run
:func:`run`.  It freezes the garbage collector's view of the heap once
numpy and latreg are imported, then runs :func:`latreg.cli.main`.  The
objects that import made (about 22,000) move to the permanent
generation, so neither a collection during the request nor the full
collections of interpreter exit walk them again, and a collection in a
forked worker of the split read does not copy their pages.  That takes
about 25 ms off the exit of every request.  Objects made by the request
itself stay collectable, so ``-X dev`` still reports a file that it
leaks.
"""

import gc
import sys

from .cli import main


def run() -> int:
    """Run one command-line request in this process and return its exit
    code.  Call it once per process, after every import: the freeze is
    never undone."""
    gc.freeze()
    return main()


if __name__ == "__main__":
    sys.exit(run())
