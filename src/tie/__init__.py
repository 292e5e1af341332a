"""tie: instruction-conditioned token-pair scoring for information extraction.

A sentence is scored as an |x| x |x| x K grid of span/link decisions, where
the K label channels come from the slots of a per-dataset instruction. The
trainer interleaves batches from multiple source datasets and gates each
layer's update on the sign of its gradient agreement with the previous
batch, then finetunes plainly on a target dataset.
"""

import ctypes

__version__ = "0.1.0"

_M_TOP_PAD = -2   # glibc's mallopt parameter number
_TOP_PAD = 16 << 20


def _keep_heap_top() -> None:
    """Ask glibc to keep ``_TOP_PAD`` free bytes at the top of the heap.

    Without it, the allocator gives the free heap top back to the OS at the
    end of every training step, and the next step's grid-sized temporaries
    fault those pages in again. The C library is looked up among the symbols
    already loaded into the process; without glibc's ``mallopt`` this does
    nothing. The arithmetic is unchanged.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt(_M_TOP_PAD, _TOP_PAD)


_keep_heap_top()
