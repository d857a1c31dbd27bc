"""Moment-method transport of charged vortex wave packets through lens lattices.

The library propagates the transverse second-order moments (mean square
radius, its rate, mean square transverse velocity) and the longitudinal
state of a Laguerre-Gaussian packet through sequences of drifts and
axisymmetric electromagnetic lenses, evaluates waist-matching and transport
criteria, computes first-order corrections from linear field gradients, and
solves the inverse problems (matching field, direct-capture lens).  An
independent Runge-Kutta and quadrature oracle layer cross-checks every
closed form.
"""

import ctypes
import os

__version__ = "0.1.0"

# glibc's mallopt parameter numbers, and the values the hint gives them
_M_TOP_PAD, _TOP_PAD_BYTES = -2, 2 << 20
_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_BYTES = -3, 32 << 20  # the most glibc's own adaptation reaches on 64-bit
_USER_SETTINGS = ("MALLOC_TOP_PAD_", "MALLOC_MMAP_THRESHOLD_")


def _pad_heap_top() -> None:
    """Ask glibc's malloc to keep 2 MiB of freed heap top instead of returning it.

    The oracle's 16,385-point temporaries are freed at the end of each call and,
    without the pad, trimmed off the heap, so the next call faults those pages in
    again.  Setting the pad also stops glibc from raising its mmap threshold as
    larger blocks are freed, which would leave each RK4 block's forcing to a fresh
    mmap on every call; the threshold is therefore set to the 32 MiB that this
    adaptation tops out at.  The hint acts on the whole process and changes no
    computed value.  It is skipped when the environment sets either value for
    glibc (MALLOC_TOP_PAD_, MALLOC_MMAP_THRESHOLD_) or any glibc.malloc tunable, so
    the user's own setting wins, and it does nothing where the C library has no
    mallopt (musl, macOS, Windows).
    """
    if any(name in os.environ for name in _USER_SETTINGS) or "glibc.malloc." in os.environ.get("GLIBC_TUNABLES", ""):
        return
    try:
        mallopt = ctypes.CDLL(None).mallopt
        mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
        mallopt.restype = ctypes.c_int
        mallopt(_M_TOP_PAD, _TOP_PAD_BYTES)
        mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_BYTES)
    except (OSError, AttributeError, TypeError):
        pass


_pad_heap_top()
