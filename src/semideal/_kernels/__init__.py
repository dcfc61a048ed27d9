"""The additive-closure kernel: ``additive_closure(gens, limit) -> int``.

One pure Python implementation, in ``closure_py``.
"""

from .closure_py import additive_closure


def backend_name():
    return "pure"
