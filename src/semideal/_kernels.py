"""The additive-closure kernel: ``additive_closure(gens, limit)`` has bit i
set iff i <= limit is a sum of ``gens`` (bit 0 always). It shift-ors a big
int: one pass per generator suffices because addition commutes, and the
doubled shifts g, 2g, 4g, ... cover every multiple of g within the window.
Generators are taken in ascending order, and one whose bit is already set is
skipped: it is a sum of smaller ones, so shifting by it adds nothing.
"""


def additive_closure(gens, limit):
    if limit < 0:
        raise ValueError("limit must be nonnegative")
    full = (1 << (limit + 1)) - 1
    r = 1
    for g in sorted({int(g) for g in gens}):
        if g <= 0:
            raise ValueError("generators must be positive")
        if r >> g & 1:
            continue
        shift = g
        while shift <= limit:
            r |= (r << shift) & full
            shift <<= 1
    return r


def backend_name():
    return "pure"
