"""Set-up of a fresh process: import semideal and its CLI, finish lazy warm-ups.

Run as a script it prints the seconds this took, measured from its own first
line; ``run.py`` starts it several times and reports the median, scaled
to the reference machine speed, as ``setup_s``. ``run.py`` also calls
``warm_up()`` before it times anything.
"""

import time

T0 = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

INSTANCE_IDS = ("n0", "gcd", "gcd-supported(2,3)", "gcd-supported(2,3,5,7)", "dvs", "lagrassa", "quad5")


def warm_up():
    import semideal.cli  # noqa: F401
    from semideal import check_law, instance

    for spec in INSTANCE_IDS:
        instance(spec)
    # More trials than the quad5 grid holds, so the law draws from the lazily
    # built quad5 sampling pool.
    check_law(instance("quad5"), "dedekind2-law-1", trials=60, seed=0)


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
    warm_up()
    print(repr(time.perf_counter() - T0))
