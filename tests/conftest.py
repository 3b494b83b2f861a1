import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from torifan import catalog, classify


@pytest.fixture(scope="session")
def surface_report():
    """(report, elapsed seconds) of the weak del Pezzo enumeration."""
    t0 = time.monotonic()
    report = classify.enumerate_weak_del_pezzo()
    return report, time.monotonic() - t0


@pytest.fixture(scope="session")
def threefold_report_b3():
    t0 = time.monotonic()
    report = classify.enumerate_weakened_threefolds(3)
    return report, time.monotonic() - t0


@pytest.fixture(scope="session")
def threefold_report_b4():
    t0 = time.monotonic()
    report = classify.enumerate_weakened_threefolds(4)
    return report, time.monotonic() - t0


@pytest.fixture(scope="session")
def non_weak_fibers():
    """Surfaces that are not weak Fano: F3 to F6, then four seeded one-point
    blow-ups of the 16 weak del Pezzo surfaces, one per isomorphism class."""
    import random

    from torifan.isomorphism import canonical_key
    from torifan.primitive import is_weak_fano

    from _oracles import hirzebruch_fan

    blown = {}
    for nf in catalog.surfaces():
        for cone in nf.fan.max_cones:
            fan = classify.blow_up(nf.fan, cone)
            if not is_weak_fano(fan):
                blown.setdefault(canonical_key(fan), fan)
    sample = random.Random(11).sample(sorted(blown), 4)
    return [hirzebruch_fan(a) for a in range(3, 7)] + [blown[key] for key in sample]


@pytest.fixture(scope="session")
def flop_corpus():
    """``_oracles.blow_up_flop_corpus(4, 250, 6, 10)``, built once: 687
    classes off the bundle family, 120 of them weak Fano and 3 of those not
    projective. A test that must compute a fact afresh takes a fresh copy."""
    from _oracles import blow_up_flop_corpus

    return tuple(blow_up_flop_corpus(seed=4, walks=250, steps=6, max_rays=10))
