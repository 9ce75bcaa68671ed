"""Every registered law holds on seeded random graphs (fuzz smoke).

One pytest case per law keeps failures attributable: a red
``test_law_holds[evolution-partition]`` names the broken identity
directly, and the report carries the ``repro fuzz`` replay line.
"""

import pytest

from repro.testing import law_registry, run_fuzz
from repro.testing.oracle import DIFFERENTIAL_LAW_NAMES

pytestmark = pytest.mark.fuzz

LAW_NAMES = sorted(law_registry())


def test_registry_covers_paper_identities():
    # The tentpole promises ~15 metamorphic identities plus the
    # differential oracle laws.
    assert len(LAW_NAMES) >= 15
    assert set(DIFFERENTIAL_LAW_NAMES) <= set(LAW_NAMES)


def test_registry_is_complete():
    assert len(law_registry()) >= 23


def test_laws_carry_descriptions():
    for law in law_registry().values():
        assert law.name
        assert law.description
        assert isinstance(law.hostile_safe, bool)


@pytest.mark.parametrize("law_name", LAW_NAMES)
def test_law_holds(law_name, test_seed):
    report = run_fuzz(seed=test_seed, cases=24, laws=[law_name], shrink=False)
    assert report.ok, report.summary() + "".join(
        f"\n{failure}" for failure in report.failures
    )
