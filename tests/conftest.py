"""Suite-wide fixture: the runtime checks (:mod:`repro.checks`).

The whole test suite runs with wire-protocol validation ON: every
:class:`~repro.net.message.Message` constructed anywhere — cluster
integration tests, churn runs, baselines — is checked against the
registry in :mod:`repro.net.protocol`, so payload drift fails loudly.
Unit tests that deliberately send ad-hoc kinds opt out locally with
``checks.configure(validate=False)``.

The suite also runs with message isolation at ``freeze``: every delivery
hands the receiver a read-only view of the payload, so a handler that
mutates what it received raises here rather than silently diverging from
the paper's TCP-serialized deployment.

Schedule fuzz (``REPRO_SCHEDULE_FUZZ=shuffle|reverse`` plus
``REPRO_SCHEDULE_FUZZ_SEED=N``) and resource tracking
(``REPRO_TRACK_RESOURCES=1``) apply suite-wide exactly as the environment
sets them.  Tests that pin a specific tie-break order (golden transcript
digests) wrap simulator construction in ``checks.configure(fuzz="off")``;
tests that need a specific level of anything wrap construction in
``checks.configure(...)``, which restores the suite's record on exit, so
one test cannot change the mode the next one runs under.
"""

import pytest

from repro import checks


@pytest.fixture(autouse=True, scope="session")
def _runtime_checks():
    env = checks.from_env()
    with checks.configure(
        validate=True,
        isolation=checks.ISOLATE_FREEZE,
        fuzz=env.fuzz,
        fuzz_seed=env.fuzz_seed,
        track_resources=env.track_resources,
    ):
        yield
