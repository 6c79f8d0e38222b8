"""The validating value records: ``_replace`` and ``_make`` build through
the constructor, so they check and normalise what it does."""

import math
import re

import pytest

from zenoline import ensemble, partition, scatter, specfun
from zenoline.errors import DomainError

LJ = scatter.PotentialSpec()

# (record, constructor arguments, a valid replacement, an invalid one,
# the constructor's message for it)
RECORDS = [
    (specfun.BoseIntegralResult, (1.5, 7), {"value": 2.5}, {"value": math.inf},
     "integral value is not finite"),
    (partition.GlobalDistribution, (0.01, 2.0, 0.0, 50), {"kappa": 3.0},
     {"b": 0.0}, "b must be positive, got 0.0"),
    (scatter.PotentialSpec, ("morse", {"a": 4.0}), {"params": {"r0": 1.2}},
     {"family": "square_well"}, "unknown potential family 'square_well'"),
    (scatter.ScatterProblem, (LJ, 10.0, 0.1), {"alpha": 0.2}, {"B": 1.0},
     "impact parameter B must be finite and exceed 1, got 1.0"),
    (scatter.StationaryPair, (1.1, 3.0, 0.5, 1.0), {"E_max": 5.0},
     {"E_max": 0.2}, "E_max < E_min in stationary pair"),
    (scatter.CriticalSummary, (0.3, 0.27, 0.5, {"B": 100.0}), {"Z_cr": 0.4},
     {"Z_cr": 1.0}, "Z_cr = 1.0 outside (0, 1)"),
    (ensemble.SpectrumSpec, ((1.0, 2.0),), {"levels": [1, 3]},
     {"levels": (3, 1)}, "levels must be sorted ascending"),
    (ensemble.OccupationCensus, (5, (3, 2), 1), {"outside": 2}, {"outside": 6},
     "outside count must lie in [0, states]"),
]


@pytest.mark.parametrize("cls, args, good, bad, message", RECORDS,
                         ids=[r[0].__name__ for r in RECORDS])
def test_replace_and_make_run_the_constructor(cls, args, good, bad, message):
    record = cls(*args)
    fields = record._asdict()
    want = cls(**{**fields, **good})
    for built in (record._replace(**good),
                  cls._make({**fields, **good}.values())):
        assert type(built) is cls and built == want
        assert tuple(map(type, built)) == tuple(map(type, want))
    assert cls._make(args) == record
    match = f"^{re.escape(message)}$"
    with pytest.raises(DomainError, match=match):
        record._replace(**bad)
    with pytest.raises(DomainError, match=match):
        cls._make({**fields, **bad}.values())
    with pytest.raises(TypeError, match=f"Expected {len(args)} arguments"):
        cls._make(args[:-1])
