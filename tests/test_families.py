import pytest
from mpmath import mp

from arctancert.families import FAMILIES, Approximant
from arctancert.verify import BoundKind

# every registry family once, each side of a pair family separately
INSTANCES = [
    Approximant(ident, n=max(info.n_min, 3) if info.needs_n else None, side=side)
    for ident, info in FAMILIES.items()
    for side in (("lower", "upper") if info.kind is BoundKind.TWO_SIDED else (None,))
]


@pytest.mark.parametrize("ap", INSTANCES, ids=lambda ap: ap.label)
def test_values_returned_in_kind(ap):
    x = 0.375 if FAMILIES[ap.family].claim_interval == "0:1" else 3.0
    assert type(ap(x)) is float
    with mp.workdps(50):
        v50 = ap(mp.mpf(x))
    assert isinstance(v50, mp.mpf)
    with mp.workdps(70):
        assert abs(v50 - ap(mp.mpf(x))) < mp.mpf(10) ** -45


@pytest.mark.parametrize("ap", INSTANCES, ids=lambda ap: ap.label)
def test_ints_beyond_the_float_range_raise_value_error(ap):
    with pytest.raises(ValueError):
        ap(10**400)
