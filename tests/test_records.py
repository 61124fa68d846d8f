"""The checked config records (SourceConfig, NoiseModel, Schedule) as immutable named tuples.

Each checks and canonicalises its fields when built, with fixed messages,
and has a fixed repr, value equality and hashing; being a tuple, it also
iterates and equals the plain tuple of its fields.  _left_sum, the one
float sum behind the documents, adds left to right on every Python.
"""

import copy
import math
import pickle
import struct

import pytest
from hypothesis import given, settings, strategies as st

from avnsim._records import NoiseModel, Schedule, SourceConfig, _left_sum

EDGE_PHASE = math.nextafter(-math.pi, -math.inf)

RECORDS = [
    (SourceConfig(0.7), "SourceConfig(phi=0.7000000000000002)"),
    (SourceConfig(EDGE_PHASE), "SourceConfig(phi=-3.141592653589793)"),
    (
        NoiseModel(0.1, 0.9, 0.8, -1.2),
        "NoiseModel(white_noise_weight=0.1, pol_visibility=0.9, path_visibility=0.8, phase_offset=-1.2)",
    ),
    (NoiseModel(), "NoiseModel(white_noise_weight=0.0, pol_visibility=1.0, path_visibility=1.0, phase_offset=0.0)"),
    (Schedule(2.0, 3.0, {"M": (4.0, 5.0)}), "Schedule(pair_rate=2.0, duration=3.0, overrides={'M': (4.0, 5.0)})"),
    (Schedule(), "Schedule(pair_rate=32000.0, duration=1.0, overrides={})"),
]
IDS = [text for _, text in RECORDS]


def _bits(record):
    """The fields with every float as its 8 bytes, so -0.0 differs from 0.0."""
    return repr([struct.pack("<d", v) if isinstance(v, float) else v for v in record])


@pytest.mark.parametrize("record, text", RECORDS, ids=IDS)
def test_repr_names_each_field(record, text):
    assert repr(record) == text


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: SourceConfig(math.nan), "source.phi must be finite, got nan"),
        (lambda: NoiseModel(1.5), "noise.white_noise_weight must lie in [0, 1], got 1.5"),
        (lambda: NoiseModel(path_visibility=-0.5), "noise.path_visibility must lie in [0, 1], got -0.5"),
        (lambda: NoiseModel(phase_offset=math.inf), "noise.phase_offset must be finite, got inf"),
        (lambda: Schedule(0.0), "schedule: pair_rate must be positive and finite, got 0.0"),
        (lambda: Schedule(duration=math.inf), "schedule: duration must be positive and finite, got inf"),
        (lambda: Schedule(overrides={"Q": (1.0, 1.0)}), "override for unknown correlation 'Q'"),
        (lambda: Schedule(overrides={"M": (1.0, -1.0)}), "override for 'M': duration must be positive and finite, got -1.0"),
        (
            lambda: Schedule(1e19, 1.0),
            "schedule: pair_rate * duration = 1e+19 exceeds the Poisson limit 9.22337e+18",
        ),
        (lambda: NoiseModel()._replace(pol_visibility=2.0), "noise.pol_visibility must lie in [0, 1], got 2.0"),
        (lambda: SourceConfig._make([math.inf]), "source.phi must be finite, got inf"),
    ],
)
def test_checks_raise_the_same_messages(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message


@pytest.mark.parametrize("record, _", RECORDS, ids=IDS)
def test_records_are_immutable(record, _):
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], 0.5)
    with pytest.raises(AttributeError):
        record.extra = 1


def test_each_schedule_gets_a_fresh_overrides_dict():
    assert Schedule().overrides is not Schedule().overrides
    assert Schedule().overrides == {}


EDGE_NOISE = NoiseModel(phase_offset=EDGE_PHASE)
ROUND_TRIP = [*RECORDS, (EDGE_NOISE, repr(EDGE_NOISE))]


@pytest.mark.parametrize("record, _", ROUND_TRIP, ids=[text for _, text in ROUND_TRIP])
def test_from_dict_inverts_to_dict(record, _):
    assert type(record).from_dict(record.to_dict()) == record


@pytest.mark.parametrize("record, _", RECORDS, ids=IDS)
def test_pickle_and_deepcopy_keep_every_bit(record, _):
    copies = [pickle.loads(pickle.dumps(record, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for other in [*copies, copy.deepcopy(record), copy.copy(record)]:
        assert type(other) is type(record)
        assert other == record
        assert _bits(other) == _bits(record)


def test_hash_follows_the_fields_and_deepcopy_copies_the_overrides():
    assert hash(NoiseModel(0.1)) == hash(NoiseModel(0.1)) != hash(NoiseModel(0.2))
    schedule = Schedule(overrides={"M": (4.0, 5.0)})
    assert copy.deepcopy(schedule).overrides is not schedule.overrides


@settings(max_examples=200, deadline=None)
@given(
    phi=st.floats(allow_nan=False, allow_infinity=False, min_value=-1e6, max_value=1e6),
    weights=st.tuples(*[st.floats(min_value=0.0, max_value=1.0)] * 3),
)
def test_round_trips_keep_every_bit_of_any_checked_record(phi, weights):
    for record in (SourceConfig(phi), NoiseModel(*weights, phase_offset=phi)):
        for other in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record)):
            assert _bits(other) == _bits(record)


def test_records_are_tuples_of_their_fields():
    assert NoiseModel() == (0.0, 1.0, 1.0, 0.0)
    assert hash(SourceConfig(0.5)) == hash((0.5,))
    pair_rate, duration, overrides = Schedule()
    assert (pair_rate, duration, overrides) == (32000.0, 1.0, {})


def test_to_dict_names_the_fields_in_order():
    assert SourceConfig(0.5).to_dict() == {"phi": 0.5}
    noise = NoiseModel(0.1, 0.9, 0.8, -1.2).to_dict()
    assert type(noise) is dict
    assert list(noise.items()) == [
        ("white_noise_weight", 0.1), ("pol_visibility", 0.9), ("path_visibility", 0.8), ("phase_offset", -1.2)
    ]


def test_left_sum_keeps_integers_above_2_to_53_exact():
    total = _left_sum([2**53, 1, 1])
    assert type(total) is int and total == 2**53 + 2


def test_left_sum_of_negative_zero_is_positive_zero():
    assert math.copysign(1.0, _left_sum([-0.0])) == 1.0


def test_left_sum_of_opposite_infinities_is_nan():
    assert math.isnan(_left_sum([math.inf, -math.inf]))


def test_left_sum_adds_left_to_right_without_compensation():
    assert _left_sum([1e16, 1.0, 1.0]) == 1e16
    assert math.fsum([1e16, 1.0, 1.0]) == 1.0000000000000002e16


def _near(x, steps=64):
    """x and the floats within steps ulps of it on either side."""
    out = [x]
    for direction in (-math.inf, math.inf):
        y = x
        for _ in range(steps):
            y = math.nextafter(y, direction)
            out.append(y)
    return out


@pytest.mark.parametrize("centre", [-3 * math.pi, -math.pi, 0.0, math.pi, 3 * math.pi])
def test_a_canonical_phase_lies_in_the_half_open_range_and_is_kept(centre):
    for phi in _near(centre):
        canonical = SourceConfig(phi).phi
        assert -math.pi <= canonical < math.pi, phi
        assert SourceConfig(canonical).phi == canonical
        assert NoiseModel(phase_offset=phi).phase_offset == canonical
