"""SamplingRequest validation: sources, policies, labels, error routing."""

import pytest

from repro.analysis import InstanceSpec
from repro.api import SamplingRequest
from repro.database import WorkloadSpec
from repro.database.dynamic import UpdateStream
from repro.errors import ReproError, RequestError, ValidationError


def spec_of(universe=64, total=24, n=2):
    return InstanceSpec(
        workload=WorkloadSpec.of("zipf", universe=universe, total=total),
        n_machines=n,
    )


class TestSourceValidation:
    def test_exactly_one_source_required(self):
        with pytest.raises(RequestError, match="exactly one"):
            SamplingRequest()

    def test_two_sources_rejected(self, small_db):
        with pytest.raises(RequestError, match="exactly one"):
            SamplingRequest(database=small_db, spec=spec_of())

    def test_source_kinds(self, small_db):
        assert SamplingRequest(database=small_db).source == "database"
        assert SamplingRequest(spec=spec_of()).source == "spec"
        stream = UpdateStream(small_db, [])
        assert SamplingRequest(stream=stream).source == "stream"

    def test_seed_requires_spec(self, small_db):
        with pytest.raises(RequestError, match="seed"):
            SamplingRequest(database=small_db, seed=3)
        assert SamplingRequest(spec=spec_of(), seed=3).seed == 3


class TestPolicyValidation:
    def test_unknown_model(self):
        with pytest.raises(RequestError, match="model"):
            SamplingRequest(spec=spec_of(), model="quantum")

    def test_unknown_capacity_policy(self):
        with pytest.raises(RequestError, match="capacity"):
            SamplingRequest(spec=spec_of(), capacity="sometimes")

    def test_empty_backend(self):
        with pytest.raises(RequestError, match="backend"):
            SamplingRequest(spec=spec_of(), backend="")

    def test_nonpositive_shards_rejected(self):
        for bad in (0, -1, -8):
            with pytest.raises(RequestError, match="shards"):
                SamplingRequest(spec=spec_of(), shards=bad)

    def test_shards_accepts_positive_and_default(self):
        assert SamplingRequest(spec=spec_of()).shards is None
        assert SamplingRequest(spec=spec_of(), shards=4).shards == 4

    def test_skip_zero_capacity_mapping(self):
        assert SamplingRequest(spec=spec_of()).skip_zero_capacity() is False
        assert (
            SamplingRequest(spec=spec_of(), capacity="skip_empty").skip_zero_capacity()
            is True
        )


class TestErrorsHierarchy:
    """Satellite: one base exception catches every front-door failure."""

    def test_request_error_is_repro_and_value_error(self):
        assert issubclass(RequestError, ReproError)
        assert issubclass(RequestError, ValidationError)
        assert issubclass(RequestError, ValueError)


class TestPlanningViews:
    def test_labels(self, small_db):
        spec = spec_of()
        assert SamplingRequest(spec=spec).resolved_label() == spec.label()
        assert SamplingRequest(stream=UpdateStream(small_db, [])).resolved_label() == "live"
        assert "N=8" in SamplingRequest(database=small_db).resolved_label()
        assert SamplingRequest(spec=spec, label="mine").resolved_label() == "mine"
