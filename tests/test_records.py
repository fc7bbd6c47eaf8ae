"""The record contract: every result record is read-only and pickles whole.

The records are tuples (``NamedTuple``); these tests pin what each must give to the
code that holds them.
"""

import pickle

import pytest

from bruhatpoly import CoxeterDescriptor, RContext, analysis, suite
from bruhatpoly.graph import BruhatGraph, build_graph


# each record's class name and one of its fields
RECORDS = {
    "CoxeterDescriptor": "param", "BruhatGraph": "out_edges",
    "DeodharVerdict": "f1", "ObservationResult": "sum_ok",
    "FourWayVerdict": "w", "EdgeSizeTally": "edges", "GammaVector": "entries",
    "CheckResult": "seconds",
}


@pytest.fixture(scope="module")
def records(a2):
    ctx = RContext(a2)
    e, w0 = a2.identity, a2.w0
    out = [a2.descriptor, build_graph(a2, a2.interval(e, w0)),
           analysis.deodhar_check(ctx, e, w0), analysis.observation_sum(ctx),
           analysis.four_way_regularity(ctx, w0),
           analysis.edge_size_tally(ctx), ctx.gamma_vector(e, w0),
           suite.run_suite("A2", ["obs-sum"])[0]]
    return {type(record).__name__: record for record in out}


def test_every_record_is_covered(records):
    assert sorted(records) == sorted(RECORDS)


@pytest.mark.parametrize("name", RECORDS)
def test_a_record_field_cannot_be_assigned(records, name):
    record, field = records[name], RECORDS[name]
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        delattr(record, field)
    assert getattr(record, field) is before


@pytest.mark.parametrize("name", RECORDS)
def test_a_record_survives_a_pickle_round_trip(records, name):
    record = records[name]
    copy = pickle.loads(pickle.dumps(record))
    assert type(copy) is type(record)
    if isinstance(record, BruhatGraph):  # its group compares by identity
        assert copy != record
        assert copy.members == record.members
        assert copy.out_edges == record.out_edges
        assert copy.in_degree == record.in_degree
        assert copy.group.forms == record.group.forms
    else:
        assert copy == record


@pytest.mark.parametrize("family, param", [("A", 0), ("I2", 1), ("B", 3)])
def test_a_descriptor_refuses_a_bad_group(family, param):
    with pytest.raises(ValueError):
        CoxeterDescriptor(family, param)
