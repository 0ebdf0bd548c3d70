"""The names ``rankfair`` exports."""

import pytest

import rankfair

#: names removed from the public surface; ``agreement`` over ``ScoreTable``s,
#: ``intersect_tables`` and ``parse_annotations`` replace them
REMOVED = ("correlation_report", "intersect_schemes", "AnnotationRecord")


def test_all_resolves_without_duplicates_and_removed_names_stay_gone():
    namespace = {}
    exec("from rankfair import *", namespace)
    assert set(rankfair.__all__) <= set(namespace)
    assert len(rankfair.__all__) == len(set(rankfair.__all__))
    for name in REMOVED:
        assert name not in rankfair.__all__
        with pytest.raises(ImportError):
            exec(f"from rankfair import {name}", {})
