"""Property: indexed fragment discovery ≡ the linear reference scan.

The :class:`~repro.discovery.knowhow.FragmentManager` answers know-how
queries from an inverted index (:class:`FragmentIndex`); the reference is a
one-pass-over-everything scan of the same database
(:func:`tests.oracles.discovery.linear_matching`).  The two must agree
*exactly* — same fragments, same order — for every
combination of the query's narrowing fields (label sets, ``want_all``,
exclusion list, delta floor), including after removals and re-additions,
which is what these properties drive randomly.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.discovery.knowhow import FragmentManager
from repro.net.messages import FragmentQuery

from tests.oracles.discovery import linear_matching

from .strategies import LABELS, knowledge_sets

SETTINGS = settings(max_examples=80, deadline=None)


def _ids(fragments):
    return [fragment.fragment_id for fragment in fragments]


@st.composite
def queries(draw, max_version: int = 12) -> FragmentQuery:
    want_all = draw(st.booleans())
    consuming = frozenset(
        draw(st.lists(st.sampled_from(LABELS), max_size=4, unique=True))
    )
    producing = frozenset(
        draw(st.lists(st.sampled_from(LABELS), max_size=4, unique=True))
    )
    exclude = frozenset(
        draw(
            st.lists(
                st.integers(min_value=0, max_value=12).map(
                    lambda i: f"prop-frag-{i}"
                ),
                max_size=5,
                unique=True,
            )
        )
    )
    since = draw(st.integers(min_value=0, max_value=max_version))
    return FragmentQuery(
        sender="asker",
        recipient="answerer",
        want_all=want_all,
        consuming=consuming,
        producing=producing,
        exclude_fragment_ids=exclude,
        since_version=since,
    )


@SETTINGS
@given(fragments=knowledge_sets(max_fragments=12), query=queries())
def test_indexed_matching_equals_linear_scan(fragments, query):
    manager = FragmentManager("answerer", fragments)
    assert _ids(manager.matching_fragments(query)) == _ids(
        linear_matching(manager, query)
    )


@SETTINGS
@given(
    fragments=knowledge_sets(min_fragments=2, max_fragments=12),
    query=queries(),
    data=st.data(),
)
def test_equivalence_survives_removal_and_readdition(fragments, query, data):
    manager = FragmentManager("answerer", fragments)
    victim = data.draw(st.sampled_from(sorted(manager.fragment_ids)))
    assert manager.remove_fragment(victim)
    readd = data.draw(st.booleans())
    if readd:
        version = manager.version
        fragment = next(f for f in fragments if f.fragment_id == victim)
        manager.add_fragment(fragment)
        # Re-ingestion assigns a fresh sequence number.
        assert manager.version == version + 1
        assert manager.knowledge.sequence_of(victim) == manager.version
    assert _ids(manager.matching_fragments(query)) == _ids(
        linear_matching(manager, query)
    )


@SETTINGS
@given(fragments=knowledge_sets(max_fragments=12))
def test_delta_floor_partitions_the_database(fragments):
    """since_version=v returns exactly the fragments ingested after v."""

    manager = FragmentManager("host", fragments)
    everything = manager.all_fragments()
    for version in range(manager.version + 1):
        since = manager.fragments_since(version)
        expected = [
            f
            for f in everything
            if manager.knowledge.sequence_of(f.fragment_id) > version
        ]
        assert [f.fragment_id for f in since] == [f.fragment_id for f in expected]
    assert manager.fragments_since(manager.version) == []
    assert [f.fragment_id for f in manager.fragments_since(0)] == [
        f.fragment_id for f in everything
    ]
