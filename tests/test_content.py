"""Tests for the keyword and page-content models."""

import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.content.keywords import Keyword, KeywordCatalog
from repro.content.page import (
    DYNAMIC_MEMO_ENTRIES,
    PageGenerator,
    PageProfile,
)


# ---------------------------------------------------------------------------
# keywords
# ---------------------------------------------------------------------------
def test_keyword_validation():
    with pytest.raises(ValueError):
        Keyword(text="", popularity=0.5, complexity=0.5)
    with pytest.raises(ValueError):
        Keyword(text="x", popularity=1.5, complexity=0.5)
    with pytest.raises(ValueError):
        Keyword(text="x", popularity=0.5, complexity=-0.1)
    with pytest.raises(ValueError):
        Keyword(text="x", popularity=0.5, complexity=0.5, granularity=0)


def test_catalog_is_deterministic():
    a = KeywordCatalog(seed=5)
    b = KeywordCatalog(seed=5)
    assert [k.text for k in a.popular(10)] == \
           [k.text for k in b.popular(10)]
    assert [k.text for k in a.complex(5)] == \
           [k.text for k in b.complex(5)]


def test_keyword_classes_have_expected_attribute_ranges():
    catalog = KeywordCatalog(seed=1)
    for keyword in catalog.popular(20):
        assert keyword.popularity >= 0.8
        assert keyword.complexity <= 0.15
        assert keyword.suggested
    for keyword in catalog.complex(20):
        assert keyword.popularity <= 0.05
        assert keyword.complexity >= 0.7
    for keyword in catalog.mixed(20):
        assert 0.3 <= keyword.popularity <= 0.7


def test_figure3_set_has_one_of_each_class():
    kws = KeywordCatalog(seed=2).figure3_set()
    assert len(kws) == 4
    assert len({k.text for k in kws}) == 4
    # Ordered from cheapest to most expensive back-end work.
    assert kws[0].popularity > kws[3].popularity
    assert kws[3].complexity > kws[0].complexity


def test_bulk_pool_split_and_uniqueness():
    pool = KeywordCatalog(seed=3).bulk_pool(count=1000)
    assert len(pool) == 1000
    assert len({k.text for k in pool}) == 1000
    suggested = [k for k in pool if k.suggested]
    assert 400 <= len(suggested) <= 600
    assert min(k.popularity for k in suggested) >= 0.6


def test_refinement_chain_granularity_increases():
    chain = KeywordCatalog.refinement_chain(
        ["computer", "science", "department", "at", "university"])
    assert [k.granularity for k in chain] == [1, 2, 3, 4, 5]
    assert chain[0].text == "computer"
    assert chain[-1].text == "computer science department at university"
    # Refinement lowers popularity and raises complexity.
    assert chain[-1].popularity < chain[0].popularity
    assert chain[-1].complexity > chain[0].complexity


# ---------------------------------------------------------------------------
# pages
# ---------------------------------------------------------------------------
@pytest.fixture
def generator():
    return PageGenerator("svc", PageProfile(static_size=4000,
                                            dynamic_base_size=20_000,
                                            dynamic_complexity_size=10_000))


def kw(text="test query", popularity=0.5, complexity=0.5):
    return Keyword(text=text, popularity=popularity, complexity=complexity)


def test_static_content_is_constant_and_sized(generator):
    static1 = generator.static_content()
    static2 = generator.static_content()
    assert static1 == static2
    assert len(static1) == 4000
    assert b"Videos" in static1  # the paper's static menu bar
    assert b"News" in static1


def test_static_differs_between_services():
    a = PageGenerator("svc-a", PageProfile(static_size=4000))
    b = PageGenerator("svc-b", PageProfile(static_size=4000))
    assert a.static_content() != b.static_content()


def test_dynamic_content_depends_on_keyword(generator):
    d1 = generator.dynamic_content(kw("alpha"))
    d2 = generator.dynamic_content(kw("beta"))
    assert d1 != d2
    # Deterministic per keyword.
    assert d1 == generator.dynamic_content(kw("alpha"))


def test_dynamic_size_grows_with_complexity(generator):
    small = generator.dynamic_content(kw("a", complexity=0.0))
    large = generator.dynamic_content(kw("b", complexity=1.0))
    assert len(large) > len(small) + 5000


def test_full_page_is_static_prefix_plus_dynamic(generator):
    keyword = kw("gamma")
    page = generator.full_page(keyword)
    assert page.startswith(generator.static_content())
    assert page[len(generator.static_content()):] == \
        generator.dynamic_content(keyword)


def test_pages_share_static_prefix_across_keywords(generator):
    """The property the paper's content analysis exploits: responses for
    different keywords agree exactly on the static prefix and diverge
    somewhere in the dynamic part."""
    page_a = generator.full_page(kw("query one"))
    page_b = generator.full_page(kw("query two"))
    boundary = len(generator.static_content())
    assert page_a[:boundary] == page_b[:boundary]
    assert page_a[boundary:boundary + 2000] != page_b[boundary:boundary + 2000]


def test_profile_validation():
    with pytest.raises(ValueError):
        PageProfile(static_size=10)
    with pytest.raises(ValueError):
        PageProfile(dynamic_base_size=10)


def test_dynamic_target_size_model():
    profile = PageProfile(static_size=4000, dynamic_base_size=20_000,
                          dynamic_complexity_size=10_000)
    easy = profile.dynamic_size(kw("a", complexity=0.0, popularity=0.0))
    hard = profile.dynamic_size(kw("b", complexity=1.0, popularity=0.0))
    assert easy == 20_000
    assert hard == 30_000


# ---------------------------------------------------------------------------
# dynamic-render memo
# ---------------------------------------------------------------------------
#: A profile small enough that a hypothesis run can afford many renders.
_SMALL = PageProfile(static_size=1024, dynamic_base_size=2048,
                     dynamic_complexity_size=3000)
#: More distinct keywords than the memo holds, so sequences evict.
_POOL = [kw("pool keyword %d" % i, popularity=(i % 7) / 7,
            complexity=(i % 5) / 5)
         for i in range(DYNAMIC_MEMO_ENTRIES + 16)]
_FRESH = {}


def _fresh_full_page(keyword):
    """The page a generator that never rendered anything produces."""
    if keyword not in _FRESH:
        _FRESH[keyword] = PageGenerator("memo", _SMALL, seed=4).full_page(
            keyword)
    return _FRESH[keyword]


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(0, len(_POOL) - 1),
                min_size=DYNAMIC_MEMO_ENTRIES + 1,
                max_size=3 * DYNAMIC_MEMO_ENTRIES))
def test_memoized_pages_equal_fresh_renders(indices):
    generator = PageGenerator("memo", _SMALL, seed=4)
    static = generator.static_content()
    for index in indices:
        keyword = _POOL[index]
        expected = _fresh_full_page(keyword)
        assert generator.dynamic_content(keyword) == expected[len(static):]
        assert generator.full_page(keyword) == expected
        assert len(generator._dynamic_memo) <= DYNAMIC_MEMO_ENTRIES


def test_memo_renders_once_per_keyword_and_evicts_least_recent():
    generator = PageGenerator("memo", _SMALL, seed=4)
    rendered = []
    render = generator._render_dynamic

    def counting(keyword):
        rendered.append(keyword)
        return render(keyword)

    generator._render_dynamic = counting
    first, others = _POOL[0], _POOL[1:DYNAMIC_MEMO_ENTRIES]
    for keyword in [first] + others + [first]:
        generator.dynamic_content(keyword)
    assert rendered == [first] + others  # the repeat is a hit
    # ``first`` was used last, so the next new keyword evicts _POOL[1].
    generator.dynamic_content(_POOL[DYNAMIC_MEMO_ENTRIES])
    generator.dynamic_content(first)
    generator.dynamic_content(_POOL[1])
    assert rendered[-2:] == [_POOL[DYNAMIC_MEMO_ENTRIES], _POOL[1]]


#: sha256 of full pages under the default profile.  Rendering must not
#: change behind the memo: a change here changes every campaign's bytes.
_PINNED_PAGES = [
    ("google", 0, "network measurement studies", 0.4, 0.4, 42400,
     "416be35b9c8211468a657f73e827df97a74c9449aa60ade375babad83b3be91f"),
    ("google", 0, "weather", 0.95, 0.05, 38600,
     "285792470578cde68e0e79ff5f38c7d67f5bee63342d1e6007a0783639e46870"),
    ("bing", 3, "computer and potato", 0.02, 0.9, 48640,
     "56ea7c200ab7841c114b6ea161b23fdca9f4d6466c36382b7342ac90c6967203"),
]


@pytest.mark.parametrize("service,seed,text,popularity,complexity,size,"
                         "digest", _PINNED_PAGES)
def test_rendered_pages_are_pinned(service, seed, text, popularity,
                                   complexity, size, digest):
    generator = PageGenerator(service, PageProfile(), seed=seed)
    keyword = kw(text, popularity=popularity, complexity=complexity)
    for _ in range(2):  # the render, then the memo hit
        page = generator.full_page(keyword)
        assert len(page) == size
        assert hashlib.sha256(page).hexdigest() == digest
