import pytest

from sosgraphs.graph import build_gamma, membership_graph
from sosgraphs.roots import parse_label

import oracles

_GRAPHS = {}
_PAIRWISE = {}
_MEMBERSHIP = {}


@pytest.fixture(scope="session")
def gamma():
    """Session-cached full graphs keyed by (label, k)."""

    def get(label: str, k: int):
        key = (label, k)
        if key not in _GRAPHS:
            _GRAPHS[key] = build_gamma(parse_label(label), k)
        return _GRAPHS[key]

    return get


@pytest.fixture(scope="session")
def pairwise_gamma():
    """Session-cached full graphs from the pairwise edge oracle, keyed by (label, k)."""

    def get(label: str, k: int):
        key = (label, k)
        if key not in _PAIRWISE:
            _PAIRWISE[key] = oracles.pairwise_gamma(parse_label(label), k)
        return _PAIRWISE[key]

    return get


@pytest.fixture(scope="session")
def mgraph():
    """Session-cached adjacency-free graphs keyed by (label, k)."""

    def get(label: str, k: int):
        key = (label, k)
        if key not in _MEMBERSHIP:
            _MEMBERSHIP[key] = membership_graph(parse_label(label), k)
        return _MEMBERSHIP[key]

    return get


@pytest.fixture()
def cli_cache(tmp_path, monkeypatch):
    """Isolated cache dir for CLI tests."""
    cache = tmp_path / "cache"
    monkeypatch.setenv("SOSGRAPHS_CACHE", str(cache))
    return cache
