"""Landscape generation: determinism, truth consistency, distributions."""

from __future__ import annotations

from collections import Counter

from repro.corpus.generator import Landscape, generate_landscape
from repro.corpus import profiles


def test_generation_is_deterministic() -> None:
    first = generate_landscape(total=60, seed=5)
    second = generate_landscape(total=60, seed=5)
    assert first.addresses() == second.addresses()
    assert {a: t.kind for a, t in first.truths.items()} == {
        a: t.kind for a, t in second.truths.items()}


def test_different_seeds_differ() -> None:
    first = generate_landscape(total=60, seed=5)
    second = generate_landscape(total=60, seed=6)
    assert first.addresses() != second.addresses()


def test_landscape_lists_addresses_in_dataset_order() -> None:
    """One sweep order: the landscape lists its contracts as the dataset
    does.  The generator's truth dict holds the same set, but here three
    adjacent pairs sit swapped."""
    world = generate_landscape(total=250, seed=42)
    assert list(world.truths) != world.dataset.addresses()
    assert world.addresses() == world.dataset.addresses()


def test_all_truth_contracts_deployed(landscape: Landscape) -> None:
    for address in landscape.truths:
        assert landscape.chain.state.get_code(address), address.hex()


def test_dataset_covers_truths(landscape: Landscape) -> None:
    for address in landscape.truths:
        assert address in landscape.dataset


def test_proxy_truths_have_logic_addresses(landscape: Landscape) -> None:
    for truth in landscape.truths.values():
        if truth.is_proxy and truth.kind != "diamond":
            assert truth.logic_addresses
            for logic in truth.logic_addresses:
                assert landscape.chain.state.get_code(logic)


def test_proxy_share_tracks_paper(landscape: Landscape) -> None:
    """Around half of all contracts are proxies (54.2% on mainnet)."""
    total = len(landscape.truths)
    proxies = len(landscape.true_proxies())
    assert 0.35 <= proxies / total <= 0.75


def test_minimal_clones_dominate(landscape: Landscape) -> None:
    kinds = Counter(t.kind for t in landscape.truths.values()
                    if t.is_proxy)
    assert kinds["minimal_clone"] == max(kinds.values())


def test_source_availability_minority(landscape: Landscape) -> None:
    """Less than ~30% of contracts have source (paper: <20%)."""
    with_source = sum(1 for t in landscape.truths.values() if t.has_source)
    assert with_source / len(landscape.truths) < 0.35


def test_hidden_contracts_exist(landscape: Landscape) -> None:
    hidden = [a for a, t in landscape.truths.items()
              if not t.has_source
              and not landscape.chain.has_transactions(a)]
    assert len(hidden) > 0.2 * len(landscape.truths)


def test_deploy_years_span_range(landscape: Landscape) -> None:
    years = {t.deploy_year for t in landscape.truths.values()}
    assert min(years) <= 2017
    assert max(years) == 2023
    # Deploy blocks actually fall in the labelled year.
    for address, truth in landscape.truths.items():
        block = landscape.dataset.deploy_block_of(address)
        assert landscape.chain.year_of(block) == truth.deploy_year


def test_collision_labels_present(landscape: Landscape) -> None:
    labels = {t.kind for t in landscape.truths.values()
              if t.expect_function_collision}
    assert "honeypot_pair" in labels or "wyvern_clone" in labels


def test_clone_families_zipf_skewed(landscape: Landscape) -> None:
    clones = [t for t in landscape.truths.values()
              if t.kind == "minimal_clone"]
    by_target = Counter(t.logic_addresses[0] for t in clones)
    counts = sorted(by_target.values(), reverse=True)
    assert counts[0] >= counts[-1]
    assert len(by_target) <= profiles.POPULAR_CLONE_FAMILIES


def test_upgrades_recorded_when_forced() -> None:
    landscape = generate_landscape(total=80, seed=9, upgrade_probability=1.0)
    upgraded = [t for t in landscape.truths.values() if t.upgrade_count]
    assert upgraded
    for truth in upgraded:
        assert len(truth.logic_addresses) == truth.upgrade_count + 1


def test_year_profiles_are_sane() -> None:
    assert abs(sum(profiles.YEARLY_DEPLOY_SHARE.values()) - 1.0) < 0.01
    for year, profile in profiles.YEAR_PROFILES.items():
        assert 0 < profile.proxy_share < 1, year
        assert 0 < profile.source_share < 1
        assert 0 < profile.tx_share < 1
    # The mainstream era is proxy-dominated, the early era is not.
    assert profiles.YEAR_PROFILES[2023].proxy_share > 0.85
    assert profiles.YEAR_PROFILES[2015].proxy_share < 0.25
