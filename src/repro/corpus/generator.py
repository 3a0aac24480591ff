"""Synthetic Ethereum landscape generation.

Deploys scaled-down contract populations onto the simulated chain with the
paper's measured distributions (see :mod:`repro.corpus.profiles`): yearly
growth, proxy-standard mix, clone skew, source/transaction availability
quadrants, collision incidence and upgrade rarity.  Every deployment is
labelled with ground truth so the benches can score detectors.

Generation is fully deterministic for a given (total, seed).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.chain.blockchain import Blockchain
from repro.chain.dataset import ContractDataset
from repro.chain.explorer import SourceRegistry
from repro.chain.node import ArchiveNode
from repro.corpus import profiles
from repro.lang import stdlib
from repro.lang.ast import (
    BinOp,
    Contract,
    Function,
    Load,
    Param,
    Return,
    Store,
    VarDecl,
)
from repro.lang.compiler import compile_contract
from repro.utils.abi import encode_call
from repro.utils.keccak import keccak256

ETHER = 10 ** 18


@dataclass(slots=True)
class ContractTruth:
    """Ground-truth label for one deployed contract."""

    address: bytes
    kind: str
    deploy_year: int
    is_proxy: bool = False
    standard: str | None = None          # "EIP-1167" | "EIP-1822" | ...
    logic_addresses: list[bytes] = field(default_factory=list)
    has_source: bool = False
    expect_function_collision: bool = False
    expect_storage_collision: bool = False
    storage_exploitable: bool = False
    upgrade_count: int = 0


@dataclass(slots=True)
class Landscape:
    """A generated world: chain + metadata + ground truth."""

    chain: Blockchain
    node: ArchiveNode
    registry: SourceRegistry
    dataset: ContractDataset
    truths: dict[bytes, ContractTruth] = field(default_factory=dict)
    clone_family_targets: list[bytes] = field(default_factory=list)

    def addresses(self) -> list[bytes]:
        """Every contract, in the dataset's order: the one sweep order."""
        return self.dataset.addresses()

    def truth(self, address: bytes) -> ContractTruth:
        return self.truths[address]

    def true_proxies(self) -> set[bytes]:
        return {a for a, t in self.truths.items() if t.is_proxy}

    def contracts_of_kind(self, kind: str) -> list[bytes]:
        return [a for a, t in self.truths.items() if t.kind == kind]


class LandscapeGenerator:
    """Builds a :class:`Landscape` of ``total`` contracts."""

    def __init__(self, total: int = 600, seed: int = 42,
                 years: tuple[int, ...] = tuple(range(2015, 2024)),
                 upgrade_probability: float | None = None,
                 chain_profile=None) -> None:
        self.total = total
        self.rng = random.Random(seed)
        self.chain_profile = chain_profile
        if chain_profile is not None:
            # Chains younger than Ethereum have no pre-genesis deployments.
            import datetime as _dt
            genesis_year = _dt.datetime.fromtimestamp(
                chain_profile.genesis_timestamp, tz=_dt.timezone.utc).year
            years = tuple(year for year in years if year >= genesis_year)
        self.years = years
        self.upgrade_probability = (
            profiles.UPGRADE_PROBABILITY if upgrade_probability is None
            else upgrade_probability)
        self._name_counter = 0

    # --------------------------------------------------------------- helpers
    def _eoa(self, tag: str) -> bytes:
        return keccak256(f"eoa:{tag}:{self.rng.random()}".encode())[12:]

    def _fresh_name(self, prefix: str) -> str:
        self._name_counter += 1
        return f"{prefix}{self._name_counter}"

    def _deploy(self, landscape: Landscape, init_code: bytes,
                deployer: bytes | None = None) -> bytes:
        deployer = deployer or self._default_deployer
        receipt = landscape.chain.deploy(deployer, init_code)
        if not receipt.success:
            raise RuntimeError(f"corpus deployment failed: {receipt.error}")
        address = receipt.created_address
        landscape.dataset.add(address, receipt.block_number, deployer)
        return address

    def _register_source(self, landscape: Landscape, address: bytes,
                         contract: Contract, runtime_code: bytes,
                         truth: ContractTruth) -> None:
        # Verification goes through the full Etherscan path: render the
        # Solidity-style text, then run the §5.1 source parser over it.
        from repro.chain.source_parser import parse_source_text
        from repro.lang.source import render_source

        compiler_version = (
            profiles.UNSUPPORTED_COMPILER
            if self.rng.random() < profiles.UNSUPPORTED_COMPILER_SHARE
            else profiles.SUPPORTED_COMPILER)
        source = parse_source_text(render_source(contract),
                                   compiler_version=compiler_version)
        landscape.registry.verify(address, source, runtime_code)
        truth.has_source = True

    # ------------------------------------------------------------ generation
    def generate(self) -> Landscape:
        chain = Blockchain(profile=self.chain_profile)
        landscape = Landscape(
            chain=chain,
            node=ArchiveNode(chain),
            registry=SourceRegistry(),
            dataset=ContractDataset(),
        )
        self._default_deployer = self._eoa("deployer")
        chain.fund(self._default_deployer, 10 ** 9 * ETHER)

        self._deploy_clone_families(landscape)
        upgrade_candidates: list[tuple[bytes, str]] = []

        for year in self.years:
            chain.advance_to_block(chain.first_block_of_year(year))
            profile = profiles.YEAR_PROFILES[year]
            count = max(1, round(self.total * profiles.YEARLY_DEPLOY_SHARE[year]))
            plan = self._year_plan(profile, count)
            for kind in plan:
                address = self._deploy_kind(landscape, kind, year, profile)
                if address is not None and kind in ("eip1967", "custom_storage",
                                                    "transparent"):
                    upgrade_candidates.append((address, kind))

        self._run_upgrades(landscape, upgrade_candidates)
        return landscape

    def _year_plan(self, profile: profiles.YearProfile, count: int) -> list[str]:
        """Materialize the year's fraction mix into a shuffled kind list."""
        plan: list[str] = []
        fractions = [
            ("minimal_clone", profile.minimal_clone),
            ("wyvern_clone", profile.wyvern_clone),
            ("minimal_unique", profile.minimal_unique),
            ("eip1967", profile.eip1967),
            ("eip1822", profile.eip1822),
            ("custom_storage", profile.custom_storage),
            ("transparent", profile.transparent),
            ("diamond", profile.diamond),
            ("library_user", profile.library_user),
            ("honeypot_pair", profile.honeypot_pair),
            ("audius_pair", profile.audius_pair),
        ]
        for kind, fraction in fractions:
            plan.extend([kind] * round(count * fraction))
        while len(plan) < count:
            roll = self.rng.random()
            if roll < 0.015:
                plan.append("weird")     # §6.2's emulation-failure class
            elif roll < 0.10:
                plan.append("timelock")  # block-dependent (§8.1 divergence)
            elif roll < 0.17:
                plan.append("airdrop")   # loop-heavy distributor
            else:
                plan.append("wallet" if roll < 0.57 else "token")
        self.rng.shuffle(plan)
        return plan[:count]

    # ------------------------------------------------------- clone families
    def _deploy_clone_families(self, landscape: Landscape) -> None:
        """Deploy the popular logic contracts minimal clones will point at.

        These model CoinTool_App / XENTorrent-style factories: a handful of
        targets absorbing the vast majority of clone deployments (Fig. 5).
        They land right after genesis so every later year can reference
        them without moving the clock.
        """
        first_year = self.years[0]
        for index in range(profiles.POPULAR_CLONE_FAMILIES):
            contract = self._make_app_logic(f"PopularApp{index}")
            compiled = compile_contract(contract)
            address = self._deploy(landscape, compiled.init_code)
            truth = ContractTruth(address=address, kind="popular_logic",
                                  deploy_year=first_year)
            landscape.truths[address] = truth
            self._register_source(landscape, address, contract,
                                  compiled.runtime_code, truth)
            landscape.clone_family_targets.append(address)
        # The Wyvern-style logic all wyvern clones share.
        wyvern = stdlib.wyvern_logic()
        compiled = compile_contract(wyvern)
        address = self._deploy(landscape, compiled.init_code)
        truth = ContractTruth(address=address, kind="wyvern_logic",
                              deploy_year=first_year)
        landscape.truths[address] = truth
        self._register_source(landscape, address, wyvern,
                              compiled.runtime_code, truth)
        self._wyvern_logic_address = address

    def _pick_clone_family(self) -> bytes:
        """Zipf-skewed family choice (top families dominate, Fig. 5)."""
        weights = [1.0 / ((rank + 1) ** profiles.CLONE_ZIPF_EXPONENT)
                   for rank in range(profiles.POPULAR_CLONE_FAMILIES)]
        return self.rng.choices(self._clone_targets, weights=weights, k=1)[0]

    # ---------------------------------------------------------- deployments
    def _deploy_kind(self, landscape: Landscape, kind: str, year: int,
                     profile: profiles.YearProfile) -> bytes | None:
        self._clone_targets = landscape.clone_family_targets
        owner = self._eoa(f"owner:{year}")
        landscape.chain.fund(owner, 100 * ETHER)

        if kind == "minimal_clone":
            target = self._pick_clone_family()
            address = self._deploy(landscape,
                                   stdlib.minimal_proxy_init(target))
            truth = ContractTruth(address, kind, year, is_proxy=True,
                                  standard="EIP-1167",
                                  logic_addresses=[target])
            landscape.truths[address] = truth
            self._maybe_transact(landscape, address, truth, profile, owner)
            return address

        if kind == "wyvern_clone":
            contract = stdlib.ownable_delegate_proxy(
                "OwnableDelegateProxy", self._wyvern_logic_address, owner)
            return self._finish_proxy(landscape, contract, kind, year,
                                      "Others", [self._wyvern_logic_address],
                                      profile, owner,
                                      expect_function_collision=True)

        if kind == "minimal_unique":
            logic = self._deploy_fresh_logic(landscape, year, profile)
            address = self._deploy(landscape, stdlib.minimal_proxy_init(logic))
            truth = ContractTruth(address, kind, year, is_proxy=True,
                                  standard="EIP-1167",
                                  logic_addresses=[logic])
            landscape.truths[address] = truth
            self._maybe_transact(landscape, address, truth, profile, owner)
            return address

        if kind == "eip1967":
            logic = self._deploy_fresh_logic(landscape, year, profile)
            contract = stdlib.eip1967_proxy(
                self._fresh_name("ERC1967Proxy"), logic, owner)
            return self._finish_proxy(landscape, contract, kind, year,
                                      "EIP-1967", [logic], profile, owner)

        if kind == "eip1822":
            logic_contract = stdlib.uups_logic(self._fresh_name("UUPSLogic"))
            logic_compiled = compile_contract(logic_contract)
            logic = self._deploy(landscape, logic_compiled.init_code)
            landscape.truths[logic] = ContractTruth(logic, "uups_logic", year)
            contract = stdlib.eip1822_proxy(
                self._fresh_name("UUPSProxy"), logic)
            return self._finish_proxy(landscape, contract, kind, year,
                                      "EIP-1822", [logic], profile, owner)

        if kind == "custom_storage":
            logic = self._deploy_fresh_logic(landscape, year, profile)
            contract = stdlib.storage_proxy(
                self._fresh_name("Proxy"), logic, owner)
            return self._finish_proxy(landscape, contract, kind, year,
                                      "Others", [logic], profile, owner)

        if kind == "transparent":
            logic = self._deploy_fresh_logic(landscape, year, profile)
            contract = stdlib.transparent_proxy(
                self._fresh_name("TransparentProxy"), logic, owner)
            return self._finish_proxy(landscape, contract, kind, year,
                                      "EIP-1967", [logic], profile, owner)

        if kind == "diamond":
            contract = stdlib.diamond_proxy(self._fresh_name("Diamond"), owner)
            compiled = compile_contract(contract)
            address = self._deploy(landscape, compiled.init_code)
            facet = self._deploy_fresh_logic(landscape, year, profile)
            truth = ContractTruth(address, kind, year, is_proxy=True,
                                  standard="Others",
                                  logic_addresses=[facet])
            landscape.truths[address] = truth
            # Register a facet and exercise it so the §8.2 extension has
            # transaction selectors to mine.
            selector = int.from_bytes(encode_call("totalStored()")[:4], "big")
            landscape.chain.transact(owner, address, encode_call(
                "registerFacet(uint32,address)", [selector, facet]))
            if self.rng.random() < profile.source_share:
                self._register_source(landscape, address, contract,
                                      compiled.runtime_code, truth)
            if self.rng.random() < profile.tx_share:
                landscape.chain.transact(
                    self._eoa("user"), address, encode_call("totalStored()"))
            return address

        if kind == "library_user":
            library = self._library_address(landscape, year)
            contract = stdlib.library_user(
                self._fresh_name("VaultWithLib"), library)
            compiled = compile_contract(contract)
            address = self._deploy(landscape, compiled.init_code)
            truth = ContractTruth(address, kind, year, is_proxy=False)
            landscape.truths[address] = truth
            if self.rng.random() < profile.source_share:
                self._register_source(landscape, address, contract,
                                      compiled.runtime_code, truth)
            if self.rng.random() < profile.tx_share:
                # The library delegatecall lands in the history — the
                # CRUSH/Etherscan false-positive trap.
                landscape.chain.transact(
                    self._eoa("user"), address,
                    encode_call("addViaLibrary(uint256)", [3]))
            return address

        if kind == "honeypot_pair":
            logic_contract = stdlib.honeypot_logic(
                self._fresh_name("GenerousLogic"))
            logic_compiled = compile_contract(logic_contract)
            logic = self._deploy(landscape, logic_compiled.init_code)
            logic_truth = ContractTruth(logic, "honeypot_logic", year)
            landscape.truths[logic] = logic_truth
            if self.rng.random() < profile.source_share:
                self._register_source(landscape, logic, logic_contract,
                                      logic_compiled.runtime_code, logic_truth)
            contract = stdlib.honeypot_proxy(
                self._fresh_name("Honeypot"), logic, owner)
            return self._finish_proxy(landscape, contract, kind, year,
                                      "Others", [logic], profile, owner,
                                      expect_function_collision=True)

        if kind == "audius_pair":
            logic_contract = stdlib.audius_logic(
                self._fresh_name("InitializableLogic"))
            logic_compiled = compile_contract(logic_contract)
            logic = self._deploy(landscape, logic_compiled.init_code)
            logic_truth = ContractTruth(logic, "audius_logic", year)
            landscape.truths[logic] = logic_truth
            if self.rng.random() < profile.source_share:
                self._register_source(landscape, logic, logic_contract,
                                      logic_compiled.runtime_code, logic_truth)
            contract = stdlib.audius_proxy(
                self._fresh_name("GovernanceProxy"), logic, owner)
            return self._finish_proxy(landscape, contract, kind, year,
                                      "Others", [logic], profile, owner,
                                      expect_storage_collision=True,
                                      storage_exploitable=True)

        if kind == "weird":
            # Pathological bytecode: survives the prefilter, fails emulation.
            address = self._deploy(landscape, stdlib.raw_deploy_init(
                stdlib.WEIRD_DELEGATECALL_RUNTIME))
            landscape.truths[address] = ContractTruth(address, kind, year)
            return address

        if kind == "airdrop":
            contract = stdlib.batch_airdrop(self._fresh_name("Airdrop"), owner)
            compiled = compile_contract(contract)
            address = self._deploy(landscape, compiled.init_code)
            truth = ContractTruth(address, kind, year)
            landscape.truths[address] = truth
            if self.rng.random() < profile.source_share:
                self._register_source(landscape, address, contract,
                                      compiled.runtime_code, truth)
            if self.rng.random() < profile.tx_share:
                landscape.chain.transact(
                    owner, address,
                    encode_call("distribute(uint256,uint256)", [25, 3]))
            return address

        if kind == "timelock":
            contract = stdlib.timelock_vault(
                self._fresh_name("TimelockVault"), owner)
            compiled = compile_contract(contract)
            address = self._deploy(landscape, compiled.init_code)
            truth = ContractTruth(address, kind, year)
            landscape.truths[address] = truth
            if self.rng.random() < profile.source_share:
                self._register_source(landscape, address, contract,
                                      compiled.runtime_code, truth)
            if self.rng.random() < profile.tx_share:
                # Lock, then (usually) a premature withdrawal attempt whose
                # outcome is block-height-dependent — replaying it later
                # diverges, the §8.1 class.
                landscape.chain.transact(owner, address,
                                         encode_call("lockUntilDelay()"))
                landscape.chain.transact(owner, address,
                                         encode_call("withdrawAll()"))
            return address

        # Plain non-proxies.  A slice compiles with the Vyper-style
        # dispatcher so the extractors never overfit to one compiler.
        if kind == "wallet":
            contract = stdlib.simple_wallet(self._fresh_name("Wallet"), owner)
        else:
            contract = stdlib.simple_token(self._fresh_name("Token"), owner)
        style = "vyper" if self.rng.random() < 0.2 else "solc"
        compiled = compile_contract(contract, dispatcher_style=style)
        address = self._deploy(landscape, compiled.init_code)
        truth = ContractTruth(address, kind, year)
        landscape.truths[address] = truth
        if self.rng.random() < profile.source_share:
            self._register_source(landscape, address, contract,
                                  compiled.runtime_code, truth)
        if self.rng.random() < profile.tx_share:
            user = self._eoa("user")
            landscape.chain.fund(user, ETHER)
            landscape.chain.transact(user, address, encode_call("deposit()")
                                     if kind == "wallet"
                                     else encode_call("balanceOf(address)",
                                                      [user]))
        return address

    def _finish_proxy(self, landscape: Landscape, contract: Contract,
                      kind: str, year: int, standard: str,
                      logic_addresses: list[bytes],
                      profile: profiles.YearProfile, owner: bytes,
                      expect_function_collision: bool = False,
                      expect_storage_collision: bool = False,
                      storage_exploitable: bool = False) -> bytes:
        compiled = compile_contract(contract)
        address = self._deploy(landscape, compiled.init_code)
        truth = ContractTruth(
            address, kind, year, is_proxy=True, standard=standard,
            logic_addresses=list(logic_addresses),
            expect_function_collision=expect_function_collision,
            expect_storage_collision=expect_storage_collision,
            storage_exploitable=storage_exploitable,
        )
        landscape.truths[address] = truth
        if self.rng.random() < profile.source_share:
            self._register_source(landscape, address, contract,
                                  compiled.runtime_code, truth)
        self._maybe_transact(landscape, address, truth, profile, owner)
        return address

    def _maybe_transact(self, landscape: Landscape, address: bytes,
                        truth: ContractTruth, profile: profiles.YearProfile,
                        owner: bytes) -> None:
        if self.rng.random() >= profile.tx_share:
            return
        user = self._eoa("user")
        landscape.chain.fund(user, ETHER)
        # Hitting an unknown selector exercises the fallback delegation,
        # leaving the DELEGATECALL trace tx-history tools depend on.
        landscape.chain.transact(user, address,
                                 bytes.fromhex("f00dbabe") + b"\x00" * 32)

    # ----------------------------------------------------------- fresh logic
    def _make_app_logic(self, name: str) -> Contract:
        """A benign app logic contract with a distinctive function set.

        The layout mirrors the proxy convention (owner, implementation,
        then app state) so pairing it with a storage proxy is
        layout-compatible — deliberate collisions come only from the
        labelled honeypot/audius families.
        """
        suffix = self._fresh_name("v")
        return Contract(
            name=name,
            variables=(
                VarDecl("owner", "address"),
                VarDecl("implementationSlot", "address"),
                VarDecl("total", "uint256"),
            ),
            functions=(
                Function(name=f"mint_{suffix}",
                         params=(("amount", "uint256"),),
                         body=(Store("total", BinOp("+", Load("total"),
                                                    Param(0, "uint256"))),)),
                Function(name=f"total_{suffix}",
                         body=(Return(Load("total")),)),
                Function(name="ownerOf", body=(Return(Load("owner")),)),
            ),
        )

    def _deploy_fresh_logic(self, landscape: Landscape, year: int,
                            profile: profiles.YearProfile) -> bytes:
        # A slice of logic deployments are byte-identical clones of two
        # shared templates — the paper's Fig. 5b outliers (two logic
        # contracts with >10k duplicates each, source-available and hence
        # trivially cloneable).
        if self.rng.random() < 0.25:
            template_index = 0 if self.rng.random() < 0.7 else 1
            if not hasattr(self, "_logic_templates"):
                self._logic_templates = [
                    self._make_app_logic(f"SharedLogicTemplate{i}")
                    for i in range(2)]
            contract = self._logic_templates[template_index]
            kind = "shared_logic_clone"
        else:
            contract = self._make_app_logic(self._fresh_name("AppLogic"))
            kind = "app_logic"
        compiled = compile_contract(contract)
        address = self._deploy(landscape, compiled.init_code)
        truth = ContractTruth(address, kind, year)
        landscape.truths[address] = truth
        if self.rng.random() < profile.source_share:
            self._register_source(landscape, address, contract,
                                  compiled.runtime_code, truth)
        return address

    def _library_address(self, landscape: Landscape, year: int) -> bytes:
        if not hasattr(self, "_library"):
            contract = stdlib.math_library("SafeOpsLib")
            compiled = compile_contract(contract)
            self._library = self._deploy(landscape, compiled.init_code)
            landscape.truths[self._library] = ContractTruth(
                self._library, "library", year)
        return self._library

    # -------------------------------------------------------------- upgrades
    def _run_upgrades(self, landscape: Landscape,
                      candidates: list[tuple[bytes, str]]) -> None:
        """Fig. 6's upgrade process: rare, and mostly a single upgrade."""
        chain = landscape.chain
        chain.advance_to_block(chain.first_block_of_year(2023) + 1000)
        for address, kind in candidates:
            if self.rng.random() >= self.upgrade_probability:
                continue
            upgrades = 1
            while (self.rng.random() > profiles.UPGRADE_GEOMETRIC_P
                   and upgrades < profiles.MAX_UPGRADES):
                upgrades += 1
            truth = landscape.truths[address]
            selector = ("upgradeTo(address)" if kind in ("eip1967", "transparent")
                        else "setImplementation(address)")
            for _ in range(upgrades):
                new_logic = self._deploy_fresh_logic(
                    landscape, 2023, profiles.YEAR_PROFILES[2023])
                sender = self._owner_of(landscape, address, kind)
                receipt = chain.transact(
                    sender, address, encode_call(selector, [new_logic]))
                if receipt.success:
                    truth.logic_addresses.append(new_logic)
                    truth.upgrade_count += 1

    @staticmethod
    def _owner_of(landscape: Landscape, address: bytes, kind: str) -> bytes:
        """Recover the admin EOA able to upgrade the proxy."""
        from repro.lang.storage_layout import EIP1967_ADMIN_SLOT

        state = landscape.chain.state
        if kind in ("eip1967", "transparent"):
            word = state.get_storage(address, EIP1967_ADMIN_SLOT)
        else:
            word = state.get_storage(address, 0)
        return (word & ((1 << 160) - 1)).to_bytes(20, "big")


def generate_landscape(total: int = 600, seed: int = 42,
                       upgrade_probability: float | None = None,
                       chain_profile=None) -> Landscape:
    """Convenience wrapper around :class:`LandscapeGenerator`."""
    return LandscapeGenerator(
        total=total, seed=seed,
        upgrade_probability=upgrade_probability,
        chain_profile=chain_profile).generate()
