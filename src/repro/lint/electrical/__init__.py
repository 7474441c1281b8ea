"""Quantitative electrical safety analysis (the NSA6xx rule group).

The post-sizing static-analysis pass behind ``repro lint --electrical``:
charge-sharing certificates (NSA601), keeper ratioed-fight and restore
proofs (NSA602), pass-chain level-degradation budgets (NSA603), and
coupling-interval noise screens (NSA604).  See DESIGN.md §12.
"""

from .model import (
    DEFAULT_OPTIONS,
    ChargeShareCert,
    CouplingCert,
    ElectricalScreen,
    KeeperCert,
    PassChainCert,
    charge_share_certificates,
    coupling_certificates,
    keeper_certificates,
    pass_chain_certificates,
    port_noise_margin,
    screen_electrical,
    worst_noise_margin,
)

__all__ = [
    "DEFAULT_OPTIONS",
    "ChargeShareCert",
    "CouplingCert",
    "ElectricalScreen",
    "KeeperCert",
    "PassChainCert",
    "charge_share_certificates",
    "coupling_certificates",
    "keeper_certificates",
    "pass_chain_certificates",
    "port_noise_margin",
    "screen_electrical",
    "worst_noise_margin",
]
