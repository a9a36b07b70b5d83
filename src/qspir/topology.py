"""Who holds which pool: the three parties, their links and pool files.

Pool files live at ``<pool_dir>/<party>/<link>.qkey``; each link's two
ends hold identical material. :func:`load_party_store` is how every party
(``serve-dc``, ``get`` and the demo) opens its pools: it replays the
party's existing ledger, so a restarted party never reserves, and so never
applies, a range that an earlier run reserved.
"""

from __future__ import annotations

import os

from .keystore import KeyPool, KeyStore

#: Each party's link pools; a data centre's user link comes first.
PARTY_LINKS: dict[str, tuple[str, ...]] = {
    "user": ("user-dc1", "user-dc2"),
    "dc1": ("user-dc1", "dc-pair"),
    "dc2": ("user-dc2", "dc-pair"),
}

#: Every link once, in provisioning order.
LINKS = tuple(
    dict.fromkeys(link for links in PARTY_LINKS.values() for link in links)
)


def install_pools(pool_dir: str, materials: dict[str, bytes]) -> list[str]:
    """Write every party's copy of each link pool; returns the paths."""
    paths = []
    for party, links in PARTY_LINKS.items():
        os.makedirs(os.path.join(pool_dir, party), exist_ok=True)
        for link in links:
            path = os.path.join(pool_dir, party, f"{link}.qkey")
            KeyPool(link, materials[link]).save(path)
            paths.append(path)
    return paths


def load_party_store(
    pool_dir: str, party: str, ledger: str | None = None
) -> KeyStore:
    """Load a party's pools and replay its ledger, if that file exists.

    A missing ledger means no history. Without a ledger a restarted party
    cannot know which pads an earlier run spent.
    """
    store = KeyStore(ledger_path=ledger)
    for link in PARTY_LINKS[party]:
        store.add_pool(
            KeyPool.load(os.path.join(pool_dir, party, f"{link}.qkey"))
        )
    if ledger and os.path.exists(ledger):
        store.replay_ledger(KeyStore.read_ledger(ledger))
    return store
