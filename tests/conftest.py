"""Shared fixtures and helpers for the test suite."""
from __future__ import annotations

import os

import pytest

from galkit import catalog
from galkit.order import FinPoset, SetLattice, downset_masks, moore_lattice_of_masks

# asserts in the shared oracles must hold under ``python -O`` too, as in the
# test modules, which pytest rewrites
pytest.register_assert_rewrite("oracles")

PROGRAMS_DIR = os.path.join(os.path.dirname(__file__), "programs")


def program_text(name: str) -> str:
    with open(os.path.join(PROGRAMS_DIR, name), encoding="utf-8") as fh:
        return fh.read()


def downsets_lattice(poset: FinPoset) -> SetLattice:
    """The lattice of the downsets of ``poset``: they are closed under
    intersection and hold the whole poset, so they are their own Moore
    family."""
    return moore_lattice_of_masks(poset.elements, downset_masks(poset))


def slot_names(cls) -> list[str]:
    """Every slot that ``cls`` and its bases declare, in method resolution
    order."""
    return [name for c in cls.__mro__ for name in c.__dict__.get("__slots__", ())]


def program_names() -> list[str]:
    return sorted(
        f for f in os.listdir(PROGRAMS_DIR) if f.endswith(".while")
    )


@pytest.fixture(scope="session")
def sign_pgi():
    return catalog.builtin("sign_pgi", 64)


@pytest.fixture(scope="session")
def signconst():
    return catalog.builtin("signconst_pcgc", 64)


@pytest.fixture(scope="session")
def parity():
    return catalog.builtin("parity", 64)
