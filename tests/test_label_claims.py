"""Overlap labelling when claims are weak or collide, and the graph's
treatment of the levels left unlabelled."""

import numpy as np
import pytest

from spinboson import (
    BasisIndex,
    ModelParams,
    build_control,
    build_rabi,
    coupling_graph,
    diagonalize,
)
from spinboson.fockmodel import basis_order
from spinboson.spectral import _attach_labels

# omega = Omega: the bare levels above the ground state come in tied pairs,
# which a tiny coupling mixes half and half
TIED = ModelParams(1.0, 1.0, 1e-8, 4)


def test_tied_pairs_are_ambiguous():
    spec = diagonalize(build_rabi(TIED), TIED)
    assert spec.ambiguous == [1, 2, 3, 4, 5, 6]
    assert spec.labels == {0: BasisIndex(0, -1), 7: BasisIndex(3, 1)}


def test_graph_excludes_unlabelled_levels():
    spec = diagonalize(build_rabi(TIED), TIED)
    graph = coupling_graph(spec, build_control(TIED), window=6)
    assert graph.excluded == [1, 2, 3, 4, 5]
    assert graph.nodes == [(0, BasisIndex(0, -1))]
    assert graph.edges == []


@pytest.mark.parametrize("strong_first", [True, False])
def test_duplicate_claim_goes_to_the_stronger_column(strong_first):
    # both columns put most weight on basis vector 0; neither is a tie
    strong, weak = [0.9, 0.3, 0.2, 0.1], [0.8, 0.5, 0.2, 0.1]
    columns = [strong, weak] if strong_first else [weak, strong]
    labels, ambiguous = _attach_labels(np.array(columns).T, basis_order(2))
    keeper, loser = (0, 1) if strong_first else (1, 0)
    assert labels == {keeper: BasisIndex(0, 1)}  # linear index 0
    assert ambiguous == [loser]
