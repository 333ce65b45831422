"""Every library refusal that no other test reaches, one row each, with its
message: the checks of shapes, ranges and modes that guard the public
constructors and helpers."""

import os
from unittest import mock

import numpy as np
import pytest

from unruhcap import channelsim, cli, combinat, regions, spectra
from unruhcap.engine import TradeoffEvaluator


def unwritable_output():
    # As root every path is writable, so the permission check is patched.
    with mock.patch.object(os, "access", return_value=False):
        cli._check_output("out.csv")


def mismatched_isometry():
    # An isometry built without a (dim_B, dim_E) split has no B or E to keep.
    isometry = channelsim.Isometry(np.eye(3)[:, :2])
    channelsim.apply_channel(isometry, channelsim.DensityMatrix.pure([1.0, 0.0]))


REFUSALS = {
    "cloner-spec-has-no-unruh-config": (
        lambda: regions.ChannelSpec(2, k=1).unruh_config(),
        "not an Unruh-mode channel spec",
    ),
    "evaluator-empty-weights": (
        lambda: TradeoffEvaluator(2, [], 2.0),
        "block weights must be a nonempty 1-D array",
    ),
    "evaluator-2d-weights": (
        lambda: TradeoffEvaluator(2, [[1.0]], 2.0),
        "block weights must be a nonempty 1-D array",
    ),
    "composition-dimension-0": (
        lambda: combinat.composition_matrix(0, 1),
        "composition dimension must be an integer >= 1, got 0",
    ),
    "composition-weight-past-int32": (
        lambda: combinat.composition_matrix(2, 2**31),
        f"composition weight {2**31} out of supported range",
    ),
    "block-dimension-negative-weight": (
        lambda: combinat.block_dimension(2, -1),
        "weight must be an integer >= 0, got -1",
    ),
    "spectrum-misaligned": (
        lambda: spectra.Spectrum([0.5, 0.5], [1]),
        "values and multiplicities must be 1-D and aligned",
    ),
    "spectrum-empty": (
        lambda: spectra.Spectrum([], []),
        "spectrum needs at least one atom",
    ),
    "vertex-index-out-of-range": (
        lambda: spectra.EnsembleParams.vertex(2, 2),
        "vertex index out of range",
    ),
    "ensemble-of-the-wrong-dimension": (
        lambda: regions.cloner_entropy_triple(3, 1, (0.5, 0.5)),
        "ensemble has 2 weights, expected 3",
    ),
    "density-matrix-not-square": (
        lambda: channelsim.DensityMatrix(np.ones((2, 3))),
        "density matrix must be square",
    ),
    "isometry-wider-than-tall": (
        lambda: channelsim.Isometry(np.eye(3)[:2]),
        "isometry must have at least as many rows as columns",
    ),
    "kraus-set-empty": (
        lambda: channelsim.KrausSet(()),
        "Kraus set must be nonempty",
    ),
    "kraus-shapes-differ": (
        lambda: channelsim.KrausSet((np.eye(2), np.eye(3))),
        "Kraus operators must share a common shape",
    ),
    "isometry-of-no-cloner-block": (
        mismatched_isometry,
        "isometry has no (dim_B, dim_E) split",
    ),
    "block-output-amplitude-count": (
        lambda: channelsim.unruh_block_output(2, 1, [1.0, 0.0, 0.0]),
        "input amplitudes must have length 2",
    ),
    "block-output-unnormalized": (
        lambda: channelsim.unruh_block_output(2, 1, [1.0, 1.0]),
        "input amplitudes must be normalized",
    ),
    "output-permission-denied": (
        unwritable_output,
        "cannot write output 'out.csv': permission denied",
    ),
}


@pytest.mark.parametrize("call, message", REFUSALS.values(), ids=REFUSALS.keys())
def test_library_refuses_with_its_message(call, message):
    with pytest.raises(ValueError) as excinfo:
        call()
    assert str(excinfo.value) == message
