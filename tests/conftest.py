import numpy as np
import pytest

from photonboost.lorentz import PAD, TransformStack


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def angle_gap(a, b):
    """Distance between two angles modulo 2*pi."""
    return np.abs((np.asarray(a) - np.asarray(b) + np.pi) % (2 * np.pi) - np.pi)


def concatenated(stacks):
    """One stack of the rows of several, in order.

    The factor tables are padded to the widest with PAD (identity) entries,
    which change no float of the fold.
    """
    width = max(s.kinds.shape[1] for s in stacks)

    def padded(a, fill):
        return np.pad(a, ((0, 0), (0, width - a.shape[1])), constant_values=fill)

    return TransformStack(
        np.vstack([padded(s.kinds, PAD) for s in stacks]),
        np.vstack([padded(s.params, 0.0) for s in stacks]),
    )
