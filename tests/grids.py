"""Score-grid helpers shared by the codec tests."""

import numpy as np

from tie.codec import GoldMatrix


def lift(gold: GoldMatrix | np.ndarray) -> np.ndarray:
    """Map a binary grid to well-separated probabilities {0 -> .01, 1 -> .99}."""
    data = gold.data if isinstance(gold, GoldMatrix) else gold
    return np.where(data > 0.5, 0.99, 0.01)
