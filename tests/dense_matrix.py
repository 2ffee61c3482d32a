"""The measurement map as an explicit matrix, for singular value checks on
small grids."""

import numpy as np

from ringtat.detector import DetectorConfig, forward_operator
from ringtat.field import SpeedField


def assemble_forward_matrix(
    speed: SpeedField,
    config: DetectorConfig,
    support_radius: float = 1.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Dense matrix of the measurement map on pixels inside a support disc.

    Column j is the flattened record of the unit image at the j-th kept
    pixel; the boolean mask (second return) says which pixels were kept, in
    C order.
    """
    grid = speed.grid
    mask = grid.radius() < support_radius
    e = np.zeros((grid.n, grid.n))
    columns = []
    for i, j in np.argwhere(mask):
        e[i, j] = 1.0
        columns.append(forward_operator(e, speed, config).data.ravel())
        e[i, j] = 0.0
    return np.column_stack(columns), mask
