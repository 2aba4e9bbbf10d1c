"""dualflow: structure-preserving dual-field solver for 2D incompressible
flow and dilute turbidity currents on triangulated channels."""

__version__ = "0.1.0"

from .mesh import (
    ChannelGeometry,
    Mesh,
    build_channel_mesh,
    build_periodic_rect_mesh,
    read_mesh_text,
)
from .spaces import FunctionSpace, make_space, space_dimension

__all__ = [
    "ChannelGeometry",
    "Mesh",
    "build_channel_mesh",
    "build_periodic_rect_mesh",
    "read_mesh_text",
    "FunctionSpace",
    "make_space",
    "space_dimension",
    "__version__",
]
