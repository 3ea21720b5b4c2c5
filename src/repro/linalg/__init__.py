"""Linear-algebra PE cluster: MAD/ADD/SUB, Gauss-Jordan INV, block tiling."""

from repro.linalg.inverse import (
    gauss_jordan_inverse,
    inv_nvm_traffic_bytes,
    inverse_operation_count,
)
from repro.linalg.mad import (
    ELEMENT_BYTES,
    PE_REGISTER_BYTES,
    PostOp,
    fits_in_registers,
    mad,
    mad_operation_count,
    matrix_add,
    matrix_sub,
)
from repro.linalg.tiling import (
    BLOCK_WAYS,
    MAD_CLUSTER_SIZE,
    block_multiply,
    max_square_dim_in_registers,
    needs_nvm,
    split_even,
)

__all__ = [
    "gauss_jordan_inverse",
    "inv_nvm_traffic_bytes",
    "inverse_operation_count",
    "ELEMENT_BYTES",
    "PE_REGISTER_BYTES",
    "PostOp",
    "fits_in_registers",
    "mad",
    "mad_operation_count",
    "matrix_add",
    "matrix_sub",
    "BLOCK_WAYS",
    "MAD_CLUSTER_SIZE",
    "block_multiply",
    "max_square_dim_in_registers",
    "needs_nvm",
    "split_even",
]
