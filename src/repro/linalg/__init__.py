"""Linear-algebra PE cluster: MAD with its post-ops, Gauss-Jordan INV,
work splitting and register-file limits."""
