"""Signal-processing substrate: the feature kernels of the small PEs."""
