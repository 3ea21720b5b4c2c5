"""BCI applications: seizure propagation, movement intent, spike sorting,
interactive queries."""
