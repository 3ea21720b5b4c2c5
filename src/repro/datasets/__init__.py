"""Synthetic neural datasets with ground truth (iEEG seizures, spikes)."""
