"""Neural decoders: linear SVM, shallow NN, Kalman filter + decomposition."""
