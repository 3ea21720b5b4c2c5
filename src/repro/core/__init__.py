"""The distributed SCALO system core: nodes, system, architectures,
thermal model, clock sync."""
