"""Cryptography substrate: the AES PE (off-implant telemetry encryption)."""
