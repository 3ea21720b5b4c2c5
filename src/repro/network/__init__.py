"""Wireless networking: packets, the BER channel, radios, TDMA, ARQ, partitions."""
