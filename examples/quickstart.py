#!/usr/bin/env python3
"""Quickstart: authenticated, encrypted, error-correcting memory.

Builds the paper's *combined* configuration (delta-encoded counters +
MAC-in-ECC) over a 1 MB protected region and walks through the complete
feature set: encrypted writes/reads, DRAM-fault correction via
flip-and-check, tamper detection, and replay detection.

Run:  python examples/quickstart.py
"""

import os

from repro import IntegrityError, SecureMemory, preset


def main() -> None:
    # 48 bytes of key material: 16 (AES-CTR) + 24 (MAC) + 8 (tree).
    key = os.urandom(48)
    config = preset(
        "combined",
        protected_bytes=1024 * 1024,
        # simulation-speed SplitMix64 keystream and MAC mask; "fast",
        # "aesni" or "reference" run real AES instead
        keystream_mode="splitmix",
    )
    memory = SecureMemory(config, key)
    print(f"protected region : {config.protected_bytes // 1024} KiB")
    print(f"counter scheme   : {config.counter_scheme}")
    print(f"MAC placement    : {'ECC bits' if config.mac_in_ecc else 'separate'}")
    print(f"tree levels      : {memory.tree.geometry.level_sizes}")

    # -- encrypted storage ------------------------------------------------
    secret = b"attack at dawn".ljust(64, b"\x00")
    memory.write(0x0000, secret)
    print("\nwrite + read     :", memory.read(0x0000).data[:14])

    ciphertext = memory.ciphertexts[0]
    print("ciphertext (hex) :", ciphertext[:14].hex(), "...")
    assert ciphertext != secret

    # -- DRAM faults are corrected transparently ---------------------------
    memory.flip_data_bits(0x0000, [100])  # a cosmic ray
    result = memory.read(0x0000)
    print(
        f"\n1-bit fault      : corrected bit {result.corrected_bits}, "
        f"{result.correction_checks} MAC check(s)"
    )
    memory.flip_data_bits(0x0000, [3, 400])  # a double upset
    result = memory.read(0x0000)
    print(
        f"2-bit fault      : corrected bits {tuple(sorted(result.corrected_bits))}, "
        f"{result.correction_checks} MAC check(s)"
    )

    # -- tampering is detected ---------------------------------------------
    memory.flip_data_bits(0x0000, [1, 2, 3, 4, 5, 6, 7, 8])
    try:
        memory.read(0x0000)
    except IntegrityError as error:
        print(f"\n8-bit tamper     : rejected ({error.kind}: {error})")
    memory.flip_data_bits(0x0000, [1, 2, 3, 4, 5, 6, 7, 8])  # undo

    # -- replay attacks are detected ----------------------------------------
    memory.write(0x40, b"balance: $1,000,000".ljust(64, b"\x00"))
    snapshot = memory.snapshot_block(0x40)  # attacker records everything
    memory.write(0x40, b"balance: $5".ljust(64, b"\x00"))
    memory.rollback_block(0x40, snapshot)  # ...and puts it all back
    try:
        memory.read(0x40)
    except IntegrityError as error:
        print(f"replay attack    : rejected ({error.kind})")

    print(
        f"\nengine counters  : {memory.counters.reads} reads, "
        f"{memory.counters.writes} writes, "
        f"{memory.counters.corrections} corrections"
    )


if __name__ == "__main__":
    main()
