"""Physical constants and unit helpers for the measured system.

These are the numbers the paper states about the Sprite cluster and its
caching policies.  Everything that models Sprite behaviour imports its
constants from here, so an ablation (say, a 60-second delayed write) can
be expressed by overriding a config field rather than editing policy code.
"""

from __future__ import annotations

# --- byte units -----------------------------------------------------------

KB = 1024
MB = 1024 * KB
GB = 1024 * MB

#: Sprite caches file data in 4-Kbyte blocks on both clients and servers.
BLOCK_SIZE = 4 * KB

# --- time units (simulated seconds) ---------------------------------------

SECOND = 1.0
MINUTE = 60.0
HOUR = 3600.0
DAY = 24 * HOUR

#: Delay before dirty data is written from a client cache to the server.
DELAYED_WRITE_SECONDS = 30.0

#: The writeback daemon scans the cache for 30-second-old dirty data
#: every 5 seconds.
WRITEBACK_SCAN_INTERVAL = 5.0

#: A physical page used by the virtual memory system cannot be taken by
#: the file cache unless it has been unreferenced for at least 20 minutes.
VM_PREFERENCE_SECONDS = 20 * MINUTE

#: The paper reports on 10-minute steady-state and 10-second burst windows.
TEN_MINUTES = 10 * MINUTE
TEN_SECONDS = 10 * SECOND

# --- cluster parameters from Section 2 ------------------------------------

#: ~40 diskless client workstations.
DEFAULT_CLIENT_COUNT = 40

#: Four file servers; most traffic handled by one Sun 4.
DEFAULT_SERVER_COUNT = 4

#: Most clients had 24 to 32 Mbytes of memory.
DEFAULT_CLIENT_MEMORY = 24 * MB

#: The main file server had 128 Mbytes of memory.
DEFAULT_SERVER_MEMORY = 128 * MB

# --- latency model parameters from Section 5.3 ----------------------------

#: Fetching a 4-Kbyte page from a server's cache over Ethernet: 6-7 ms.
REMOTE_PAGE_FETCH_SECONDS = 6.5e-3

#: Typical disk access time at the time of the study: 20-30 ms.
DISK_ACCESS_SECONDS = 25e-3

#: Raw bandwidth of the study's Ethernet (10 Mbit/s) in bytes/second.
ETHERNET_BANDWIDTH = 10 * 1000 * 1000 / 8


def bytes_to_mbytes(n: float) -> float:
    """Convert a byte count to Mbytes (the unit Table 1 reports)."""
    return n / MB
