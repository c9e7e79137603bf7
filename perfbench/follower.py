"""A replication follower in its own process, for ``durable-stream``.

    python follower.py UPSTREAM WAL_DIR RESULT_JSON

Follows the primary at ``UPSTREAM`` into its own WAL, prints
``connected`` once the stream is up, and on a line (or end of file) on
standard input stops and writes its status, merged metrics and a digest
of its bank's ``export_state()`` to ``RESULT_JSON``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
from pathlib import Path

from repro.replicate.follower import FollowerConfig, ReplicationFollower


def main(argv: list[str]) -> int:
    upstream, wal_dir, out = argv
    follower = ReplicationFollower(FollowerConfig(
        upstream=upstream, wal_dir=wal_dir, n_shards=1, wal_fsync="batch",
        reconnect_backoff=0.02))
    follower.start()
    connected = follower.wait_connected(60.0)
    print("connected" if connected else "not connected", flush=True)
    sys.stdin.readline()
    follower.stop()
    status = {"last_seq": follower.last_seq,
              "events_applied": follower.stats.events_applied,
              "reconnects": follower.stats.reconnects}
    if follower.service is not None:
        state = follower.service.bank.export_state()
        status["metrics"] = dataclasses.asdict(follower.service.metrics())
        status["digest"] = hashlib.sha256(
            json.dumps(state, sort_keys=True).encode()).hexdigest()
    Path(out).write_text(json.dumps(status))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
