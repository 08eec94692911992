"""Run bookkeeping: named seed streams, stage timing and the manifest that
records a command's options and the hash of every artifact it wrote.

Standard library only, so a command that needs no model -- ``preprocess``
above all -- loads none.  :mod:`qforecast.runner` exports the same names.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path


def derive_seed(master_seed: int, *names) -> int:
    """A stable named sub-stream seed (independent of process hashing)."""
    text = json.dumps([int(master_seed), *map(str, names)])
    digest = hashlib.sha256(text.encode()).digest()
    return int.from_bytes(digest[:8], "big") % (2**63)


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


@dataclass
class StageTimer:
    times: dict = field(default_factory=dict, init=False)  # stage name -> seconds

    def time(self, name: str):
        timer = self

        class _Ctx:
            def __enter__(self):
                self.start = time.perf_counter()

            def __exit__(self, *exc):
                timer.times[name] = timer.times.get(name, 0.0) + time.perf_counter() - self.start

        return _Ctx()


def write_manifest(directory, command: str, resolved_config: dict, seed: int,
                   wall_times: dict, artifact_paths: list) -> Path:
    directory = Path(directory)
    manifest = {
        "command": command,
        "config": resolved_config,
        "seed": seed,
        "wall_times_sec": {k: round(v, 3) for k, v in wall_times.items()},
        "artifacts": [
            {"path": str(Path(p).relative_to(directory)), "sha256": sha256_file(p)}
            for p in artifact_paths
        ],
    }
    path = directory / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return path
