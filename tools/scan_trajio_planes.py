"""Re-derive ``trajio.format.DEFLATE_PAYS``: what deflate (level 6, best of
5) does to each byte plane of one 64-frame, 512-atom chunk — the perf
ledger's thermal stream (sigma 0.01 A/frame) and a melting one (0.1 A/frame
on a 0.05 A/frame drift), velocities at f8 and f4.  Prints the table of
``docs/trajectories.md``: ``PYTHONPATH=src python -m tools.scan_trajio_planes``."""
import zlib
from timeit import repeat

import numpy as np

from repro.trajio.format import byte_shuffle


def main() -> int:
    rng = np.random.default_rng(12)
    print("| stream | array | plane | ratio | KB saved | deflate ms "
          "| inflate ms |\n" + "| --- " * 7 + "|")
    for stream, (drift, sigma) in (("thermal", (0.0, 0.01)),
                                   ("melting", (0.05, 0.1))):
        steps = rng.normal(drift, sigma, (64, 512, 3))
        deltas = np.cumsum(steps, axis=0) - steps[0]    # off the keyframe
        for array, block in (("delta f4", deltas), ("velocity f8", 10 * steps),
                             ("velocity f4", 10 * steps)):
            size = int(array[-1])
            planes = byte_shuffle(block.astype(array[-2:]).tobytes(), size)
            for k in range(size):
                raw = planes[k * len(planes) // size:][:len(planes) // size]
                packed = zlib.compress(raw, 6)
                t_def, t_inf = (1e3 * min(repeat(fn, number=1, repeat=5))
                                for fn in (lambda: zlib.compress(raw, 6),
                                           lambda: zlib.decompress(packed)))
                print(f"| {stream} | {array} | {k} "
                      f"| {len(packed) / len(raw):.3f} "
                      f"| {(len(raw) - len(packed)) / 1024:.1f} "
                      f"| {t_def:.2f} | {t_inf:.2f} |")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
