"""Vision-kernel throughput — reference vs vectorized vs cached.

The workload models the paper's §3.2 setup: every client replays the
same looped video, so the recognition pipeline sees the *same frames
over and over*.  Each frame is pushed through SIFT → PCA → Fisher
three ways:

* **reference** — the per-keypoint/per-row loop twins from
  :mod:`repro.vision.reference` (the bit-identity baseline);
* **vectorized** — the batched production kernels, caching disabled;
* **cached** — the batched kernels behind the content-addressed
  :class:`~repro.vision.cache.FeatureCache` (every repeat is a hit).

All three produce bit-identical descriptors and encodings (enforced by
``tests/test_kernel_equivalence.py``; spot-checked again here), so the
frames/sec ratio is a pure like-for-like speedup.  The three arms run
interleaved, :data:`PASSES` times, and each reports its best pass.
Every cached pass gets a fresh cache and profiler, so each one times
the same cold-then-warm workload.  Results land in the committed
repo-root ``BENCH_perf_kernels.json`` together with the best cached
pass's per-stage profiler attribution.

Set ``BENCH_SMOKE=1`` to shrink the workload (CI).
"""

from __future__ import annotations

import json
import time

import numpy as np

from repro.metrics.profiling import StageProfiler
from repro.scatter.content import FrameFeatureExtractor
from repro.vision.cache import FeatureCache
from repro.vision.fisher import FisherEncoder, GaussianMixture
from repro.vision.image import to_grayscale
from repro.vision.pca import Pca
from repro.vision.reference import (
    ReferenceSiftExtractor,
    reference_fisher_encode,
)
from repro.vision.sift import SiftExtractor
from repro.vision.video import SyntheticVideo

from benchmarks.conftest import SMOKE, save_bench_json

#: Distinct frames per loop, and how often each repeats (≈ clients).
DISTINCT_FRAMES = 2 if SMOKE else 5
REPEATS = 3 if SMOKE else 6
FRAME_SIZE = (96, 128) if SMOKE else (144, 192)
#: Interleaved timing passes per arm; each arm keeps its best.
PASSES = 2 if SMOKE else 5


def _workload():
    """Frame numbers as N clients replaying the same loop would."""
    distinct = [i * 7 for i in range(DISTINCT_FRAMES)]
    return distinct * REPEATS


def _trained_stack():
    video = SyntheticVideo(seed=0, size=FRAME_SIZE)
    extractor = SiftExtractor(max_keypoints=150)
    descriptors = np.vstack([
        extractor.detect_and_describe(
            to_grayscale(video.frame(n).image))[1]
        for n in (0, 7)])
    pca = Pca(8).fit(descriptors)
    gmm = GaussianMixture(2, seed=0).fit(pca.transform(descriptors))
    return video, extractor, pca, FisherEncoder(gmm)


def _timed(fn, frames) -> tuple:
    start = time.perf_counter()
    outputs = [fn(number) for number in frames]
    elapsed = time.perf_counter() - start
    return len(frames) / elapsed, outputs


def test_kernel_throughput(save_result):
    video, extractor, pca, encoder = _trained_stack()
    frames = _workload()
    gray = {number: to_grayscale(video.frame(number).image)
            for number in set(frames)}

    reference_extractor = ReferenceSiftExtractor(extractor)

    def reference_frame(number):
        __, descriptors = \
            reference_extractor.detect_and_describe(gray[number])
        return reference_fisher_encode(encoder,
                                       pca.transform(descriptors))

    def vectorized_frame(number):
        __, descriptors = extractor.detect_and_describe(gray[number])
        return encoder.encode(pca.transform(descriptors))

    def plain_pass(fn):
        return lambda: _timed(fn, frames) + (None,)

    def cached_pass():
        """A fresh cache and profiler, so every pass starts cold."""
        profiler = StageProfiler()
        backend = FrameFeatureExtractor(
            video, extractor, pca=pca, encoder=encoder,
            cache=FeatureCache(), profiler=profiler)
        return _timed(backend.encoding, frames) + (
            (backend.stats(), profiler),)

    passes = {"reference": plain_pass(reference_frame),
              "vectorized": plain_pass(vectorized_frame),
              "cached": cached_pass}
    best = {}
    expected = None
    for _ in range(PASSES):
        for name, timed_pass in passes.items():
            fps, outputs, detail = timed_pass()
            # The three paths stay bit-identical on every pass (the
            # full sweep lives in tests/test_kernel_equivalence.py).
            encoded = [output.tobytes() for output in outputs]
            if expected is None:
                expected = encoded
            assert encoded == expected, name
            if name not in best or fps > best[name][0]:
                best[name] = (fps, detail)
    reference_fps = best["reference"][0]
    vectorized_fps = best["vectorized"][0]
    cached_fps, (stats, profiler) = best["cached"]
    assert stats.hits > 0  # repeats actually hit the cache

    entry = {
        "workload": {
            "distinct_frames": DISTINCT_FRAMES,
            "repeats": REPEATS,
            "frame_size": list(FRAME_SIZE),
            "smoke": SMOKE,
            "passes": PASSES,
        },
        "reference_fps": round(reference_fps, 3),
        "vectorized_fps": round(vectorized_fps, 3),
        "cached_fps": round(cached_fps, 3),
        "vectorized_speedup": round(vectorized_fps / reference_fps, 2),
        "cached_speedup": round(cached_fps / reference_fps, 2),
        "cache": stats.as_dict(),
        "profile": profiler.as_dict(),
        "bit_identical": True,
    }
    save_bench_json("perf_kernels", entry)
    save_result("perf_kernels", json.dumps(entry, indent=2,
                                           sort_keys=True))

    # The acceptance bar: vectorized + cached is at least 2x the loop
    # reference on a repeated-frame workload.  In practice the gap is
    # one to two orders of magnitude.
    assert vectorized_fps > reference_fps, entry
    assert cached_fps >= 2.0 * reference_fps, entry
