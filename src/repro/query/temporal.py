"""Temporal-coherence execution layer: delta gating and adaptive-stride scanning.

Monitoring video is overwhelmingly redundant frame to frame: a parked car
stays parked, an empty intersection stays empty.  The batched (PR 1),
windowed (PR 2) and multi-query (PR 3) engines all still evaluate every
frame of the scan from scratch.  This module exploits the redundancy
directly, with two cooperating mechanisms:

* **Delta gating** (:class:`DeltaGate`).  Every frame is reduced to a cheap
  block-mean *signature*; when the signature differs from the last keyframe's
  by less than a threshold, the keyframe's cached outcome — filter
  predictions, cascade verdict, detector verdict — is reused instead of
  recomputed.  A keyframe-refresh policy bounds how long a keyframe may be
  reused (``keyframe_interval``), so slow cumulative drift cannot hide
  behind a per-frame threshold forever.

* **Adaptive-stride scanning** (:class:`TemporalScan`).  Over stable
  segments the scan does not even render the intermediate frames: the stride
  doubles after every stable, verdict-preserving step (up to
  ``max_stride``), skipped frames inherit the bracketing outcome, and when
  two consecutively evaluated frames *disagree* the match boundary between
  them is localized by binary-search refinement — O(log stride) probes
  instead of stride re-evaluations.

Both mechanisms trade accuracy for cost through one knob, exactly in the
spirit of the paper's approximate filters.  Two modes make the trade
explicit:

* ``exact=True`` (the default) is a *verification* mode: every reused or
  inherited outcome is re-derived from scratch without charging the
  simulated clock, compared against the cached outcome, and the re-derived
  outcome is the one used — so results are bit-identical to a non-temporal run,
  while the simulated cost still reflects what an approximate run would
  have charged and ``TemporalStats.reuse_mismatches`` reports how often the
  cache would have been wrong.  One caveat: when a mismatch is found, the
  verified truth replaces the cached outcome and drives the subsequent
  stride/refinement decisions, whereas ``exact=False`` would have kept the
  stale verdict — so after the first mismatch the two modes' scan
  trajectories (and hence their exact reuse counts) can diverge.  With zero
  mismatches the charged cost is identical.
* ``exact=False`` is the deployment mode: reused outcomes are trusted as-is,
  skipped frames are never rendered, and ``TemporalStats.reuse_rate`` is the
  achieved saving.

Avoided work is charged to the clock as *reused* calls
(:meth:`repro.cost.SimulatedClock.reuse`): zero milliseconds, but counted,
so every :class:`~repro.cost.CostBreakdown` shows reused-vs-computed call
counts side by side.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Hashable, Sequence

import numpy as np

from repro.video.stream import Frame

if TYPE_CHECKING:  # runtime import would be circular: the session imports this module
    from repro.query.session import _ChunkVerdict


@dataclass(frozen=True)
class TemporalConfig:
    """Knobs of the temporal-coherence execution layer.

    ``delta_threshold`` is compared against the *maximum* per-block absolute
    difference of the block-mean signatures (0–255 pixel scale); the max —
    not the mean — keeps a small moving object visible against a large
    static background.  ``downsample`` is the signature's block edge in
    pixels: larger blocks are cheaper and more noise-tolerant but blur small
    motion.  ``keyframe_interval`` bounds consecutive reuses of one
    keyframe.  ``max_stride`` caps adaptive-stride scanning; ``1`` disables
    it (every frame is rendered and gated).  ``exact`` selects the
    verification mode described in the module docstring.
    """

    delta_threshold: float = 5.0
    downsample: int = 8
    keyframe_interval: int = 30
    max_stride: int = 1
    exact: bool = True

    def __post_init__(self) -> None:
        # A NaN threshold compares false against every score (the gate would
        # silently never reuse), and a float block edge would fail mid-scan
        # inside frame_signature: reject both here, before any scan starts.
        if not (math.isfinite(self.delta_threshold) and self.delta_threshold >= 0):
            raise ValueError(
                f"delta_threshold must be finite and non-negative: {self.delta_threshold}"
            )
        for name in ("downsample", "keyframe_interval", "max_stride"):
            value = getattr(self, name)
            try:
                operator.index(value)
            except TypeError:
                raise TypeError(f"{name} must be an integer: {value!r}") from None
            if value < 1:
                raise ValueError(f"{name} must be positive: {value}")


#: largest block edge whose uint8 block sums (<= 255 * 256**2 < 2**24) float32
#: holds exactly; frame_signature's integer path stops here
_EXACT_BLOCK = 256


def frame_signature(image: np.ndarray, downsample: int) -> np.ndarray:
    """Block-mean signature of ``image``: ``(H//b, W//b)`` float32.

    Color channels are averaged together — the gate detects *presence*
    changes, for which luminance suffices — and a trailing remainder smaller
    than the block size is cropped, so any frame geometry is accepted.

    A uint8 frame with blocks of at most ``_EXACT_BLOCK`` pixels takes the
    integer path: exact block sums by strided adds (rows, then columns),
    then the float32 steps a float32 ``mean`` applies, in its order —
    divide each channel by ``block**2``, add the channels left to right,
    divide by the channel count.  Every partial sum the float32 ``mean``
    forms is an integer of at most ``255 * block**2 <= 2**24``, so it is
    exact there too, and both paths return the same bits.  Other frames
    take the float ``mean`` itself.
    """
    if image.ndim == 2:
        image = image[:, :, None]
    height, width = image.shape[0], image.shape[1]
    block = max(1, min(downsample, height, width))
    rows = (height // block) * block
    cols = (width // block) * block
    trimmed = image[:rows, :cols]
    if image.dtype != np.uint8 or block > _EXACT_BLOCK:
        pooled = trimmed.astype(np.float32).reshape(
            rows // block, block, cols // block, block, -1
        ).mean(axis=(1, 3))
        return pooled.mean(axis=-1)
    dtype = np.uint16 if 255 * block * block <= np.iinfo(np.uint16).max else np.uint32
    row_sums = trimmed[0::block].astype(dtype)
    for offset in range(1, block):
        row_sums += trimmed[offset::block]
    sums = row_sums[:, 0::block].copy()
    for offset in range(1, block):
        sums += row_sums[:, offset::block]
    means = sums.astype(np.float32) / np.float32(block * block)
    signature = means[..., 0].copy()
    for channel in range(1, means.shape[-1]):
        signature += means[..., channel]
    return signature / np.float32(means.shape[-1])


def delta_score(signature: np.ndarray, reference: np.ndarray) -> float:
    """Maximum per-block absolute difference between two signatures."""
    if signature.shape != reference.shape:
        raise ValueError(
            f"signature shapes differ: {signature.shape} vs {reference.shape}"
        )
    return float(np.max(np.abs(signature - reference)))


@dataclass(frozen=True)
class TemporalStats:
    """Telemetry of one temporally-coherent scan.

    ``frames_computed + frames_reused + frames_skipped == frames_total``:
    computed frames were evaluated from scratch (keyframes and refinement
    probes that missed the gate), reused frames were rendered and gated but
    served from the keyframe cache, skipped frames were never rendered at
    all (adaptive stride) and inherited a bracketing outcome.

    ``filter_reuses`` / ``detector_reuses`` count the component invocations
    the reuse avoided (also recorded on the clock as reused calls);
    ``verified_frames`` / ``reuse_mismatches`` are exact-mode telemetry —
    how many reused outcomes were re-derived for verification, and how many
    of those the cache would have gotten wrong.
    """

    frames_total: int
    frames_computed: int
    frames_reused: int
    frames_skipped: int
    refinement_probes: int
    verified_frames: int
    reuse_mismatches: int
    max_stride_used: int
    filter_reuses: int = 0
    detector_reuses: int = 0

    @property
    def reuse_rate(self) -> float:
        """Fraction of scanned frames served without a full evaluation.

        ``nan`` for an empty scan (no frames at all), mirroring
        :attr:`~repro.query.results.ExecutionStats.filter_selectivity`.
        """
        if self.frames_total == 0:
            return float("nan")
        return (self.frames_reused + self.frames_skipped) / self.frames_total


class _Telemetry:
    """Mutable counterpart of :class:`TemporalStats` while a scan runs."""

    def __init__(self) -> None:
        self.frames_total = 0
        self.frames_computed = 0
        self.frames_reused = 0
        self.frames_skipped = 0
        self.refinement_probes = 0
        self.verified_frames = 0
        self.reuse_mismatches = 0
        self.max_stride_used = 1
        self.filter_reuses = 0
        self.detector_reuses = 0

    def freeze(self) -> TemporalStats:
        return TemporalStats(**vars(self))


class DeltaGate:
    """Cheap change detector with a cached keyframe outcome.

    The gate holds the signature of the last *keyframe* (the last frame that
    was fully evaluated) together with the opaque outcome of that
    evaluation.  :meth:`decide` answers "may this frame reuse the keyframe's
    outcome?": yes iff a keyframe exists, the caller-supplied context is
    unchanged (e.g. the same set of queries covers both frames), the reuse
    streak is still under ``keyframe_interval``, and the signature delta is
    at or below the threshold.
    """

    def __init__(self, config: TemporalConfig) -> None:
        self.config = config
        self._signature: np.ndarray | None = None
        self._context: Hashable = None
        self._outcome: object = None
        self._streak = 0
        # One-entry signature memo so a decide() followed by set_keyframe()
        # on the same image computes the block means once.  Keyed by object
        # identity; holding the image reference keeps the id stable.
        self._signature_memo: tuple[np.ndarray, np.ndarray] | None = None
        #: delta score of the most recent :meth:`decide` call (``nan`` before any)
        self.last_score: float = float("nan")

    def _signature_of(self, image: np.ndarray) -> np.ndarray:
        memo = self._signature_memo
        if memo is not None and memo[0] is image:
            return memo[1]
        signature = frame_signature(image, self.config.downsample)
        self._signature_memo = (image, signature)
        return signature

    @property
    def outcome(self) -> object:
        """The cached keyframe outcome (meaningful after a ``True`` decision)."""
        return self._outcome

    def decide(self, image: np.ndarray, context: Hashable = None) -> bool:
        """Whether ``image`` may reuse the cached keyframe outcome."""
        if self._signature is None or context != self._context:
            return False
        if self._streak >= self.config.keyframe_interval:
            return False
        signature = self._signature_of(image)
        if signature.shape != self._signature.shape:
            return False
        self.last_score = delta_score(signature, self._signature)
        return self.last_score <= self.config.delta_threshold

    def mark_reused(self) -> None:
        """Record one reuse of the current keyframe (advances the streak)."""
        self._streak += 1

    def set_keyframe(self, image: np.ndarray, outcome: object, context: Hashable = None) -> None:
        """Install ``image`` as the new keyframe with its evaluated ``outcome``."""
        self._signature = self._signature_of(image)
        self._outcome = outcome
        self._context = context
        self._streak = 0

    def replace_outcome(self, outcome: object) -> None:
        """Swap the cached payload without touching the signature or streak.

        Used by exact-mode verification when the cache drifted: the gating
        behaviour stays identical to the approximate mode (same signature,
        same streak), but later reuses inherit the corrected outcome.
        """
        self._outcome = outcome

    def state_dict(self) -> dict:
        """Checkpointable gate state (see :meth:`ScanSession.checkpoint`).

        The signature is copied (it is derived data, cheap and small); the
        cached outcome is included as-is — a session's cached verdict is a
        plain dataclass of tuples, dicts and ints, picklable by construction.  The
        signature memo is deliberately dropped: it is keyed by object
        identity, which does not survive a process boundary.
        """
        return {
            "signature": (
                None if self._signature is None else np.array(self._signature, copy=True)
            ),
            "context": self._context,
            "outcome": self._outcome,
            "streak": self._streak,
            "last_score": self.last_score,
        }

    def load_state(self, state: dict) -> None:
        """Restore :meth:`state_dict` output into this gate."""
        signature = state["signature"]
        self._signature = None if signature is None else np.array(signature, copy=True)
        self._context = state["context"]
        self._outcome = state["outcome"]
        self._streak = int(state["streak"])
        self._signature_memo = None
        self.last_score = float(state["last_score"])


def _key(verdict: _ChunkVerdict) -> Hashable:
    """What the adaptive stride compares: a verdict's pass and match rows."""
    return verdict.passed, verdict.matched


class TemporalScan:
    """The one gate loop: temporally-coherent scanning over frame indices.

    This is the only code that drives a :class:`DeltaGate`, and
    :class:`~repro.query.session.ScanSession` is its one owner.  The scan is
    *resumable*: it owns its gate across :meth:`run` calls, so a keyframe
    installed by one run serves reuses in the next (:meth:`state_dict` /
    :meth:`load_state` carry the gate through
    :meth:`ScanSession.checkpoint`); only the adaptive stride restarts at 1
    with every run.  The session runs it two ways:

    * :meth:`~repro.query.session.ScanSession.run_temporal_scan` — the
      one-shot executor: one run over the whole index sequence, with
      striding and refinement, ``render`` reading the stream;
    * :meth:`~repro.query.session.ScanSession.push_chunk` on a degraded
      live session — one run per pushed chunk with ``DEGRADED_GATE``
      (``max_stride=1``), ``render`` reading the pushed frames.

    The per-frame outcome is the session's ``_ChunkVerdict`` of a chunk of
    one.  The adaptive stride watches its ``(passed, matched)`` rows for
    boundaries, and a verdict with ``poisoned`` frames (a detector call cut
    short) never becomes the keyframe outcome, so it is not replayed onto
    its neighbours.  The session supplies two calls:

    * ``evaluate(frame, context, charged) -> verdict`` — the full frame
      evaluation; ``charged=False`` is exact-mode verification, which
      charges no filter or detector call, so an exact run reports what an
      approximate run would have charged;
    * ``reuse(verdict) -> (filter calls, detector calls)`` — record the
      invocations an avoided evaluation would have made (reused calls on
      the clock) and return how many there were.

    :meth:`run` also takes each position's *context*, computed once by the
    session (which needs it again to accumulate the verdict): reuse and
    inheritance only happen between frames with equal context (covered by
    the same queries).  ``telemetry`` is the session's, which its one-shot
    and degraded scans report into as one.

    :meth:`run` returns one verdict per input index.  In exact mode every
    returned verdict is a fresh from-scratch evaluation, so downstream
    results are bit-identical to a non-temporal run regardless of what the
    cache contained.
    """

    def __init__(
        self,
        config: TemporalConfig,
        *,
        evaluate: Callable[[Frame, Hashable, bool], _ChunkVerdict],
        reuse: Callable[[_ChunkVerdict], tuple[int, int]],
        telemetry: _Telemetry,
    ) -> None:
        self.config = config
        self._evaluate = evaluate
        self._reuse = reuse
        self._gate = DeltaGate(config)
        self._telemetry = telemetry

    def state_dict(self) -> dict:
        """The gate's keyframe state — what the next :meth:`run` resumes from."""
        return self._gate.state_dict()

    def load_state(self, state: dict) -> None:
        """Restore :meth:`state_dict` output into this scan's gate."""
        self._gate.load_state(state)

    def run(
        self,
        indices: Sequence[int],
        render: Callable[[int], Frame],
        contexts: Sequence[Hashable],
    ) -> list:
        """Gate ``indices`` in order; ``render(index)`` materialises a frame
        and ``contexts[position]`` is the context of ``indices[position]``."""
        indices = list(indices)
        n = len(indices)
        results: list = [None] * n
        gate = self._gate
        telemetry = self._telemetry
        telemetry.frames_total += n
        exact = self.config.exact
        evaluate_frame = self._evaluate

        def charge_reuse(outcome: _ChunkVerdict) -> None:
            filter_calls, detector_calls = self._reuse(outcome)
            telemetry.filter_reuses += filter_calls
            telemetry.detector_reuses += detector_calls

        def verified(
            frame: Frame, context: Hashable, cached: _ChunkVerdict
        ) -> tuple[_ChunkVerdict, bool]:
            """Exact-mode check of a cached/inherited outcome: the truth, and
            whether the cache had drifted from it."""
            truth = evaluate_frame(frame, context, False)
            telemetry.verified_frames += 1
            drifted = not truth.poisoned and _key(truth) != _key(cached)
            if drifted:
                telemetry.reuse_mismatches += 1
            return truth, drifted

        def evaluate(position: int, probe: bool = False) -> _ChunkVerdict:
            """Render + gate one position; cache hit or full evaluation."""
            frame = render(indices[position])
            context = contexts[position]
            if gate.decide(frame.image, context):
                outcome = gate.outcome
                gate.mark_reused()
                telemetry.frames_reused += 1
                charge_reuse(outcome)
                if exact:
                    outcome, drifted = verified(frame, context, outcome)
                    if drifted:
                        gate.replace_outcome(outcome)
            else:
                outcome = evaluate_frame(frame, context, True)
                telemetry.frames_computed += 1
                if not outcome.poisoned:
                    gate.set_keyframe(frame.image, outcome, context)
            if probe:
                telemetry.refinement_probes += 1
            results[position] = outcome
            return outcome

        def inherit(position: int, source: int) -> None:
            """Give a never-rendered position its bracketing frame's outcome."""
            context = contexts[position]
            if context != contexts[source]:
                # Coverage changed inside the gap (e.g. a window boundary):
                # inheritance would smuggle an outcome across contexts.
                evaluate(position)
                return
            outcome = results[source]
            telemetry.frames_skipped += 1
            charge_reuse(outcome)
            if exact:
                outcome, _ = verified(render(indices[position]), context, outcome)
            results[position] = outcome

        def assign_gap(lo_position: int, hi_position: int) -> None:
            """Fill the stride-skipped positions strictly between two evaluations."""
            lo_verdict = _key(results[lo_position])
            hi_verdict = _key(results[hi_position])
            if lo_verdict == hi_verdict:
                for position in range(lo_position + 1, hi_position):
                    if results[position] is None:
                        inherit(position, lo_position)
                return
            # The verdict changed inside the gap: localize the boundary with
            # O(log gap) probes.  (A gap hiding more than one transition is
            # collapsed to a single boundary — part of the approximate mode's
            # accuracy trade; exact mode re-derives every frame anyway.)
            lo, hi = lo_position, hi_position
            while hi - lo > 1:
                mid = (lo + hi) // 2
                outcome = evaluate(mid, probe=True)
                if _key(outcome) == lo_verdict:
                    lo = mid
                else:
                    hi = mid
            for position in range(lo_position + 1, hi_position):
                if results[position] is None:
                    inherit(position, lo if position < hi else hi)

        stride = 1
        previous: int | None = None
        position = 0
        while position < n:
            computed_before = telemetry.frames_computed
            outcome = evaluate(position)
            was_reused = telemetry.frames_computed == computed_before
            if previous is not None and position - previous > 1:
                assign_gap(previous, position)
            # Stride doubles only through stable, verdict-preserving reuses;
            # any keyframe refresh or verdict change resets it.
            if (
                previous is not None
                and was_reused
                and _key(results[previous]) == _key(outcome)
            ):
                stride = min(stride * 2, self.config.max_stride)
            else:
                stride = 1
            telemetry.max_stride_used = max(telemetry.max_stride_used, stride)
            previous = position
            if position == n - 1:
                break
            position = min(position + stride, n - 1)

        return results
