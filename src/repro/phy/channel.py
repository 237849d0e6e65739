"""The shared wireless medium: delivers frame edges to in-range radios.

A :class:`Channel` owns a set of radios and a propagation model.  When a
radio transmits, the channel computes the received power at every reachable
radio from their *current* positions (node movement over one frame airtime is
sub-millimetre at the paper's 3 m/s, so the gain is sampled once per frame)
and delivers ``signal_start`` / ``signal_end`` edges, optionally offset by
the propagation delay.

Arrivals below ``interference_floor_w`` are culled — they could affect
neither decoding nor carrier sense nor any SINR the capture threshold could
care about.  This is the main scalability lever: a 1 mW transmission only
generates events at radios within a few hundred metres.

The channel is deliberately decode-agnostic: every edge above the
interference floor is delivered whether or not the receiver could decode
it, which is the contract the ``reception`` slot builds on — a
:class:`~repro.phy.reception.sinr.SinrReceiver` sees the same arrival
ledger the inline threshold rules do and only changes what the radio
*concludes* from it.  At equal timestamps trailing edges dispatch before
leading edges (``sig_end`` events tie-break ahead of ``sig_start``), so a
back-to-back handoff never reads the departing frame's power as
interference against the new one.

Fan-out strategies
------------------
The naive fan-out is a Python loop over *all* attached radios, recomputing
the pairwise propagation gain before culling — O(N) work per frame even
though only a handful of radios are reachable.  Two optimisations make the
fan-out sub-linear, enabled by ``spatial_index=True``:

* **Uniform-grid spatial index.**  Radios are bucketed into square cells of
  side ``propagation.range_for(max_tx_power_w, interference_floor_w) +
  max_speed_mps * reindex_interval_s``; a transmission can only reach radios
  in the 3×3 block of cells around the transmitter, so only those are
  visited.  Mobile radios drift, so the grid is refreshed lazily (inside
  ``transmit``, never via simulator events — the event schedule stays
  byte-identical to the brute-force scan) whenever it is older than
  ``reindex_interval_s``; the cell-size padding covers the maximum drift
  between refreshes, keeping the candidate set an exact superset of the
  reachable radios.
* **Motion-bounded culling (moving worlds).**  Each source keeps, per
  receiver it has resolved, the exact distance ``d`` at the time ``t`` it
  was computed.  Two radios close at most ``2 · max_speed_mps``
  (``drift``), so while ``d - drift · (now - t)`` still exceeds
  ``range_for(tx_power, floor)`` plus a float slack, the receiver is
  skipped without sampling its mobility or computing a gain.  This is
  exact: every propagation model is a deterministic function of distance
  that never increases with it, so beyond the reach the brute scan culls
  the pair too; and waypoint legs come lazily from each node's own RNG
  stream, so a skipped sample changes no trajectory.  The slack
  (``_BOUND_SLACK_M`` plus ``_BOUND_SLACK_REL`` of the reach) absorbs the
  rounding of ``range_for``, of the distance and of the bound's sums, and
  interpolated waypoint samples outrunning their speed bound by ~1e-13 m.
  The record is one float, ``d + drift · t``, so the skip is one dict
  lookup and one compare against a limit hoisted out of the loop; it
  survives the source moving.  A pair the bound does not skip is resolved
  afresh (``distance`` and ``gain_at``) and its record rewritten.  Radios
  whose mobility bound is 0 m/s are flagged static at attach and are never
  sampled again.  Only moving intervals write records (see frozen-interval
  replay).
* **One survivor builder per interval kind.**  A scalar loop visits the
  candidate block in attach order and resolves each other radio to a
  received power and a delay, or culls it below the floor.  Its
  ``(rx, rx_power, delay, k)`` rows, ``k`` being twice the row's index,
  are the whole per-transmit answer, which
  :func:`~repro.sim.event.fanout_columns` turns into the kernel's fan-out
  columns.  The moving interval's loop skips
  the pairs the motion bound rules out and keeps the records; the frozen
  interval's reads the entries' stored positions and keeps nothing.
* **Frozen-interval replay.**  Each mobility model reports how long its
  position stays put (:meth:`~repro.mobility.base.MobilityModel.still_until`:
  the end of a waypoint pause leg, ``inf`` for a static node).  The
  channel keeps ``_frozen_until``, the earliest such end over its mobile
  radios, taken at each reindex (which also stores every radio's fresh
  position and moves it to its cell) and lowered by ``attach``.  While
  ``now`` is below it no radio moves, so the survivor list of each
  ``(source, tx power)`` is built once and replayed on every later
  transmit.  The memo stores those columns (a tuple of radios, then
  ``array('d')`` powers and delays, ``array('I')`` seq offsets and the
  float order bound): the arrays hold the same IEEE doubles and make no
  Python object per survivor, so an entry takes about a quarter of a
  list of tuples' memory and the cyclic garbage collector walks five
  objects per entry, not one per survivor.  An all-static world is the case that stays frozen
  forever (``inf``; static radios are never asked).  The memo is the
  frozen fan-out's only cache: a miss computes the distance and gain of
  every candidate afresh, which is cheaper than keeping a record per pair
  that the memo already duplicates.  A reindex that finds the previous
  interval thawed clears it, as do attach and detach; moving intervals
  resolve through the motion-bounded loop.  The waypoint model starts
  every node on a pause leg, so a mobile cell replays until its first
  node leaves.
* **Edge batches.**  The brute scan schedules every edge as its own event;
  the indexed path hands each transmit's survivor columns to the kernel in
  one :meth:`~repro.sim.kernel.Simulator.schedule_fanout` call.  The
  kernel numbers the edges with the seqs the brute scan's ``schedule``
  calls would take (receiver *i* in attach order: start ``base + 2i``,
  end ``base + 2i + 1``) and, when it can prove the columns' delay order
  is the edges' ``(time, priority, seq)`` order, keeps them behind one
  :class:`~repro.sim.event.EdgeBatch` heap entry that fires each edge
  straight from the columns: no per-edge tuple, event or sort.  The
  proof is the memo entry's order bound, the smallest delay gap that
  float rounding could collapse into a seq-order tie, plus a frame that
  outlasts its delay spread; a transmit that fails it is scheduled as
  those ``schedule`` calls instead.  Edges are uncancellable, which suits
  physics: energy in flight always arrives (see :meth:`Channel.detach`).

All paths produce bit-identical event schedules (same times, powers and
tie-breaking order — candidates are visited in attach order); the
brute-force scan remains the default and serves as the oracle in
``tests/phy/test_channel_equivalence.py``.  The spatial index requires that
radio positions change only through mobility models whose speed is bounded
by ``max_speed_mps`` — ``attach`` rejects radios without a mobility model
(a bare ``position_fn`` could teleport, silently breaking the culling
guarantee) and radios whose model reports a higher bound.

The paper's PCMAC uses **two** channels with identical propagation (its
assumption 1): instantiate one ``Channel`` for data and one for power-control
notifications, sharing the propagation model.
"""

from __future__ import annotations

import math
from array import array

from repro.phy.frame import PhyFrame
from repro.phy.propagation import PropagationModel, distance
from repro.phy.radio import Radio
from repro.sim.event import SIG_END, SIG_START, fanout_columns
from repro.sim.kernel import Simulator
from repro.units import SPEED_OF_LIGHT


#: Upper bound on memoised static fan-outs (keys are ``(src_seq,
#: tx_power)``, so continuous-power protocols could otherwise grow the
#: cache without bound).  Generous enough for 10k sources at the paper's
#: ten discrete power levels.  An entry costs about 320 bytes plus 28 per
#: survivor (1.4 kB at the paper's density, ~37 survivors), so a full
#: cache stays under 200 MB.  On overflow the cache is simply cleared and
#: rebuilt on demand — correctness never depends on a hit.
_STATIC_FANOUT_CAP = 131072

#: Float slack added to the motion bound's reach [m]: an absolute term and
#: a term relative to the reach.  It absorbs the rounding of ``range_for``,
#: of ``distance`` and of the bound's own sums, and waypoint interpolation
#: outrunning its speed bound by float rounding (about 1e-13 m per step).
#: Sums of ``distance + drift * now`` lose a few ulp of their magnitude,
#: so the absolute term covers ``drift * now`` up to ~1e9 m.
_BOUND_SLACK_M = 1e-6
_BOUND_SLACK_REL = 1e-9

#: The source's own record in its link table: a key no limit reaches, so
#: the survivor loop skips the transmitter without an identity test.
_SELF_RECORD = math.inf

#: Stand-in for a pair never resolved: no limit is below it, so it is
#: resolved.
_NO_RECORD = -math.inf


class _RadioEntry:
    """Channel-side bookkeeping for one attached radio.

    ``seq`` is the attach sequence number: candidate receivers are visited
    in ascending ``seq`` so the indexed fan-out schedules events in exactly
    the order the brute-force list scan would (the event queue breaks
    same-time ties by insertion order).  Re-attaching assigns a fresh
    ``seq``, matching the list's remove-then-append semantics.

    ``static`` is set when the mobility model's speed bound is 0 m/s — the
    position can never change, so the hot fan-out loop reads the
    attach-time sample ``pos`` instead of sampling.  For a mobile radio
    ``pos`` is refreshed at each reindex, so it holds the radio's position
    throughout a frozen interval.  ``position_at`` is the mobility model's
    bound ``position_at`` — the fan-out calls it directly, skipping one
    attribute lookup per candidate per transmit.
    """

    __slots__ = ("radio", "seq", "mobility", "position_at", "pos", "cell", "static")

    def __init__(self, radio: Radio, seq: int, now: float) -> None:
        self.radio = radio
        self.seq = seq
        self.mobility = getattr(radio, "mobility", None)
        self.static = False
        if self.mobility is not None:
            self.position_at = self.mobility.position_at
            self.pos = self.position_at(now)
            self.static = self.mobility.max_speed_mps() == 0.0
        self.cell: tuple[int, int] | None = None


def _entry_seq(entry: _RadioEntry) -> int:
    return entry.seq


class Channel:
    """A broadcast medium connecting radios under one propagation model.

    Args:
        sim: the simulation kernel.
        propagation: pairwise gain model shared by every link.
        interference_floor_w: received-power floor below which arrivals are
            culled entirely.
        model_propagation_delay: offset arrivals by distance / c when True.
        name: label for traces ("data" / "control").
        spatial_index: enable the uniform-grid fan-out (see module docs).
            The default False keeps the brute-force scan — the oracle path.
        max_tx_power_w: largest transmit power any frame on this channel
            will use; required when ``spatial_index`` is set (it determines
            the maximum reach and hence the grid cell size).  Transmitting
            above it raises, as that would break the culling guarantee.
        max_speed_mps: upper bound on any attached radio's speed; pads the
            cell size so grid staleness can never miss a reachable radio,
            and bounds how fast a pair can close for the motion bound.
        reindex_interval_s: maximum grid staleness for mobile radios.
    """

    def __init__(
        self,
        sim: Simulator,
        propagation: PropagationModel,
        *,
        interference_floor_w: float = 1e-14,
        model_propagation_delay: bool = True,
        name: str = "data",
        spatial_index: bool = False,
        max_tx_power_w: float | None = None,
        max_speed_mps: float = 0.0,
        reindex_interval_s: float = 1.0,
    ) -> None:
        if interference_floor_w <= 0:
            raise ValueError("interference_floor_w must be positive")
        self.sim = sim
        self.propagation = propagation
        self.interference_floor_w = interference_floor_w
        self.model_propagation_delay = model_propagation_delay
        self.name = name
        #: Attached radios, in attach order (a dict for O(1) membership;
        #: the values are unused).  The brute fan-out iterates it.
        self._radios: dict[Radio, None] = {}

        self._cell_size: float | None = None
        self._max_tx_power_w = max_tx_power_w
        self._entries: dict[Radio, _RadioEntry] = {}
        self._cells: dict[tuple[int, int], list[_RadioEntry]] = {}
        #: Memoised sorted candidate list per centre cell; any grid mutation
        #: (attach, detach, a radio changing cell) clears it.  Static
        #: scenarios therefore sort each 3×3 block exactly once.
        self._blocks: dict[tuple[int, int], list[_RadioEntry]] = {}
        #: Per-pair link records: src_seq → {rx_seq: dist + drift * t},
        #: the pair's distance at the time ``t`` it was last resolved, which
        #: the motion bound compares against one hoisted limit.  A record
        #: is overwritten whenever its pair is resolved afresh, and a table
        #: holding more than twice its source's candidate block is cleared,
        #: so memory stays O(pairs within a block).  Only moving intervals
        #: write records: a frozen one resolves through replay alone.
        self._links: dict[int, dict[int, float]] = {}
        #: Motion bound: how fast any pair can close [m/s] (both ends at
        #: ``max_speed_mps``).
        self._drift_mps = 2.0 * max_speed_mps
        self._next_seq = 0
        #: Frozen-interval replay: while no radio moves, the fan-out of a
        #: given (source, tx power) cannot change — cache it as columns
        #: ``(radios, powers, delays, ks)`` (see :meth:`_static_survivors`),
        #: which ``zip`` replays as ``(rx, rx_power, delay, k)``.  Attach,
        #: detach and a reindex after a thaw clear the whole cache.
        self._static_fanouts: dict[tuple[int, float], tuple] = {}
        #: Time until which no attached radio moves: ``inf`` while every
        #: radio is static, else the earliest ``still_until`` of the mobile
        #: radios at the last reindex, lowered by each mobile attach.
        self._frozen_until = math.inf
        self._max_speed_mps = max_speed_mps
        self._reindex_interval_s = reindex_interval_s
        self._reindex_due_at = math.inf
        if spatial_index:
            if max_tx_power_w is None or max_tx_power_w <= 0:
                raise ValueError("spatial_index requires a positive max_tx_power_w")
            if max_speed_mps < 0:
                raise ValueError("max_speed_mps must be non-negative")
            if not math.isfinite(max_speed_mps):
                raise ValueError("spatial_index requires a finite max_speed_mps")
            if reindex_interval_s <= 0:
                raise ValueError("reindex_interval_s must be positive")
            reach = propagation.range_for(max_tx_power_w, interference_floor_w)
            self._cell_size = reach + max_speed_mps * reindex_interval_s
            if max_speed_mps > 0:
                self._reindex_due_at = 0.0  # refresh on the first transmit

    @property
    def spatial_index(self) -> bool:
        """Whether the grid-indexed fan-out is active."""
        return self._cell_size is not None

    @property
    def cell_size_m(self) -> float | None:
        """Grid cell side [m] when the spatial index is active, else None."""
        return self._cell_size

    @property
    def radios(self) -> tuple[Radio, ...]:
        """Radios currently attached to this channel."""
        return tuple(self._radios)

    def attach(self, radio: Radio) -> None:
        """Join a radio to the medium.

        With the spatial index active, the radio must carry a mobility model
        whose speed is bounded by the channel's ``max_speed_mps`` —
        otherwise the grid's drift padding could not guarantee the candidate
        superset, and arrivals the brute-force scan would deliver could be
        silently missed.  Violations fail loudly here instead.
        """
        if radio in self._radios:
            raise ValueError(f"radio of node {radio.node_id} already attached")
        if self._cell_size is not None:
            entry = _RadioEntry(radio, self._next_seq, self.sim.now)
            if entry.mobility is None:
                raise ValueError(
                    f"radio of node {radio.node_id} has no mobility model — "
                    "the spatial index cannot bound a bare position_fn's "
                    "drift; construct the radio with mobility=... (e.g. "
                    "StaticMobility) or use spatial_index=False"
                )
            speed = entry.mobility.max_speed_mps()
            if speed > self._max_speed_mps:
                raise ValueError(
                    f"radio of node {radio.node_id} moves at up to "
                    f"{speed!r} m/s, above the spatial index's "
                    f"max_speed_mps {self._max_speed_mps!r} — culling "
                    "would be unsound"
                )
            self._next_seq += 1
            self._entries[radio] = entry
            self._move_to_cell(entry, entry.pos)
            self._static_fanouts.clear()
            if not entry.static:
                until = entry.mobility.still_until(self.sim.now)
                if until < self._frozen_until:
                    self._frozen_until = until
        self._radios[radio] = None

    def detach(self, radio: Radio) -> None:
        """Remove a radio from the medium.

        Semantics: detaching only stops *future* transmissions from reaching
        the radio (and removes it from the spatial index, and its link
        records as source and as receiver).
        Signal edges already scheduled — the ``signal_start`` / ``signal_end``
        events of frames in flight at detach time — still fire at the
        detached radio, mirroring physics: energy already en route arrives
        regardless of any bookkeeping change, and delivering the matching
        ``signal_end`` keeps the radio's interference accounting consistent
        if it is later re-attached.  Callers that want a radio to go
        genuinely deaf mid-frame must model that at the radio, not by
        detaching.  Detaching a radio that is not attached raises
        ``ValueError``.
        """
        if radio not in self._radios:
            raise ValueError(f"radio of node {radio.node_id} is not attached")
        del self._radios[radio]
        entry = self._entries.pop(radio, None)
        if entry is not None:
            if entry.cell is not None:
                self._cells[entry.cell].remove(entry)
            self._blocks.clear()
            self._static_fanouts.clear()
            seq = entry.seq
            self._links.pop(seq, None)
            for links in self._links.values():
                links.pop(seq, None)

    # --------------------------------------------------------------- indexing

    def _move_to_cell(self, entry: _RadioEntry, pos: tuple[float, float]) -> None:
        size = self._cell_size
        cell = (int(pos[0] // size), int(pos[1] // size))
        if cell == entry.cell:
            return
        if entry.cell is not None:
            self._cells[entry.cell].remove(entry)
        bucket = self._cells.get(cell)
        if bucket is None:
            bucket = self._cells[cell] = []
        bucket.append(entry)
        entry.cell = cell
        self._blocks.clear()

    def _reindex(self, now: float) -> None:
        """Re-bucket every radio from a fresh position sample.

        Runs inside ``transmit`` (never as a scheduled event, which would
        perturb event sequence numbers) at most once per
        ``reindex_interval_s`` of simulated time, bounding both the grid
        staleness and the amortised cost.  Static radios cannot change cell
        and are skipped.  Each mobile radio's sample is stored in its entry,
        and ``_frozen_until`` becomes the earliest time one of them moves.
        If the previous frozen interval has thawed, radios may have moved
        since the replay memo was filled, so it is cleared.
        """
        if now >= self._frozen_until:
            self._static_fanouts.clear()
        frozen_until = math.inf
        for entry in self._entries.values():
            if entry.static:
                continue
            entry.pos = entry.position_at(now)
            self._move_to_cell(entry, entry.pos)
            until = entry.mobility.still_until(now)
            if until < frozen_until:
                frozen_until = until
        self._frozen_until = frozen_until
        self._reindex_due_at = now + self._reindex_interval_s

    def _block_candidates(self, block_key: tuple[int, int]) -> list[_RadioEntry]:
        """Memoised, attach-order candidate list for one 3×3 cell block."""
        candidates = self._blocks.get(block_key)
        if candidates is None:
            cx, cy = block_key
            cells = self._cells
            candidates = []
            for ix in (cx - 1, cx, cx + 1):
                for iy in (cy - 1, cy, cy + 1):
                    bucket = cells.get((ix, iy))
                    if bucket:
                        candidates.extend(bucket)
            candidates.sort(key=_entry_seq)
            self._blocks[block_key] = candidates
        return candidates

    def _reach(self, tx_power: float) -> float:
        """Culling reach of ``tx_power`` plus the motion bound's float slack.

        Beyond it ``tx_power * gain_at(d)`` is below the interference floor
        for every propagation model (each is non-increasing in distance).
        Computed per transmit: a memo keyed by power would need a cap.
        """
        reach = self.propagation.range_for(tx_power, self.interference_floor_w)
        return reach + reach * _BOUND_SLACK_REL + _BOUND_SLACK_M

    def _static_survivors(self, entry: _RadioEntry, tx_power: float) -> tuple:
        """A frozen interval's survivor columns, stored for replay.

        The columns of :func:`~repro.sim.event.fanout_columns`, with
        powers and delays as ``array('d')`` and seq offsets as
        ``array('I')``: the arrays hold the same IEEE doubles and make no
        Python object per survivor.
        Built once per ``(source, tx power)`` and frozen interval, which is
        the only cache: every radio holds still at its entry's ``pos``
        (sampled at attach or at the reindex that opened the interval) and
        sits in that position's cell, so each candidate is resolved
        straight from it — no link record, no motion bound.  A pair
        resolved again for another power level yields the same distance
        and gain floats, so every power and delay is the float
        :meth:`_fanout_brute` computes.
        """
        src_pos = entry.pos
        size = self._cell_size
        candidates = self._block_candidates(
            (int(src_pos[0] // size), int(src_pos[1] // size))
        )
        floor = self.interference_floor_w
        gain_at = self.propagation.gain_at
        model_delay = self.model_propagation_delay
        out: list[tuple[Radio, float, float, int]] = []
        append = out.append
        for cand in candidates:
            if cand is entry:
                continue
            dist = distance(src_pos, cand.pos)
            rx_power = tx_power * gain_at(dist)
            if rx_power < floor:
                continue
            append(
                (
                    cand.radio,
                    rx_power,
                    dist / SPEED_OF_LIGHT if model_delay else 0.0,
                    2 * len(out),
                )
            )
        radios, powers, delays, ks, bound = fanout_columns(out)
        return (
            radios, array("d", powers), array("d", delays), array("I", ks), bound
        )

    def _survivors(
        self, src: Radio, entry: _RadioEntry | None, tx_power: float, now: float
    ) -> tuple:
        """Radios above the floor as survivor columns (see
        :func:`~repro.sim.event.fanout_columns`).

        The resolve loop of a moving interval's indexed fan-out (and of an
        unattached transmitter's).  Its columns are used once, so they stay
        tuples.  The candidate block is a superset of
        every radio above the interference floor.  A candidate whose last exact
        distance, shrunk by the most both ends can have closed since
        (``drift * Δt``), still lies beyond the culling reach is skipped
        unsampled: the brute scan culls it too.  Every other candidate is
        resolved from fresh positions, so every power and delay is the float
        :meth:`_fanout_brute` computes.
        """
        if entry is None:
            # Unattached transmitter: legal (the brute path allows it), but
            # there is no entry to key the records on — use a throwaway table.
            src_pos = src.position
            links: dict[int, float] = {}
        else:
            if entry.static:
                src_pos = entry.pos
            else:
                src_pos = entry.position_at(now)
                self._move_to_cell(entry, src_pos)
            links = self._links.get(entry.seq)
            if links is None:
                links = self._links[entry.seq] = {entry.seq: _SELF_RECORD}
        size = self._cell_size
        candidates = self._block_candidates(
            (int(src_pos[0] // size), int(src_pos[1] // size))
        )
        if len(links) > 2 * len(candidates):
            # Records of radios that left the block only cost memory.
            links.clear()
            links[entry.seq] = _SELF_RECORD

        # Skip a pair while key - drift * now > reach, i.e. key > limit.
        drift_now = self._drift_mps * now
        limit = self._reach(tx_power) + drift_now
        floor = self.interference_floor_w
        gain_at = self.propagation.gain_at
        model_delay = self.model_propagation_delay
        get = links.get
        out: list[tuple[Radio, float, float, int]] = []
        append = out.append
        for cand in candidates:
            seq = cand.seq
            if get(seq, _NO_RECORD) > limit:
                continue
            dist = distance(
                src_pos, cand.pos if cand.static else cand.position_at(now)
            )
            links[seq] = dist + drift_now
            rx_power = tx_power * gain_at(dist)
            if rx_power < floor:
                continue
            append(
                (
                    cand.radio,
                    rx_power,
                    dist / SPEED_OF_LIGHT if model_delay else 0.0,
                    2 * len(out),
                )
            )
        return fanout_columns(out)

    # ------------------------------------------------------------------ TX

    def transmit(self, src: Radio, frame: PhyFrame) -> None:
        """Emit ``frame`` from ``src`` and fan out edges to other radios.

        With the spatial index active, a frame above ``max_tx_power_w`` is
        refused before the radio is keyed, so the refusal leaves the radio
        untouched (not transmitting, no stats, no pending TX end).
        """
        if self._cell_size is None:
            src.begin_tx(frame)
            self._fanout_brute(src, frame)
            return
        if frame.tx_power_w > self._max_tx_power_w:
            raise ValueError(
                f"tx power {frame.tx_power_w!r} W exceeds the channel's "
                f"max_tx_power_w {self._max_tx_power_w!r} — the spatial index "
                "cannot guarantee reachability beyond it"
            )
        src.begin_tx(frame)
        self._fanout_indexed(src, frame)

    def _fanout_brute(self, src: Radio, frame: PhyFrame) -> None:
        """Reference fan-out: scan every radio, recompute every gain.

        Each edge is its own ``schedule`` call (no edge batch), so this path
        stays an independent oracle for the batched dispatch too.
        """
        sim = self.sim
        now = sim.now
        duration = frame.duration_s
        src_pos = src.position
        floor = self.interference_floor_w
        for rx in self._radios:
            if rx is src:
                continue
            rx_pos = rx.position
            gain = self.propagation.gain(src_pos, rx_pos)
            rx_power = frame.tx_power_w * gain
            if rx_power < floor:
                continue
            delay = 0.0
            if self.model_propagation_delay:
                delay = distance(src_pos, rx_pos) / SPEED_OF_LIGHT
            # priority 1 for ends vs. priority 0 for starts at the exact same
            # instant is unnecessary (start/end of the *same* frame differ by
            # the airtime), but back-to-back frames can abut: let the earlier
            # frame's end fire before the next frame's start when times tie.
            sim.schedule(
                now + delay,
                rx.signal_start,
                args=(frame, rx_power),
                priority=1,
                label=SIG_START,
            )
            sim.schedule(
                now + delay + duration,
                rx.signal_end,
                args=(frame.frame_id,),
                priority=0,
                label=SIG_END,
            )

    def _fanout_indexed(self, src: Radio, frame: PhyFrame) -> None:
        """Grid-indexed fan-out: survivor columns, handed to the kernel.

        Produces the exact event schedule of :meth:`_fanout_brute`:
        :meth:`~repro.sim.kernel.Simulator.schedule_fanout` numbers each
        survivor's edges with the seqs the brute scan's ``schedule`` calls
        would take (receiver *i* in attach order: start ``base + 2i``, end
        ``base + 2i + 1``), so same-time ties break identically.  While the
        world is frozen (``now < _frozen_until``) a ``(source, tx power)``
        survivor set cannot change, so :meth:`_static_survivors` builds its
        columns once and every later transmit replays them; a moving
        interval runs :meth:`_survivors` per transmit.
        """
        sim = self.sim
        now = sim.now
        tx_power = frame.tx_power_w
        entry = self._entries.get(src)
        if now >= self._reindex_due_at:
            self._reindex(now)
        if now < self._frozen_until and entry is not None:
            key = (entry.seq, tx_power)
            fanouts = self._static_fanouts
            cols = fanouts.get(key)
            if cols is None:
                cols = self._static_survivors(entry, tx_power)
                if len(fanouts) >= _STATIC_FANOUT_CAP:
                    fanouts.clear()
                fanouts[key] = cols
        else:
            cols = self._survivors(src, entry, tx_power, now)
        sim.schedule_fanout(cols, frame)

    # --------------------------------------------------------------- queries

    def gain_now(self, a: Radio, b: Radio) -> float:
        """Current propagation gain between two attached radios.

        Omniscient helper for tests and scenario validation — protocol code
        must estimate gains from received frames instead.
        """
        return self.propagation.gain(a.position, b.position)

    def rx_power_now(self, src: Radio, dst: Radio, tx_power_w: float) -> float:
        """Received power at ``dst`` if ``src`` transmitted now [W]."""
        return tx_power_w * self.gain_now(src, dst)
