//! Discrete-event simulation engine.
//!
//! Events fire at logical instants, handlers mutate world state and
//! schedule further events. The engine owns the event queue and the clock;
//! world state lives outside and is threaded through handlers as `&mut W`.
//! Nothing in `crates/` outside tests runs on it today: the §6
//! co-simulation is fixed-step (`hpcc_adapt::cosim::World::drive`), and
//! the event-driven controller driver it replaced survives as that crate's
//! test reference.
//!
//! # The event queue
//!
//! [`Engine`] runs on a hierarchical timing wheel: `LEVELS` levels of
//! `SLOTS` slots each, every level covering 64× the span of the one below,
//! with per-level occupancy bitmaps so the engine jumps straight to the
//! next occupied instant instead of ticking. Schedule and cancel are O(1);
//! dispatch is O(1) amortized (each event cascades down at most `LEVELS`
//! times). Events that land at or before the wheel's current position go
//! to a small overflow heap, which also keeps the rare past-scheduling
//! path exactly ordered.
//!
//! Events fire in ascending `(time, EventId)` order — FIFO among equal
//! times via the monotonically assigned event id — so runs are
//! deterministic. The tests keep the original `BinaryHeap` queue as the
//! executable specification: property suites drive random
//! schedule/cancel/fire workloads through both queues and assert identical
//! fire order and identical traces.

use crate::time::{SimSpan, SimTime};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet};

/// Identifier of a scheduled event, usable for cancellation. Ids are
/// assigned in schedule order and double as the FIFO tie-break among
/// events at the same instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EventId(u64);

/// Which event-queue implementation a test [`Engine`] uses.
#[cfg(test)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DesBackend {
    /// Hierarchical timing wheel (what [`Engine::new`] builds).
    TimingWheel,
    /// Pre-refactor `BinaryHeap` queue: the reference implementation.
    ReferenceHeap,
}

type Handler<W> = Box<dyn FnOnce(&mut Engine<W>, &mut W)>;

/// One pending event. Ordered by `(at, id)`: earliest time first, FIFO
/// among equal times via the schedule-order id.
struct Scheduled<W> {
    at: u64,
    id: u64,
    run: Handler<W>,
}

impl<W> PartialEq for Scheduled<W> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.id == other.id
    }
}
impl<W> Eq for Scheduled<W> {}
impl<W> PartialOrd for Scheduled<W> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<W> Ord for Scheduled<W> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.id).cmp(&(other.at, other.id))
    }
}

/// Bits per wheel level: each level has `2^SLOT_BITS` slots.
const SLOT_BITS: u32 = 6;
/// Slots per wheel level.
pub(crate) const SLOTS: usize = 1 << SLOT_BITS;
/// Wheel levels. `LEVELS * SLOT_BITS = 66 >= 64`, so every `u64` instant
/// maps to a slot and no unbounded overflow list is needed.
pub(crate) const LEVELS: usize = 11;

/// Hierarchical timing wheel. Level `k` slot `s` holds events whose time,
/// relative to the wheel's current position `elapsed`, first differs from
/// it in bit range `[6k, 6k+6)` and whose level-`k` digit is `s`. This
/// keeps two invariants the dispatch loop relies on:
///
/// * every stored event satisfies `at > elapsed`, and
/// * a level-0 slot holds events of exactly one instant, so draining one
///   slot and sorting it by id reproduces global `(at, id)` order.
struct Wheel<W> {
    /// Current wheel position (ns). Lags the next pending event, never
    /// ahead of it.
    elapsed: u64,
    /// `LEVELS * SLOTS` buckets, flattened.
    slots: Vec<Vec<Scheduled<W>>>,
    /// Per-level bitmask of non-empty slots.
    occupied: [u64; LEVELS],
    /// Events at or before `elapsed` (scheduled "now" or into the past of
    /// the wheel position). Tiny in practice; a heap keeps exact order.
    due: BinaryHeap<Reverse<Scheduled<W>>>,
    /// Current slot being dispatched, sorted by descending id so events
    /// pop in FIFO order.
    stash: Vec<Scheduled<W>>,
    /// Reusable buffer for [`Wheel::cascade`] so re-filing a slot never
    /// allocates in steady state.
    scratch: Vec<Scheduled<W>>,
    /// Wheel position at the last cascade pass. Inserts can never land in
    /// the current slot of their level (their first differing bit picks
    /// the level), so a pass is only needed after the position crosses a
    /// level-1+ boundary — one XOR decides.
    last_scan: u64,
}

impl<W> Wheel<W> {
    fn new() -> Wheel<W> {
        Wheel {
            elapsed: 0,
            slots: (0..LEVELS * SLOTS).map(|_| Vec::new()).collect(),
            occupied: [0; LEVELS],
            due: BinaryHeap::new(),
            stash: Vec::new(),
            scratch: Vec::new(),
            last_scan: 0,
        }
    }

    /// Level and slot for `when`, relative to the current position.
    /// Caller guarantees `when > self.elapsed`.
    fn position(&self, when: u64) -> (usize, usize) {
        let diff = when ^ self.elapsed;
        debug_assert!(diff != 0);
        let level = ((63 - diff.leading_zeros()) / SLOT_BITS) as usize;
        let slot = ((when >> (SLOT_BITS * level as u32)) & (SLOTS as u64 - 1)) as usize;
        (level, slot)
    }

    fn insert(&mut self, ev: Scheduled<W>) {
        if ev.at <= self.elapsed {
            self.due.push(Reverse(ev));
            return;
        }
        let (level, slot) = self.position(ev.at);
        self.slots[level * SLOTS + slot].push(ev);
        self.occupied[level] |= 1 << slot;
    }

    /// Move every event out of `(level, slot)` and re-file it relative to
    /// the current position (all land at strictly lower levels or in
    /// `due`).
    fn cascade(&mut self, level: usize, slot: usize) {
        self.occupied[level] &= !(1 << slot);
        // Swap buffers instead of taking: the slot keeps the scratch
        // buffer's capacity and vice versa, so cascades stop allocating
        // once the wheel is warm.
        let mut scratch = std::mem::take(&mut self.scratch);
        std::mem::swap(&mut scratch, &mut self.slots[level * SLOTS + slot]);
        for ev in scratch.drain(..) {
            self.insert(ev);
        }
        self.scratch = scratch;
    }

    /// Advance/cascade until the earliest pending instant is known.
    /// Returns `None` when the wheel holds no events outside `due`/`stash`.
    fn next_tick(&mut self) -> Option<u64> {
        loop {
            // Re-file events whose slot the wheel position has entered:
            // they belong at a lower level now (or in `due`). One ascending
            // pass suffices — cascaded events never land in the current
            // slot of a lower level. Skipped entirely while the position
            // moves within one level-0 rotation (the dense-event fast
            // path: no level-1+ digit changed, so no slot became current).
            if (self.elapsed ^ self.last_scan) >= SLOTS as u64 {
                for level in 1..LEVELS {
                    let cur = ((self.elapsed >> (SLOT_BITS * level as u32)) & (SLOTS as u64 - 1))
                        as usize;
                    if self.occupied[level] & (1 << cur) != 0 {
                        self.cascade(level, cur);
                    }
                }
            }
            self.last_scan = self.elapsed;
            if let Some(Reverse(head)) = self.due.peek() {
                return Some(head.at);
            }
            // Nearest occupied level-0 slot in the current rotation.
            let cur0 = (self.elapsed & (SLOTS as u64 - 1)) as usize;
            let mask0 = self.occupied[0] & (!0u64 << cur0);
            if mask0 != 0 {
                let slot = mask0.trailing_zeros() as u64;
                return Some((self.elapsed & !(SLOTS as u64 - 1)) | slot);
            }
            // Jump to the start of the next occupied window of the lowest
            // level that has one; its events cascade on the next pass.
            let mut jumped = false;
            for level in 1..LEVELS {
                let shift = SLOT_BITS * level as u32;
                let cur = ((self.elapsed >> shift) & (SLOTS as u64 - 1)) as usize;
                let beyond = if cur + 1 >= SLOTS {
                    0
                } else {
                    self.occupied[level] & (!0u64 << (cur + 1))
                };
                if beyond != 0 {
                    let slot = beyond.trailing_zeros() as u64;
                    let upper_shift = shift + SLOT_BITS;
                    let upper = if upper_shift >= 64 {
                        0
                    } else {
                        self.elapsed & (!0u64 << upper_shift)
                    };
                    self.elapsed = upper | (slot << shift);
                    jumped = true;
                    break;
                }
            }
            if !jumped {
                return None;
            }
        }
    }

    /// Remove and return the next event in `(at, id)` order.
    fn pop_next(&mut self) -> Option<Scheduled<W>> {
        loop {
            // Current-slot stash and the due heap are the only sources of
            // already-located events; pick the earlier of their heads.
            let stash_key = self.stash.last().map(|e| (e.at, e.id));
            let due_key = self.due.peek().map(|Reverse(e)| (e.at, e.id));
            let from_stash = match (stash_key, due_key) {
                (None, None) => None,
                (Some(s), d) => Some(d.is_none_or(|d| s <= d)),
                (None, Some(_)) => Some(false),
            };
            if let Some(from_stash) = from_stash {
                return Some(if from_stash {
                    self.stash.pop().expect("stash head")
                } else {
                    self.due.pop().expect("due head").0
                });
            }
            let tick = self.next_tick()?;
            if tick > self.elapsed {
                self.elapsed = tick;
                let slot = (tick & (SLOTS as u64 - 1)) as usize;
                self.occupied[0] &= !(1 << slot);
                // The stash is empty here (pick above found nothing), so a
                // swap hands its spare capacity to the drained slot.
                debug_assert!(self.stash.is_empty());
                std::mem::swap(&mut self.stash, &mut self.slots[slot]);
                // One slot = one instant; descending id so pop() is FIFO.
                self.stash.sort_unstable_by_key(|s| std::cmp::Reverse(s.id));
            }
            // `tick == elapsed` means next_tick surfaced `due` entries;
            // the next loop iteration pops them.
        }
    }

    fn iter_ids(&self) -> impl Iterator<Item = EventId> + '_ {
        self.slots
            .iter()
            .flatten()
            .map(|e| EventId(e.id))
            .chain(self.due.iter().map(|Reverse(e)| EventId(e.id)))
            .chain(self.stash.iter().map(|e| EventId(e.id)))
    }
}

/// The engine's event queue: the wheel, and in tests the reference heap.
enum Queue<W> {
    Wheel(Wheel<W>),
    #[cfg(test)]
    Heap(BinaryHeap<Reverse<Scheduled<W>>>),
}

impl<W> Queue<W> {
    fn insert(&mut self, ev: Scheduled<W>) {
        match self {
            Queue::Wheel(w) => w.insert(ev),
            #[cfg(test)]
            Queue::Heap(h) => h.push(Reverse(ev)),
        }
    }

    fn pop_next(&mut self) -> Option<Scheduled<W>> {
        match self {
            Queue::Wheel(w) => w.pop_next(),
            #[cfg(test)]
            Queue::Heap(h) => h.pop().map(|Reverse(e)| e),
        }
    }
}

/// Discrete-event engine over a world type `W`.
pub struct Engine<W> {
    now: SimTime,
    next_id: u64,
    queue: Queue<W>,
    cancelled: HashSet<EventId>,
    processed: u64,
}

impl<W> Default for Engine<W> {
    fn default() -> Self {
        Engine::new()
    }
}

impl<W> Engine<W> {
    /// An engine on the timing wheel.
    pub fn new() -> Engine<W> {
        Engine {
            now: SimTime::ZERO,
            next_id: 0,
            queue: Queue::Wheel(Wheel::new()),
            cancelled: HashSet::new(),
            processed: 0,
        }
    }

    /// An engine on an explicit queue backend.
    #[cfg(test)]
    fn with_backend(backend: DesBackend) -> Engine<W> {
        let queue = match backend {
            DesBackend::TimingWheel => Queue::Wheel(Wheel::new()),
            DesBackend::ReferenceHeap => Queue::Heap(BinaryHeap::new()),
        };
        Engine {
            queue,
            ..Engine::new()
        }
    }

    /// Current logical time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events executed so far.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Schedule `f` to run at absolute time `at`. Events scheduled in the
    /// past run "now" (the engine never rewinds its clock).
    pub fn at(&mut self, at: SimTime, f: impl FnOnce(&mut Engine<W>, &mut W) + 'static) -> EventId {
        let id = self.next_id;
        self.next_id += 1;
        self.queue.insert(Scheduled {
            at: at.max(self.now).0,
            id,
            run: Box::new(f),
        });
        EventId(id)
    }

    /// Schedule `f` to run `delay` after the current time.
    pub fn after(
        &mut self,
        delay: SimSpan,
        f: impl FnOnce(&mut Engine<W>, &mut W) + 'static,
    ) -> EventId {
        let at = self.now + delay;
        self.at(at, f)
    }

    /// Cancel a previously scheduled event. Cancelling an already-run or
    /// unknown event is a no-op.
    pub fn cancel(&mut self, id: EventId) {
        self.cancelled.insert(id);
    }

    /// True if `id` was popped as cancelled (and consume the mark).
    /// The empty-set fast path keeps the per-event cost of the common
    /// cancel-free case to a single branch.
    fn take_cancelled(&mut self, id: u64) -> bool {
        !self.cancelled.is_empty() && self.cancelled.remove(&EventId(id))
    }

    /// Run until the event queue drains. Returns the number of events
    /// executed. A `max_events` guard protects against runaway loops in
    /// model bugs.
    pub fn run_to_completion(&mut self, world: &mut W, max_events: u64) -> u64 {
        let mut ran = 0;
        while let Some(ev) = self.queue.pop_next() {
            if ran >= max_events {
                panic!(
                    "discrete-event engine exceeded {max_events} events at {:?}; \
                     likely a self-rescheduling loop",
                    SimTime(ev.at)
                );
            }
            if self.take_cancelled(ev.id) {
                continue;
            }
            self.now = SimTime(ev.at);
            (ev.run)(self, world);
            self.processed += 1;
            ran += 1;
        }
        ran
    }

    /// True if no runnable events remain.
    pub fn is_idle(&self) -> bool {
        match &self.queue {
            Queue::Wheel(w) => w.iter_ids().all(|id| self.cancelled.contains(&id)),
            #[cfg(test)]
            Queue::Heap(h) => h
                .iter()
                .all(|Reverse(e)| self.cancelled.contains(&EventId(e.id))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::{export_tsv, trace_digest, Stage, Tracer};
    use crate::sym;
    use std::sync::Arc;

    const BACKENDS: [DesBackend; 2] = [DesBackend::TimingWheel, DesBackend::ReferenceHeap];

    #[derive(Default)]
    struct World {
        log: Vec<(u64, &'static str)>,
    }

    /// Every edge-semantics test runs against both backends: the wheel must
    /// be indistinguishable from the reference heap.
    fn on_both(test: impl Fn(&mut Engine<World>, &mut World)) {
        for backend in BACKENDS {
            let mut eng = Engine::<World>::with_backend(backend);
            let mut w = World::default();
            test(&mut eng, &mut w);
        }
    }

    #[test]
    fn events_run_in_time_order() {
        on_both(|eng, w| {
            eng.at(SimTime(30), |e, w| w.log.push((e.now().0, "c")));
            eng.at(SimTime(10), |e, w| w.log.push((e.now().0, "a")));
            eng.at(SimTime(20), |e, w| w.log.push((e.now().0, "b")));
            eng.run_to_completion(w, 100);
            assert_eq!(w.log, vec![(10, "a"), (20, "b"), (30, "c")]);
        });
    }

    #[test]
    fn ties_run_fifo() {
        on_both(|eng, w| {
            eng.at(SimTime(5), |_, w| w.log.push((5, "first")));
            eng.at(SimTime(5), |_, w| w.log.push((5, "second")));
            eng.run_to_completion(w, 10);
            assert_eq!(w.log, vec![(5, "first"), (5, "second")]);
        });
    }

    #[test]
    fn handlers_can_schedule_more_events() {
        on_both(|eng, w| {
            eng.at(SimTime(1), |e, _| {
                e.after(SimSpan::nanos(9), |e, w: &mut World| {
                    w.log.push((e.now().0, "chained"));
                });
            });
            eng.run_to_completion(w, 10);
            assert_eq!(w.log, vec![(10, "chained")]);
        });
    }

    #[test]
    fn cancellation_skips_event() {
        on_both(|eng, w| {
            let id = eng.at(SimTime(10), |_, w| w.log.push((10, "cancelled")));
            eng.at(SimTime(20), |_, w| w.log.push((20, "kept")));
            eng.cancel(id);
            eng.run_to_completion(w, 10);
            assert_eq!(w.log, vec![(20, "kept")]);
        });
    }

    #[test]
    fn past_events_run_at_current_time() {
        on_both(|eng, w| {
            eng.at(SimTime(50), |e, _| {
                // Scheduling "at 10" from t=50 must not rewind the clock.
                e.at(SimTime(10), |e, w: &mut World| {
                    w.log.push((e.now().0, "late"))
                });
            });
            eng.run_to_completion(w, 10);
            assert_eq!(w.log, vec![(50, "late")]);
        });
    }

    #[test]
    fn cancel_of_already_fired_event_is_a_noop() {
        on_both(|eng, w| {
            let id = eng.at(SimTime(10), |_, w| w.log.push((10, "fired")));
            eng.at(SimTime(20), |_, w| w.log.push((20, "later")));
            eng.run_to_completion(w, 10);
            assert_eq!(w.log, vec![(10, "fired"), (20, "later")]);
            // Cancelling after the fact must not disturb anything.
            eng.cancel(id);
            assert!(eng.is_idle());
            eng.at(SimTime(30), |_, w| w.log.push((30, "after-cancel")));
            eng.run_to_completion(w, 10);
            assert_eq!(w.log.len(), 3, "stale cancellation must not eat events");
        });
    }

    #[test]
    fn cancel_then_reschedule_runs_only_the_replacement() {
        on_both(|eng, w| {
            let id = eng.at(SimTime(10), |_, w| w.log.push((10, "original")));
            eng.cancel(id);
            eng.at(SimTime(10), |e, w| w.log.push((e.now().0, "replacement")));
            eng.run_to_completion(w, 10);
            assert_eq!(w.log, vec![(10, "replacement")]);
        });
    }

    #[test]
    fn three_way_ties_run_in_scheduling_order() {
        on_both(|eng, w| {
            eng.at(SimTime(7), |_, w| w.log.push((7, "a")));
            eng.at(SimTime(7), |_, w| w.log.push((7, "b")));
            eng.at(SimTime(7), |_, w| w.log.push((7, "c")));
            eng.run_to_completion(w, 10);
            assert_eq!(w.log, vec![(7, "a"), (7, "b"), (7, "c")]);
        });
    }

    #[test]
    #[should_panic(expected = "exceeded")]
    fn runaway_loop_is_detected() {
        fn respawn(e: &mut Engine<World>, _w: &mut World) {
            e.after(SimSpan::nanos(1), respawn);
        }
        let mut eng = Engine::<World>::new();
        let mut w = World::default();
        eng.at(SimTime(0), respawn);
        eng.run_to_completion(&mut w, 100);
    }

    #[test]
    fn is_idle_accounts_for_cancellations() {
        on_both(|eng, _| {
            let id = eng.at(SimTime(10), |_, _| {});
            assert!(!eng.is_idle());
            eng.cancel(id);
            assert!(eng.is_idle());
        });
    }

    #[test]
    fn far_future_events_cross_every_wheel_level() {
        on_both(|eng, w| {
            // One event per wheel level, including the topmost bits.
            let times = [
                1u64,
                63,
                64,
                4 << 6,
                (5 << 12) + 17,
                (3 << 18) + 1,
                (9 << 24) + 1234,
                (2 << 30) + 5,
                (7u64 << 36) + 99,
                (1u64 << 42) + 1,
                (1u64 << 48) + 1,
                (1u64 << 54) + 1,
                (1u64 << 60) + 1,
                u64::MAX - 1,
            ];
            for t in times {
                eng.at(SimTime(t), move |e, w| w.log.push((e.now().0, "hit")));
            }
            eng.run_to_completion(w, 100);
            let fired: Vec<u64> = w.log.iter().map(|(t, _)| *t).collect();
            let mut want = times.to_vec();
            want.sort_unstable();
            assert_eq!(fired, want);
        });
    }

    /// Backend equivalence, in process: the same event-driven workload run on
    /// the timing wheel and on the reference heap must export byte-identical
    /// traces — the wheel's FIFO same-instant tie-break reproduces heap
    /// `(at, id)` order exactly, including around cancellations.
    #[test]
    fn engine_trace_is_backend_independent() {
        struct W {
            tracer: Arc<Tracer>,
            left: u64,
        }
        fn tick(eng: &mut Engine<W>, w: &mut W) {
            let now = eng.now();
            w.tracer.record(
                sym!("des.tick"),
                Stage::Other,
                now,
                now + SimSpan::nanos(5),
                [],
            );
            if w.left > 0 {
                w.left -= 1;
                eng.after(SimSpan::nanos(w.left % 9 * 17 + 1), tick);
            }
        }
        let build = |backend: DesBackend| {
            let mut eng = Engine::<W>::with_backend(backend);
            let mut w = W {
                tracer: Tracer::new(),
                left: 400,
            };
            // Colliding start instants exercise the same-tick FIFO tie-break.
            for i in 0..8u64 {
                eng.at(SimTime(i % 3 + 1), tick);
            }
            let doomed = eng.at(SimTime(2), |eng: &mut Engine<W>, w: &mut W| {
                let now = eng.now();
                w.tracer
                    .record(sym!("des.doomed"), Stage::Other, now, now, []);
            });
            eng.cancel(doomed);
            eng.run_to_completion(&mut w, 10_000);
            w.tracer.finished()
        };
        let wheel = build(DesBackend::TimingWheel);
        let heap = build(DesBackend::ReferenceHeap);
        assert!(
            wheel.len() > 400,
            "workload too small: {} spans",
            wheel.len()
        );
        assert!(
            !wheel.iter().any(|s| s.name == "des.doomed"),
            "cancelled event fired"
        );
        assert_eq!(
            trace_digest(&wheel),
            trace_digest(&heap),
            "trace digest differs between wheel and reference heap"
        );
        assert_eq!(
            export_tsv(&wheel),
            export_tsv(&heap),
            "trace bytes differ between wheel and reference heap"
        );
    }
}

#[cfg(test)]
mod equivalence {
    //! Differential property suite: identical op streams through the wheel
    //! and the reference heap must produce identical fire logs, clocks and
    //! event counts. Handlers chain further schedules and cancels derived
    //! deterministically from the event key, so divergence anywhere in the
    //! fire order snowballs into a log mismatch.

    use super::*;
    use proptest::prelude::*;

    #[derive(Default)]
    struct RecWorld {
        log: Vec<(u64, u64)>,
        ids: Vec<EventId>,
    }

    /// Handler for event `key`: logs, then (depending on the key) chains a
    /// child, schedules a same-tick sibling, or cancels a recorded id.
    fn handler(key: u64) -> impl FnOnce(&mut Engine<RecWorld>, &mut RecWorld) + 'static {
        move |e, w| {
            w.log.push((e.now().0, key));
            if key.is_multiple_of(3) {
                let id = e.after(SimSpan::nanos(key % 97 + 1), handler(key / 2 + 101));
                w.ids.push(id);
            }
            if key % 5 == 1 {
                // Same-tick sibling: must fire later this instant, FIFO.
                // `key + 7001` shifts the residue so the chain terminates.
                let id = e.at(e.now(), handler(key + 7001));
                w.ids.push(id);
            }
            if key % 7 == 2 && !w.ids.is_empty() {
                let victim = w.ids[(key as usize) % w.ids.len()];
                e.cancel(victim);
            }
        }
    }

    #[derive(Debug, Clone)]
    enum Op {
        Schedule { at: u64, key: u64 },
        CancelNth(usize),
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        prop_oneof![
            // Mix near times (tie-heavy), mid and far (cross wheel levels).
            (0u64..200u64, 0u64..10_000u64).prop_map(|(at, key)| Op::Schedule { at, key }),
            (0u64..1_000_000u64, 0u64..10_000u64).prop_map(|(at, key)| Op::Schedule { at, key }),
            (0u64..(1u64 << 40), 0u64..10_000u64).prop_map(|(at, key)| Op::Schedule { at, key }),
            (0usize..64usize).prop_map(Op::CancelNth),
        ]
    }

    fn apply(ops: &[Op], backend: DesBackend) -> (Vec<(u64, u64)>, u64, u64, bool) {
        let mut eng = Engine::<RecWorld>::with_backend(backend);
        let mut w = RecWorld::default();
        let mut scheduled: Vec<EventId> = Vec::new();
        for op in ops {
            match op {
                Op::Schedule { at, key } => {
                    let id = eng.at(SimTime(*at), handler(*key));
                    scheduled.push(id);
                }
                Op::CancelNth(n) => {
                    if !scheduled.is_empty() {
                        eng.cancel(scheduled[n % scheduled.len()]);
                    }
                }
            }
        }
        eng.run_to_completion(&mut w, 100_000);
        (w.log, eng.now().0, eng.processed(), eng.is_idle())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random schedule/cancel/run workloads: wheel ≡ reference heap.
        #[test]
        fn wheel_matches_reference_heap(ops in proptest::collection::vec(op_strategy(), 1..40)) {
            let wheel = apply(&ops, DesBackend::TimingWheel);
            let heap = apply(&ops, DesBackend::ReferenceHeap);
            prop_assert_eq!(&wheel.0, &heap.0, "fire logs diverge");
            prop_assert_eq!(wheel.1, heap.1, "clocks diverge");
            prop_assert_eq!(wheel.2, heap.2, "processed counts diverge");
            prop_assert_eq!(wheel.3, heap.3, "idleness diverges");
        }

        /// Satellite regression: cancels interleaved with same-tick
        /// schedules — cancel-after-fire and cancel-then-reschedule must be
        /// byte-identical across backends.
        #[test]
        fn same_tick_cancel_interleavings_match(
            tick in 0u64..64u64,
            plan in proptest::collection::vec((0u8..4u8, 0usize..8usize), 1..24),
        ) {
            let run = |backend: DesBackend| {
                let mut eng = Engine::<RecWorld>::with_backend(backend);
                let mut w = RecWorld::default();
                let mut ids: Vec<EventId> = Vec::new();
                for (i, (op, n)) in plan.iter().enumerate() {
                    match op {
                        // Schedule on the shared tick.
                        0 | 1 => {
                            let key = i as u64;
                            ids.push(eng.at(SimTime(tick), move |e, w| {
                                w.log.push((e.now().0, key));
                            }));
                        }
                        // Cancel an earlier schedule (maybe repeatedly).
                        2 => {
                            if !ids.is_empty() {
                                eng.cancel(ids[n % ids.len()]);
                            }
                        }
                        // Cancel then immediately reschedule the same tick.
                        _ => {
                            if !ids.is_empty() {
                                eng.cancel(ids[n % ids.len()]);
                            }
                            let key = 1000 + i as u64;
                            ids.push(eng.at(SimTime(tick), move |e, w| {
                                w.log.push((e.now().0, key));
                            }));
                        }
                    }
                }
                eng.run_to_completion(&mut w, 10_000);
                // Post-run cancels of fired events must stay no-ops.
                for id in &ids {
                    eng.cancel(*id);
                }
                assert!(eng.is_idle());
                (w.log, eng.processed())
            };
            let wheel = run(DesBackend::TimingWheel);
            let heap = run(DesBackend::ReferenceHeap);
            prop_assert_eq!(wheel, heap);
        }
    }
}
