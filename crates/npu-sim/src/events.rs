//! Discrete-event machinery for the timeline engine: a deterministic
//! min-time event queue.
//!
//! Events carry a monotonically increasing sequence number that breaks
//! time ties: the queue pops in `(cycle, sequence)` order, which makes the
//! simulation fully deterministic — two runs over the same compiled graph
//! schedule every phase at identical cycles.
//!
//! Many events need no heap: a handler schedules many of them for the
//! current cycle (the issue of a consumer whose last producer just
//! retired), and many future events arrive in time order (phase ends on
//! a unit that is already busy, release times in arrival order). The
//! queue therefore keeps three lanes:
//!
//! * the **current** lane, a FIFO of events for the cycle the clock
//!   stands at;
//! * the **in-order** lane, a FIFO of future events whose cycles arrive
//!   in non-decreasing order — an event is appended when its cycle is at
//!   least the lane's last;
//! * a `BinaryHeap` for every remaining future event.
//!
//! Sequence numbers only grow, so appending keeps each FIFO sorted by
//! `(cycle, sequence)`, and [`EventQueue::pop`] takes the smallest of the
//! three fronts — the event, and the clock, a single heap holding every
//! event would pop. An event's lane follows from its cycle alone.
//!
//! `std::collections::BinaryHeap` is a max-heap, so [`ScheduledEvent`]
//! reverses its ordering to pop the earliest event first.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

/// What happened (or must be attempted) at an event's firing time.
///
/// All payloads reference operators by their anchor index in the compiled
/// graph; the [`crate::timeline::TimelineEngine`] owns the per-operator
/// state the handlers mutate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// The operator's input buffer is free and its DMA prefetch may be
    /// issued to the HBM/DMA queue.
    IssueDma {
        /// Anchor index of the operator.
        op: usize,
    },
    /// Enough of the operator's DMA has landed in SRAM (the first tile of a
    /// double-buffered stream) for its main phase to begin consuming data.
    DmaLeadArrived {
        /// Anchor index of the operator.
        op: usize,
    },
    /// The operator's full DMA stream has finished.
    DmaComplete {
        /// Anchor index of the operator.
        op: usize,
    },
    /// All issue dependencies of the operator's main phase are satisfied
    /// and it may be dispatched to its execution unit.
    IssueMain {
        /// Anchor index of the operator.
        op: usize,
    },
    /// The operator's main (compute / gather / collective) phase finished.
    MainComplete {
        /// Anchor index of the operator.
        op: usize,
    },
}

/// An event scheduled at an absolute cycle, ordered for a min-heap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduledEvent {
    /// Absolute firing time in cycles on the global clock.
    pub at: u64,
    /// Insertion sequence number; breaks ties deterministically.
    pub seq: u64,
    /// Event payload.
    pub kind: EventKind,
}

impl ScheduledEvent {
    /// The pop-order key: earliest cycle first, then first scheduled.
    fn key(&self) -> (u64, u64) {
        (self.at, self.seq)
    }
}

impl Ord for ScheduledEvent {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; reverse to pop the earliest (and, on
        // ties, the first-scheduled) event first.
        self.key().cmp(&other.key()).reverse()
    }
}

impl PartialOrd for ScheduledEvent {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Deterministic min-time event queue driving the timeline engine: a
/// current-cycle FIFO, an in-order FIFO and a heap (see the
/// [module docs](self)), popped in `(cycle, sequence)` order.
///
/// Hold one queue across runs (an [`crate::timeline::EngineScratch`]
/// does) and [`EventQueue::clear`] it between them: every lane keeps its
/// capacity, so a warm queue schedules without allocating.
#[derive(Debug, Default)]
pub struct EventQueue {
    /// Events scheduled for the current cycle, in sequence order. The
    /// clock cannot advance while any is pending: each is the earliest
    /// possible event.
    current: VecDeque<ScheduledEvent>,
    /// Future events appended in non-decreasing cycle order.
    in_order: VecDeque<ScheduledEvent>,
    /// Every other future event.
    heap: BinaryHeap<ScheduledEvent>,
    next_seq: u64,
    now: u64,
}

impl EventQueue {
    /// Creates an empty queue at cycle 0.
    #[must_use]
    pub fn new() -> Self {
        EventQueue::default()
    }

    /// Drops every pending event and rewinds the clock and the sequence
    /// counter to 0, keeping each lane's capacity: a cleared queue
    /// behaves exactly like [`EventQueue::new`].
    pub fn clear(&mut self) {
        self.current.clear();
        self.in_order.clear();
        self.heap.clear();
        self.next_seq = 0;
        self.now = 0;
    }

    /// The current simulation time (the firing time of the last popped
    /// event).
    #[must_use]
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Schedules an event at an absolute cycle.
    ///
    /// # Panics
    ///
    /// Panics if `at` lies in the past: the engine never rewinds the clock.
    pub fn schedule(&mut self, at: u64, kind: EventKind) {
        assert!(at >= self.now, "event at cycle {at} scheduled before now ({})", self.now);
        let event = ScheduledEvent { at, seq: self.next_seq, kind };
        self.next_seq += 1;
        if at == self.now {
            self.current.push_back(event);
        } else if self.in_order.back().is_none_or(|last| at >= last.at) {
            self.in_order.push_back(event);
        } else {
            self.heap.push(event);
        }
    }

    /// Pops the earliest event and advances the clock to its firing time.
    pub fn pop(&mut self) -> Option<ScheduledEvent> {
        let current = self.current.front().map(ScheduledEvent::key);
        let in_order = self.in_order.front().map(ScheduledEvent::key);
        let heap = self.heap.peek().map(ScheduledEvent::key);
        let event = if precedes(current, in_order) && precedes(current, heap) {
            self.current.pop_front()
        } else if precedes(in_order, heap) {
            self.in_order.pop_front()
        } else {
            self.heap.pop()
        }?;
        self.now = event.at;
        Some(event)
    }

    /// Number of pending events across all three lanes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.current.len() + self.in_order.len() + self.heap.len()
    }

    /// Whether no events are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.current.is_empty() && self.in_order.is_empty() && self.heap.is_empty()
    }
}

/// Whether a lane whose front has key `a` pops before one whose front has
/// key `b`. An empty lane (`None`) never pops first.
fn precedes(a: Option<(u64, u64)>, b: Option<(u64, u64)>) -> bool {
    match (a, b) {
        (Some(a), Some(b)) => a < b,
        (Some(_), None) => true,
        (None, _) => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;

    /// The heap-only queue the lanes replaced: every event in one
    /// `BinaryHeap`. The oracle for the lanes' pop order.
    #[derive(Debug, Default)]
    struct HeapQueue {
        heap: BinaryHeap<ScheduledEvent>,
        next_seq: u64,
        now: u64,
    }

    impl HeapQueue {
        fn schedule(&mut self, at: u64, kind: EventKind) {
            assert!(at >= self.now);
            self.heap.push(ScheduledEvent { at, seq: self.next_seq, kind });
            self.next_seq += 1;
        }

        fn pop(&mut self) -> Option<ScheduledEvent> {
            let ev = self.heap.pop()?;
            self.now = ev.at;
            Some(ev)
        }
    }

    fn kind(variant: u64, op: usize) -> EventKind {
        match variant {
            0 => EventKind::IssueDma { op },
            1 => EventKind::DmaLeadArrived { op },
            2 => EventKind::DmaComplete { op },
            3 => EventKind::IssueMain { op },
            _ => EventKind::MainComplete { op },
        }
    }

    fn assert_same_state(lanes: &EventQueue, oracle: &HeapQueue, label: &str) {
        assert_eq!(lanes.len(), oracle.heap.len(), "{label}: len");
        assert_eq!(lanes.is_empty(), oracle.heap.is_empty(), "{label}: is_empty");
        assert_eq!(lanes.now(), oracle.now, "{label}: now");
    }

    /// Schedules `at` on both queues.
    fn schedule_both(lanes: &mut EventQueue, oracle: &mut HeapQueue, at: u64, kind: EventKind) {
        lanes.schedule(at, kind);
        oracle.schedule(at, kind);
    }

    /// Pops both queues until empty, comparing every event.
    fn drain_both(lanes: &mut EventQueue, oracle: &mut HeapQueue, label: &str) -> Vec<u64> {
        let mut order = Vec::new();
        loop {
            let (a, b) = (lanes.pop(), oracle.pop());
            assert_eq!(a, b, "{label}: pop #{}", order.len());
            assert_same_state(lanes, oracle, label);
            let Some(ev) = a else { return order };
            order.push(ev.seq);
        }
    }

    #[test]
    fn lanes_pop_exactly_the_heap_order() {
        // Seeded interleavings of schedule(now + d) and pop. `d` is zero
        // (the current lane), small, or large; a large delay followed by
        // a smaller one breaks an in-order run and lands in the heap.
        let mut lane_peaks = [0usize; 3];
        for seed in 0..200u64 {
            let mut rng = SplitMix64::new(seed);
            let mut lanes = EventQueue::new();
            let mut oracle = HeapQueue::default();
            for step in 0..rng.range(1, 300) {
                let label = format!("seed {seed}, step {step}");
                if rng.range(0, 2) > 0 {
                    let d = match rng.range(0, 9) {
                        0..=2 => 0,
                        3..=5 => rng.range(1, 8),
                        6..=7 => rng.range(8, 1_000),
                        _ => rng.range(1_000, 1_000_000),
                    };
                    let at = lanes.now() + d;
                    schedule_both(
                        &mut lanes,
                        &mut oracle,
                        at,
                        kind(rng.range(0, 4), step as usize),
                    );
                } else {
                    assert_eq!(lanes.pop(), oracle.pop(), "{label}");
                }
                assert_same_state(&lanes, &oracle, &label);
                for (peak, len) in lane_peaks.iter_mut().zip([
                    lanes.current.len(),
                    lanes.in_order.len(),
                    lanes.heap.len(),
                ]) {
                    *peak = (*peak).max(len);
                }
            }
            drain_both(&mut lanes, &mut oracle, &format!("seed {seed}, drain"));
        }
        assert!(lane_peaks.iter().all(|&p| p >= 2), "a lane went unexercised: {lane_peaks:?}");
    }

    #[test]
    fn current_cycle_events_wait_for_earlier_sequences_in_other_lanes() {
        // In-order lane: two events at cycle 5; popping the first moves
        // the clock to 5, and an event scheduled now must follow the
        // second, which was scheduled earlier.
        let (mut lanes, mut oracle) = (EventQueue::new(), HeapQueue::default());
        schedule_both(&mut lanes, &mut oracle, 5, kind(0, 0));
        schedule_both(&mut lanes, &mut oracle, 5, kind(1, 1));
        assert_eq!(lanes.pop(), oracle.pop());
        schedule_both(&mut lanes, &mut oracle, 5, kind(2, 2));
        assert_eq!((lanes.current.len(), lanes.in_order.len()), (1, 1));
        assert_eq!(drain_both(&mut lanes, &mut oracle, "in-order lane"), vec![1, 2]);

        // Heap: cycle 10 arrives after cycle 20 and goes to the heap; once
        // the clock reaches 10, a current-cycle event follows it.
        let (mut lanes, mut oracle) = (EventQueue::new(), HeapQueue::default());
        schedule_both(&mut lanes, &mut oracle, 10, kind(0, 0));
        schedule_both(&mut lanes, &mut oracle, 20, kind(1, 1));
        schedule_both(&mut lanes, &mut oracle, 10, kind(2, 2));
        assert_eq!(lanes.heap.len(), 1);
        assert_eq!(lanes.pop(), oracle.pop());
        schedule_both(&mut lanes, &mut oracle, 10, kind(3, 3));
        assert_eq!(drain_both(&mut lanes, &mut oracle, "heap"), vec![2, 3, 1]);
    }

    #[test]
    fn an_earlier_event_breaks_the_in_order_run() {
        let (mut lanes, mut oracle) = (EventQueue::new(), HeapQueue::default());
        for at in [10, 20, 30, 15, 30, 40] {
            schedule_both(&mut lanes, &mut oracle, at, kind(4, at as usize));
        }
        assert_eq!((lanes.in_order.len(), lanes.heap.len()), (5, 1), "only 15 breaks the run");
        let order = drain_both(&mut lanes, &mut oracle, "broken run");
        assert_eq!(order, vec![0, 3, 1, 2, 4, 5]);
    }

    #[test]
    fn a_cleared_queue_behaves_like_a_new_one() {
        let mut lanes = EventQueue::new();
        for (i, at) in [0u64, 7, 3, 7, 100].into_iter().enumerate() {
            lanes.schedule(at, kind(i as u64, i));
        }
        lanes.pop();
        lanes.pop();
        lanes.clear();
        assert!(lanes.is_empty());
        assert_eq!((lanes.len(), lanes.now()), (0, 0));
        // The clock and the sequence counter restart: cycle 0 is legal
        // again and the first event is sequence 0.
        let mut oracle = HeapQueue::default();
        for (i, at) in [4u64, 0, 2, 9, 0].into_iter().enumerate() {
            schedule_both(&mut lanes, &mut oracle, at, kind(i as u64, i));
        }
        assert_eq!(drain_both(&mut lanes, &mut oracle, "reused"), vec![1, 4, 2, 0, 3]);
    }

    #[test]
    fn events_pop_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(30, EventKind::MainComplete { op: 2 });
        q.schedule(10, EventKind::IssueDma { op: 0 });
        q.schedule(20, EventKind::IssueMain { op: 1 });
        let order: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|e| e.at).collect();
        assert_eq!(order, vec![10, 20, 30]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        q.schedule(5, EventKind::IssueDma { op: 7 });
        q.schedule(5, EventKind::IssueDma { op: 3 });
        q.schedule(5, EventKind::IssueDma { op: 9 });
        let ops: Vec<usize> = std::iter::from_fn(|| q.pop())
            .map(|e| match e.kind {
                EventKind::IssueDma { op } => op,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(ops, vec![7, 3, 9], "same-cycle events fire in scheduling order");
    }

    #[test]
    fn clock_advances_monotonically() {
        let mut q = EventQueue::new();
        q.schedule(4, EventKind::DmaComplete { op: 0 });
        q.schedule(9, EventKind::DmaComplete { op: 1 });
        assert_eq!(q.now(), 0);
        q.pop();
        assert_eq!(q.now(), 4);
        q.schedule(9, EventKind::DmaLeadArrived { op: 1 });
        q.pop();
        q.pop();
        assert_eq!(q.now(), 9);
        assert!(q.is_empty());
    }

    #[test]
    #[should_panic(expected = "scheduled before now")]
    fn scheduling_in_the_past_is_rejected() {
        let mut q = EventQueue::new();
        q.schedule(10, EventKind::IssueDma { op: 0 });
        q.pop();
        q.schedule(5, EventKind::IssueDma { op: 1 });
    }
}
