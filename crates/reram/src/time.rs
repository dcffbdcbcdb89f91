//! Integer picosecond time base shared by the whole simulator.
//!
//! All device timings (tCL = 13.75 ns, tBURST = 5 ns, tWR = 29–658 ns, …)
//! are exact multiples of 1 ps, so simulation arithmetic is exact — no
//! floating-point drift across billions of cycles.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A span of simulated time in picoseconds.
///
/// # Examples
///
/// ```
/// use ladder_reram::Picos;
///
/// let t_cl = Picos::from_ns(13.75);
/// assert_eq!(t_cl.as_ps(), 13_750);
/// assert_eq!((t_cl + t_cl).as_ns(), 27.5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Picos(u64);

impl Picos {
    /// Zero-length span.
    pub const ZERO: Picos = Picos(0);

    /// Creates a span of `ps` picoseconds.
    pub const fn from_ps(ps: u64) -> Self {
        Picos(ps)
    }

    /// Creates a span from nanoseconds, rounding up to whole picoseconds.
    ///
    /// # Panics
    ///
    /// Panics if `ns` is negative or not finite.
    pub fn from_ns(ns: f64) -> Self {
        assert!(ns.is_finite() && ns >= 0.0, "duration must be non-negative");
        Picos((ns * 1000.0).ceil() as u64)
    }

    /// The span in picoseconds.
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// The span in nanoseconds.
    pub fn as_ns(self) -> f64 {
        self.0 as f64 / 1000.0
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, rhs: Picos) -> Picos {
        Picos(self.0.saturating_sub(rhs.0))
    }
}

impl Add for Picos {
    type Output = Picos;
    fn add(self, rhs: Picos) -> Picos {
        Picos(self.0 + rhs.0)
    }
}

impl AddAssign for Picos {
    fn add_assign(&mut self, rhs: Picos) {
        self.0 += rhs.0;
    }
}

impl Sub for Picos {
    type Output = Picos;
    fn sub(self, rhs: Picos) -> Picos {
        Picos(self.0 - rhs.0)
    }
}

impl SubAssign for Picos {
    fn sub_assign(&mut self, rhs: Picos) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for Picos {
    type Output = Picos;
    fn mul(self, rhs: u64) -> Picos {
        Picos(self.0 * rhs)
    }
}

impl Div<u64> for Picos {
    type Output = Picos;
    fn div(self, rhs: u64) -> Picos {
        Picos(self.0 / rhs)
    }
}

impl Sum for Picos {
    fn sum<I: Iterator<Item = Picos>>(iter: I) -> Picos {
        Picos(iter.map(|p| p.0).sum())
    }
}

impl fmt::Display for Picos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3} ns", self.as_ns())
    }
}

/// An absolute simulated timestamp in picoseconds since simulation start.
///
/// # Examples
///
/// ```
/// use ladder_reram::{Instant, Picos};
///
/// let t0 = Instant::ZERO;
/// let t1 = t0 + Picos::from_ns(5.0);
/// assert_eq!(t1.duration_since(t0), Picos::from_ns(5.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Instant(u64);

impl Instant {
    /// Simulation start.
    pub const ZERO: Instant = Instant(0);

    /// Creates an instant at `ps` picoseconds after start.
    pub const fn from_ps(ps: u64) -> Self {
        Instant(ps)
    }

    /// Picoseconds since simulation start.
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// Elapsed span since an earlier instant.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `earlier` is later than `self`.
    pub fn duration_since(self, earlier: Instant) -> Picos {
        debug_assert!(earlier.0 <= self.0, "duration_since of a later instant");
        Picos(self.0 - earlier.0)
    }

    /// The later of two instants.
    pub fn max(self, other: Instant) -> Instant {
        Instant(self.0.max(other.0))
    }
}

impl Add<Picos> for Instant {
    type Output = Instant;
    fn add(self, rhs: Picos) -> Instant {
        Instant(self.0 + rhs.as_ps())
    }
}

impl AddAssign<Picos> for Instant {
    fn add_assign(&mut self, rhs: Picos) {
        self.0 += rhs.as_ps();
    }
}

impl fmt::Display for Instant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.3} ns", self.0 as f64 / 1000.0)
    }
}

/// A deterministic discrete-event queue of `(Instant, K)` entries with
/// stable FIFO tie-breaking.
///
/// Events pop in `(Instant, sequence)` order: events scheduled for the
/// same instant pop in the order they were scheduled, so a simulation
/// driven by an `EventQueue` is reproducible bit-for-bit.
///
/// The queue is a binary min-heap keyed on `(Instant, sequence)` plus a
/// FIFO *lane* for events scheduled at the instant last popped (`now`),
/// which a dispatch does often and which would otherwise sift through the
/// heap and straight back out. The order is the heap's alone: a heap
/// entry at `now` was scheduled before `now` was reached, so before every
/// lane entry; heap entries before `now` precede the lane by instant; and
/// every heap entry after `now` follows it. `pop` therefore serves heap
/// entries at or before `now`, then the lane, then the heap's next
/// instant.
///
/// # Examples
///
/// ```
/// use ladder_reram::{EventQueue, Instant};
///
/// let mut q = EventQueue::new();
/// q.schedule(Instant::from_ps(20), "late");
/// q.schedule(Instant::from_ps(10), "first");
/// q.schedule(Instant::from_ps(10), "second");
/// assert_eq!(q.pop(), Some((Instant::from_ps(10), "first")));
/// assert_eq!(q.pop(), Some((Instant::from_ps(10), "second")));
/// assert_eq!(q.pop(), Some((Instant::from_ps(20), "late")));
/// assert!(q.pop().is_none());
/// ```
#[derive(Debug)]
pub struct EventQueue<K> {
    heap: BinaryHeap<Scheduled<K>>,
    seq: u64,
    /// The latest instant popped (`ZERO` before the first pop).
    now: Instant,
    /// Events scheduled at `now`, in scheduling order.
    lane: VecDeque<K>,
}

#[derive(Debug)]
struct Scheduled<K> {
    at: Instant,
    seq: u64,
    kind: K,
}

impl<K> PartialEq for Scheduled<K> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}

impl<K> Eq for Scheduled<K> {}

impl<K> Ord for Scheduled<K> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed on both keys: BinaryHeap is a max-heap, we want the
        // earliest instant first and, within an instant, the lowest
        // sequence number (FIFO).
        other.at.cmp(&self.at).then(other.seq.cmp(&self.seq))
    }
}

impl<K> PartialOrd for Scheduled<K> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<K> Default for EventQueue<K> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K> EventQueue<K> {
    /// An empty queue.
    pub fn new() -> Self {
        Self {
            heap: BinaryHeap::new(),
            seq: 0,
            now: Instant::ZERO,
            lane: VecDeque::new(),
        }
    }

    /// Schedules `kind` to fire at `at`.
    pub fn schedule(&mut self, at: Instant, kind: K) {
        if at == self.now {
            self.lane.push_back(kind);
            return;
        }
        self.heap.push(Scheduled {
            at,
            seq: self.seq,
            kind,
        });
        self.seq += 1;
    }

    /// Removes and returns the earliest event (FIFO among ties).
    pub fn pop(&mut self) -> Option<(Instant, K)> {
        if self.heap.peek().is_some_and(|s| s.at <= self.now) {
            return self.heap.pop().map(|s| (s.at, s.kind));
        }
        if let Some(kind) = self.lane.pop_front() {
            return Some((self.now, kind));
        }
        let s = self.heap.pop()?;
        self.now = s.at;
        Some((s.at, s.kind))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ns_conversion_rounds_up() {
        assert_eq!(Picos::from_ns(13.75).as_ps(), 13_750);
        assert_eq!(Picos::from_ns(0.0001).as_ps(), 1);
        assert_eq!(Picos::from_ns(0.0).as_ps(), 0);
    }

    #[test]
    fn arithmetic_behaves() {
        let a = Picos::from_ps(100);
        let b = Picos::from_ps(40);
        assert_eq!((a + b).as_ps(), 140);
        assert_eq!((a - b).as_ps(), 60);
        assert_eq!((a * 3).as_ps(), 300);
        assert_eq!((a / 4).as_ps(), 25);
        assert_eq!(b.saturating_sub(a), Picos::ZERO);
    }

    #[test]
    fn instants_order_and_advance() {
        let mut t = Instant::ZERO;
        t += Picos::from_ps(10);
        let later = t + Picos::from_ps(5);
        assert!(later > t);
        assert_eq!(later.duration_since(t).as_ps(), 5);
        assert_eq!(t.max(later), later);
    }

    #[test]
    fn sum_of_durations() {
        let total: Picos = (1..=4).map(Picos::from_ps).sum();
        assert_eq!(total.as_ps(), 10);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_duration_panics() {
        let _ = Picos::from_ns(-1.0);
    }

    #[test]
    fn event_queue_pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(Instant::from_ps(300), 'c');
        q.schedule(Instant::from_ps(100), 'a');
        q.schedule(Instant::from_ps(200), 'b');
        assert_eq!(q.pop(), Some((Instant::from_ps(100), 'a')));
        assert_eq!(q.pop(), Some((Instant::from_ps(200), 'b')));
        assert_eq!(q.pop(), Some((Instant::from_ps(300), 'c')));
        assert!(q.pop().is_none());
    }

    #[test]
    fn event_queue_breaks_ties_fifo() {
        let mut q = EventQueue::new();
        let t = Instant::from_ps(50);
        // Interleave with another instant so heap sift ordering gets a
        // chance to scramble equal-time entries if the tie-break were
        // missing.
        for i in 0..16u32 {
            q.schedule(t, i);
            q.schedule(Instant::from_ps(40), 1000 + i);
        }
        let drained: Vec<(Instant, u32)> = std::iter::from_fn(|| q.pop()).collect();
        let at_40: Vec<u32> = drained
            .iter()
            .filter(|(at, _)| *at == Instant::from_ps(40))
            .map(|&(_, k)| k)
            .collect();
        let at_50: Vec<u32> = drained
            .iter()
            .filter(|(at, _)| *at == t)
            .map(|&(_, k)| k)
            .collect();
        assert_eq!(at_40, (1000..1016).collect::<Vec<_>>());
        assert_eq!(at_50, (0..16).collect::<Vec<_>>());
        // All t=40 events come before any t=50 event.
        assert!(drained[..16]
            .iter()
            .all(|(at, _)| *at == Instant::from_ps(40)));
    }
}
