//! The departure schedule of the [`crate::workload::Paper`] process.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Members keyed by the time they leave, popped earliest first. Ties
/// break by member id; the paper workload hands out ids in admission
/// order, so equal times pop in the order they were scheduled.
#[derive(Debug, Default)]
pub(crate) struct Departures {
    heap: BinaryHeap<Departure>,
}

/// A scheduled departure, ordered so a max-heap pops the earliest
/// first.
#[derive(Debug, PartialEq)]
struct Departure {
    at: f64,
    member: u64,
}

impl Eq for Departure {}

impl Ord for Departure {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .at
            .total_cmp(&self.at)
            .then_with(|| other.member.cmp(&self.member))
    }
}

impl PartialOrd for Departure {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Departures {
    /// Schedules `member` to leave at time `at`.
    pub(crate) fn schedule(&mut self, at: f64, member: u64) {
        self.heap.push(Departure { at, member });
    }

    /// Removes and returns, in departure order, every member leaving
    /// at or before `time`.
    pub(crate) fn pop_until(&mut self, time: f64) -> Vec<u64> {
        let mut due = Vec::new();
        while self.heap.peek().is_some_and(|d| d.at <= time) {
            due.extend(self.heap.pop().map(|d| d.member));
        }
        due
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = Departures::default();
        q.schedule(3.0, 0);
        q.schedule(1.0, 1);
        q.schedule(2.0, 2);
        assert_eq!(q.pop_until(f64::INFINITY), [1, 2, 0]);
        assert!(q.pop_until(f64::INFINITY).is_empty());
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = Departures::default();
        q.schedule(1.0, 0);
        q.schedule(1.0, 1);
        q.schedule(1.0, 2);
        assert_eq!(q.pop_until(1.0), [0, 1, 2]);
    }

    #[test]
    fn pop_until_takes_prefix() {
        let mut q = Departures::default();
        for i in 0..10 {
            q.schedule(i as f64, i);
        }
        assert_eq!(q.pop_until(4.5), [0, 1, 2, 3, 4]);
        assert_eq!(q.pop_until(f64::INFINITY), [5, 6, 7, 8, 9]);
    }
}
