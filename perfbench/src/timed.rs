//! A `Scheduler` wrapper that delegates to the real strategy and times
//! each `on_request` from outside.

use hetsched_platform::ProcId;
use hetsched_sim::{Allocation, Scheduler};
use rand::rngs::StdRng;
use std::time::Instant;

pub struct Timed<S> {
    pub inner: S,
    pub requests: u64,
    /// Summed wall time inside `inner.on_request`.
    pub busy_s: f64,
    pub first: Option<Instant>,
    pub last: Option<Instant>,
}

impl<S> Timed<S> {
    pub fn new(inner: S) -> Self {
        Timed {
            inner,
            requests: 0,
            busy_s: 0.0,
            first: None,
            last: None,
        }
    }
}

impl<S: Scheduler> Scheduler for Timed<S> {
    fn on_request(&mut self, k: ProcId, rng: &mut StdRng, out: &mut Vec<u32>) -> Allocation {
        let t0 = Instant::now();
        let a = self.inner.on_request(k, rng, out);
        let t1 = Instant::now();
        self.busy_s += (t1 - t0).as_secs_f64();
        self.requests += 1;
        self.first.get_or_insert(t0);
        self.last = Some(t1);
        a
    }

    fn on_tasks_lost(&mut self, ids: &[u32]) {
        self.inner.on_tasks_lost(ids)
    }

    fn phase(&self) -> Option<u8> {
        self.inner.phase()
    }

    fn useful_fraction(&self, k: ProcId) -> Option<f64> {
        self.inner.useful_fraction(k)
    }

    fn remaining(&self) -> usize {
        self.inner.remaining()
    }

    fn total_tasks(&self) -> usize {
        self.inner.total_tasks()
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}
