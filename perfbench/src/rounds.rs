//! How long a run measures, which of its rounds are traced, and the
//! statistics that keep a run steady on a shared machine.
//!
//! A run repeats one fixed-length *round* of its seeded stream, each time
//! from the same post-warm-up state, until `--seconds` have passed, so
//! every round (and every run) sees identical inputs.
//!
//! Other tenants of a shared machine slow it by up to 2× for seconds at a
//! time. Every round replays the very same calls from the same state, so
//! each call counts at its fastest across rounds ([`Fastest`]), which keeps
//! such bursts out of the end-to-end numbers.
//!
//! A traced run interleaves untraced and traced rounds (odd rounds record
//! spans), so the probes' own overhead is measured against untraced rounds
//! of the same process.

use crate::stats::{median, Samples};
use std::time::{Duration, Instant};

/// Rounds a full run measures at least, however long they take.
const MIN_ROUNDS: usize = 3;
/// Set-ups a full run times; `setup_s` is their median.
const SETUPS: usize = 5;

#[derive(Debug, Clone, Copy)]
pub struct Budget {
    pub seconds: f64,
    pub traced: bool,
    /// One set-up and the fewest rounds that still run every check.
    pub quick: bool,
}

impl Budget {
    pub fn setups(&self) -> usize {
        if self.quick {
            1
        } else {
            SETUPS
        }
    }

    /// Whether round `index` records spans.
    pub fn traced_round(&self, index: usize) -> bool {
        self.traced && index % 2 == 1
    }

    /// Whether another round starts after `done` rounds that began
    /// `since` ago.
    pub fn more(&self, done: usize, since: Instant) -> bool {
        let least = if self.traced { 2 } else { 1 };
        if self.quick {
            return done < least;
        }
        done < MIN_ROUNDS.max(least) || since.elapsed().as_secs_f64() < self.seconds
    }
}

/// Per-round call rates, split by whether the round was traced.
#[derive(Debug, Default)]
pub struct RoundRates {
    pub untraced: Vec<f64>,
    pub traced: Vec<f64>,
}

impl RoundRates {
    pub fn push(&mut self, traced: bool, calls: u64, wall: Duration) {
        let rate = calls as f64 / wall.as_secs_f64().max(1e-9);
        if traced {
            self.traced.push(rate);
        } else {
            self.untraced.push(rate);
        }
    }

    /// How much slower traced rounds ran than untraced ones, in percent.
    pub fn overhead_pct(&self) -> f64 {
        let traced = median(&self.traced);
        if traced == 0.0 {
            0.0
        } else {
            (median(&self.untraced) / traced - 1.0) * 100.0
        }
    }
}

/// Each call's fastest time across the untraced rounds of a workload whose
/// rounds replay the same calls from the same state, in microseconds.
#[derive(Debug, Default)]
pub struct Fastest(Vec<f64>);

impl Fastest {
    /// Folds in one round's call times, in call order.
    pub fn record(&mut self, round: &[f64]) {
        if self.0.is_empty() {
            self.0 = round.to_vec();
        } else {
            for (best, t) in self.0.iter_mut().zip(round) {
                *best = best.min(*t);
            }
        }
    }

    /// The fastest times of the calls `keep` selects by position.
    pub fn samples(&self, keep: impl Fn(usize) -> bool) -> Samples {
        let mut out = Samples::default();
        for (i, &t) in self.0.iter().enumerate() {
            if keep(i) {
                out.push_us(t);
            }
        }
        out
    }

    /// Calls per second of call time, each call at its fastest.
    pub fn ops_per_s(&self) -> f64 {
        let micros: f64 = self.0.iter().sum();
        if micros == 0.0 {
            0.0
        } else {
            self.0.len() as f64 * 1e6 / micros
        }
    }
}

/// Times `setup` `budget.setups()` times and keeps the last state built;
/// returns it with the median set-up time in seconds.
pub fn timed_setups<T, E>(
    budget: &Budget,
    mut setup: impl FnMut() -> Result<T, E>,
) -> Result<(T, f64, usize), E> {
    let mut times = Vec::new();
    let mut state = None;
    for _ in 0..budget.setups() {
        // Drop the previous state first: its teardown is not set-up work.
        drop(state.take());
        let start = Instant::now();
        let built = setup()?;
        times.push(start.elapsed().as_secs_f64());
        state = Some(built);
    }
    let state = state.expect("at least one set-up runs");
    Ok((state, median(&times), times.len()))
}

/// The union of several sample sets.
pub fn merged<'a>(sets: impl IntoIterator<Item = &'a Samples>) -> Samples {
    let mut all = Samples::default();
    for set in sets {
        all.extend(set);
    }
    all
}
