//! The host's pace, read from a fixed reference kernel timed next to the
//! measured work, and used to report single-threaded hot-path times at
//! one steady pace.
//!
//! A shared virtual machine runs the same code up to about 1.5x slower
//! (sometimes 2x) in spells from about a second to minutes. The slowdown
//! is per-cycle: thread CPU time stretches with wall time, with little
//! steal, so no clock choice removes it. A region is paced by reading
//! the kernel's time just before and after it and multiplying the
//! region's wall time by `NOMINAL_MS` over the mean of the two readings:
//! a time in milliseconds at the pace where the kernel takes
//! [`NOMINAL_MS`]. A change to the program moves a paced time as it
//! moves wall time; a spell moves the work and the kernel together and
//! cancels. The kernel is std-only and touches no repository code, and
//! runs only while the program is idle, so the program can neither speed
//! it up nor compete with it for a core.
//!
//! Pacing is applied only where the work feels a spell as the kernel
//! does. Measured on a 2-vCPU VM by timing identical work repeatedly
//! (same seed) against the kernel, the share of the kernel's swing a
//! region takes is about 1 for the in-process risk-check probe (paced,
//! a round's spread halves), about 2/3 for a live window (paced, its
//! spread drops from 0.19 to 0.12), and 0.1 to 0.25 for the stages of a
//! batch pass and for world builds, whose threads share out the work
//! over both vCPUs; pacing those would double their spread, so they and
//! every serve-mixed time (a daemon in another process) stay wall times.

use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

use crate::stats::Samples;

/// The kernel's time at the usual pace of a 2-vCPU cloud VM (its median
/// over a few minutes of runs), in ms. Only a scale: it keeps paced
/// times near wall times.
pub const NOMINAL_MS: f64 = 0.18;

/// Timed kernel runs per reading, after one untimed run that brings the
/// kernel's data back into the caches the measured work evicted. A
/// reading is their median, so one interrupt does not skew it.
const RUNS: usize = 3;

/// Table walked by the kernel: 256 KiB, within a core's private caches
/// once warm, so a reading measures the core's pace rather than how
/// much of the table the measured work evicted.
const TABLE_LEN: usize = 1 << 16;

/// Keys in the kernel's set: a few MiB, like the pipeline's address
/// sets.
const SET_LEN: usize = 1 << 17;

/// Reads the pace, one reading per [`tick`](Pace::tick).
pub struct Pace {
    table: Vec<u32>,
    /// The kernel's map and text, kept between runs so that no run makes
    /// a large allocation: after the measured work the allocator may hand
    /// such a block back to the system and fault it in again, which would
    /// show in the readings.
    map: HashMap<u64, u64>,
    text: String,
    set: HashSet<u128>,
    keys: Vec<u128>,
    last_ms: f64,
    factors: Samples,
}

impl Pace {
    pub fn new() -> Pace {
        // One cycle through the whole table, in a fixed scrambled order,
        // so the walk defeats the prefetcher.
        let mut order: Vec<u32> = (0..TABLE_LEN as u32).collect();
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        for i in (1..TABLE_LEN).rev() {
            let j = (xorshift(&mut state) % (i as u64 + 1)) as usize;
            order.swap(i, j);
        }
        let mut table = vec![0u32; TABLE_LEN];
        for w in 0..TABLE_LEN {
            table[order[w] as usize] = order[(w + 1) % TABLE_LEN];
        }
        let keys: Vec<u128> = (0..SET_LEN)
            .map(|_| u128::from(xorshift(&mut state)) << 64 | u128::from(xorshift(&mut state)))
            .collect();
        let mut pace = Pace {
            table,
            map: HashMap::with_capacity(1024),
            text: String::with_capacity(4096),
            set: keys.iter().copied().collect(),
            keys,
            last_ms: 0.0,
            factors: Samples::default(),
        };
        for _ in 0..20 {
            pace.read();
        }
        pace.last_ms = pace.read();
        pace
    }

    /// One reading: the median warm kernel time in ms.
    fn read(&mut self) -> f64 {
        black_box(self.kernel());
        let mut runs = Samples::default();
        for _ in 0..RUNS {
            let t = Instant::now();
            black_box(self.kernel());
            runs.push(crate::ms(t.elapsed()));
        }
        runs.median()
    }

    /// Reads the pace before timed work that follows untimed work.
    pub fn mark(&mut self) {
        self.last_ms = self.read();
    }

    /// Reads the pace again and returns the factor for the work timed
    /// since the previous reading: `NOMINAL_MS` over the mean of the two
    /// readings around that work.
    pub fn tick(&mut self) -> f64 {
        let now = self.read();
        let factor = NOMINAL_MS / ((self.last_ms + now) / 2.0);
        self.last_ms = now;
        self.factors.push(factor);
        factor
    }

    /// Runs `work` and returns its result and its time in ms at the
    /// reference pace. The previous reading must be just before it.
    pub fn time<T>(&mut self, work: impl FnOnce() -> T) -> (T, f64) {
        let t = Instant::now();
        let result = work();
        let wall_ms = crate::ms(t.elapsed());
        (result, wall_ms * self.tick())
    }

    /// Every factor handed out, for the results file.
    pub fn factors(&self) -> &Samples {
        &self.factors
    }

    /// The reference work, the same on every run, in the kinds of work
    /// the pipeline and the query path do: a dependent walk through the
    /// table (cache latency), hash-map inserts and lookups, set lookups
    /// among a few MiB of keys, and formatting, splitting and parsing
    /// text, partly in small allocations. The big map and text are kept
    /// between runs (see [`Pace::map`]); small allocations stay in the
    /// allocator's per-thread caches and are part of the work measured.
    fn kernel(&mut self) -> u64 {
        let mut at = 0usize;
        for _ in 0..2048 {
            at = self.table[at] as usize;
        }
        let mut state = 0x2545_f491_4f6c_dd1du64;
        self.map.clear();
        for i in 0..256 {
            self.map.insert(xorshift(&mut state) & 0xffff, i);
        }
        let mut acc = at as u64;
        for _ in 0..1024 {
            acc += self
                .map
                .get(&(xorshift(&mut state) & 0xffff))
                .copied()
                .unwrap_or(1);
        }
        for i in 0..128 {
            let line = format!(
                "{{\"cmd\":\"risk\",\"address\":\"0x{:040x}\"}}",
                xorshift(&mut state)
            );
            let parts: Vec<&str> = line.split('"').collect();
            let key = self.keys[(xorshift(&mut state) % SET_LEN as u64) as usize] ^ (i & 1);
            let hit = self.set.contains(&key);
            let reply = format!("{{\"ok\":true,\"epoch\":{i},\"is_daas\":{hit}}}");
            acc += (parts.len() + reply.len()) as u64;
        }
        self.text.clear();
        for _ in 0..96 {
            let _ = write!(self.text, "{:x},", xorshift(&mut state));
        }
        let parsed: u64 = self
            .text
            .split(',')
            .filter_map(|s| u64::from_str_radix(s, 16).ok())
            .fold(0, u64::wrapping_add);
        acc ^ parsed
    }
}

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_is_one_cycle() {
        let pace = Pace::new();
        let (mut at, mut steps) = (0usize, 0usize);
        loop {
            at = pace.table[at] as usize;
            steps += 1;
            if at == 0 {
                break;
            }
        }
        assert_eq!(steps, TABLE_LEN);
    }

    #[test]
    fn factors_are_positive_and_recorded() {
        let mut pace = Pace::new();
        let f = pace.tick();
        assert!(f.is_finite() && f > 0.0);
        assert_eq!(pace.factors().len(), 1);
    }
}
