//! Timing samples: median, the highest percentile the sample count
//! supports, and their JSON summary; and timings taken in chunks.
//!
//! A shared virtual machine swings between speeds about 1.5x apart, in
//! spells from about a second to minutes (`pace.rs` takes out most of
//! that where it can). A percentile pooled over a run then jumps with
//! the share of time spent in each spell, so a reported value is a
//! per-chunk percentile (a chunk is one pass, replay or short probe
//! round) averaged over the run's chunks, which moves smoothly instead.

use std::fmt::Write as _;

/// Tail percentiles tried from the highest down; one is reported only
/// when at least ten samples lie beyond it.
const TAILS: [(f64, &str); 4] = [(0.999, "p99.9"), (0.99, "p99"), (0.95, "p95"), (0.9, "p90")];

/// Samples of one timing. A failed operation is recorded as `+inf`, so
/// it misses every percentile.
#[derive(Clone, Default)]
pub struct Samples {
    values: Vec<f64>,
    sorted: bool,
}

impl Samples {
    pub fn push(&mut self, value: f64) {
        self.values.push(value);
        self.sorted = false;
    }

    pub fn push_failed(&mut self) {
        self.push(f64::INFINITY);
    }

    pub fn extend(&mut self, other: &Samples) {
        self.values.extend_from_slice(&other.values);
        self.sorted = false;
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// The samples, in the order pushed.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Multiplies every sample by `factor` (positive, so order holds).
    pub fn scale(&mut self, factor: f64) {
        self.values.iter_mut().for_each(|v| *v *= factor);
    }

    fn sort(&mut self) {
        if !self.sorted {
            self.values.sort_by(|a, b| a.total_cmp(b));
            self.sorted = true;
        }
    }

    /// Linearly interpolated quantile (`q` in 0..=1); NaN when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        let mut sorted = self.clone();
        sorted.sort();
        let v = &sorted.values;
        if v.is_empty() {
            return f64::NAN;
        }
        let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
        let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
        if lo == hi || v[hi].is_infinite() {
            return v[hi];
        }
        v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
    }

    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// Arithmetic mean; NaN when empty.
    pub fn mean(&self) -> f64 {
        self.values.iter().sum::<f64>() / self.values.len() as f64
    }

    /// The highest tail percentile with at least ten samples beyond it.
    pub fn tail(&self) -> Option<(&'static str, f64)> {
        let n = self.values.len() as f64;
        TAILS
            .iter()
            .find(|(q, _)| n * (1.0 - q) >= 10.0 - 1e-9)
            .map(|&(q, name)| (name, self.quantile(q)))
    }

    /// `{"n":…, "p50":…, "tail":"p95", "tail_value":…}`.
    pub fn summary_json(&self) -> String {
        let mut out = format!("{{\"n\": {}, \"p50\": ", self.values.len());
        daas_obs::json::fmt_num(&mut out, self.median());
        match self.tail() {
            Some((name, value)) => {
                let _ = write!(out, ", \"tail\": \"{name}\", \"tail_value\": ");
                daas_obs::json::fmt_num(&mut out, value);
            }
            None => out.push_str(", \"tail\": null, \"tail_value\": null"),
        }
        out.push('}');
        out
    }
}

/// One timing taken over several chunks of a run.
#[derive(Default)]
pub struct Chunked {
    chunks: Vec<Samples>,
}

impl Chunked {
    /// Starts a new chunk; later samples go into it.
    pub fn next_chunk(&mut self) {
        self.chunks.push(Samples::default());
    }

    /// Adds a whole chunk.
    pub fn add_chunk(&mut self, chunk: Samples) {
        self.chunks.push(chunk);
    }

    fn current(&mut self) -> &mut Samples {
        if self.chunks.is_empty() {
            self.next_chunk();
        }
        self.chunks.last_mut().expect("a chunk exists")
    }

    pub fn push(&mut self, value: f64) {
        self.current().push(value);
    }

    pub fn push_failed(&mut self) {
        self.current().push_failed();
    }

    /// Multiplies every sample of the current chunk by `factor`.
    pub fn scale_current(&mut self, factor: f64) {
        self.current().scale(factor);
    }

    /// The mean over non-empty chunks of each chunk's `q` quantile.
    pub fn quantile(&self, q: f64) -> f64 {
        let mut per_chunk = Samples::default();
        self.per_chunk(q)
            .into_iter()
            .for_each(|v| per_chunk.push(v));
        per_chunk.mean()
    }

    /// Each non-empty chunk's `q` quantile, in run order.
    pub fn per_chunk(&self, q: f64) -> Vec<f64> {
        self.chunks
            .iter()
            .filter(|c| c.len() > 0)
            .map(|c| c.quantile(q))
            .collect()
    }

    /// Every sample of every chunk.
    pub fn pooled(&self) -> Samples {
        let mut all = Samples::default();
        self.chunks.iter().for_each(|c| all.extend(c));
        all
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn of(values: &[f64]) -> Samples {
        let mut s = Samples::default();
        values.iter().for_each(|&v| s.push(v));
        s
    }

    #[test]
    fn quantiles_interpolate() {
        let s = of(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!(s.median(), 2.5);
        assert_eq!(s.quantile(0.0), 1.0);
        assert_eq!(s.quantile(1.0), 4.0);
        assert!(Samples::default().median().is_nan());
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(of(&[1.0; 99]).tail(), None);
        assert_eq!(of(&[1.0; 100]).tail().map(|t| t.0), Some("p90"));
        assert_eq!(of(&[1.0; 200]).tail().map(|t| t.0), Some("p95"));
        assert_eq!(of(&[1.0; 100_000]).tail().map(|t| t.0), Some("p99.9"));
    }

    #[test]
    fn chunked_averages_chunk_percentiles() {
        let mut c = Chunked::default();
        c.next_chunk();
        [1.0, 2.0, 3.0].iter().for_each(|&v| c.push(v));
        c.next_chunk();
        c.next_chunk();
        [10.0, 20.0, 30.0].iter().for_each(|&v| c.push(v));
        assert_eq!(c.quantile(0.5), 11.0);
        assert_eq!(c.pooled().len(), 6);
    }

    #[test]
    fn failures_miss_every_percentile() {
        let mut s = of(&[1.0; 10]);
        for _ in 0..10 {
            s.push_failed();
        }
        assert!(s.quantile(0.9).is_infinite());
        assert_eq!(s.quantile(0.0), 1.0);
    }
}
