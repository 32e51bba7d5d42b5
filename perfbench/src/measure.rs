//! Timing, order statistics, memory high-water mark, and bench-side spans.

use std::time::Instant;

/// Runs `f` and returns its result with the wall seconds it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let started = Instant::now();
    let out = std::hint::black_box(f());
    (out, started.elapsed().as_secs_f64())
}

/// Repeats `f` until `budget_s` wall seconds have passed (at least `min`
/// times) and returns every iteration's result with its wall seconds.
pub fn repeat_for<T>(budget_s: f64, min: usize, mut f: impl FnMut() -> T) -> Vec<(T, f64)> {
    let started = Instant::now();
    let mut out = Vec::new();
    while out.len() < min || started.elapsed().as_secs_f64() < budget_s {
        out.push(timed(&mut f));
    }
    out
}

/// Share of each timed pass's wall time that [`SetupClock::after_pass`]
/// spends repeating set-up.
pub const SETUP_SHARE: f64 = 0.05;

/// Times set-up at the start of a run and again after every timed pass,
/// so that `setup_s`, the median of all of them, samples the same stretch
/// of wall time as the timed phase. On a shared host, set-up runs at one
/// of two speeds, up to 2× apart, for seconds at a time; a single burst
/// of repeats at the start reads whatever speed that second had.
pub struct SetupClock<F> {
    setup: F,
    times: Vec<f64>,
}

impl<F> SetupClock<F> {
    /// Runs `setup` `reps` times (at least once) and returns the first
    /// result. The other results are dropped as they come, here and in
    /// [`SetupClock::after_pass`], so repeating set-up does not raise the
    /// memory high-water mark.
    pub fn start<T>(mut setup: F, reps: usize) -> (T, Self)
    where
        F: FnMut() -> T,
    {
        let (first, secs) = timed(&mut setup);
        let mut clock = SetupClock {
            setup,
            times: vec![secs],
        };
        clock.repeat(reps.saturating_sub(1), 0.0);
        (first, clock)
    }

    /// Repeats set-up after a timed pass of `pass_s` wall seconds: for
    /// [`SETUP_SHARE`] of that, and at least once.
    pub fn after_pass<T>(&mut self, pass_s: f64)
    where
        F: FnMut() -> T,
    {
        self.repeat(1, pass_s * SETUP_SHARE);
    }

    fn repeat<T>(&mut self, min: usize, budget_s: f64)
    where
        F: FnMut() -> T,
    {
        let started = Instant::now();
        let mut n = 0;
        while n < min || started.elapsed().as_secs_f64() < budget_s {
            self.times.push(timed(&mut self.setup).1);
            n += 1;
        }
    }

    /// The median wall seconds of every set-up so far.
    pub fn median_s(&self) -> f64 {
        median(&self.times)
    }
}

/// The median of `values` (mean of the middle two for an even count).
///
/// # Panics
///
/// Panics on an empty slice: every caller measures at least once.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// A percentile of a sample, with the sample count and the percentile
/// actually reported.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The order statistic.
    pub value: f64,
    /// Samples the statistic was taken over.
    pub samples: usize,
    /// The percentile reported, in percent.
    pub percent: f64,
}

/// The `percent`-th percentile of `values` (nearest rank), capped at the
/// highest percentile that leaves at least ten samples above it: a sample
/// of `n` supports up to `100·(1 − 10/n)`. A sample of ten or fewer
/// supports only its median.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile(values: &[f64], percent: f64) -> Percentile {
    assert!(!values.is_empty(), "percentile of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let supported = if n > 10 {
        100.0 * (1.0 - 10.0 / n as f64)
    } else {
        50.0
    };
    let percent = percent.min(supported.max(50.0));
    let rank = ((percent / 100.0) * n as f64).ceil().max(1.0) as usize;
    Percentile {
        value: v[rank.min(n) - 1],
        samples: n,
        percent,
    }
}

/// The `percent`-th percentile of whole-tick latencies, interpolated the
/// way Prometheus' `histogram_quantile` interpolates inside a bucket: a
/// reading of `v` ticks stands for `[v − ½, v + ½)`, spread evenly. The
/// percentile is capped by sample support as in [`percentile`].
///
/// # Panics
///
/// Panics on an empty slice.
pub fn tick_percentile(ticks: &[u64], percent: f64) -> Percentile {
    assert!(!ticks.is_empty(), "percentile of no samples");
    let values: Vec<f64> = ticks.iter().map(|&t| t as f64).collect();
    let nearest = percentile(&values, percent);
    let n = ticks.len() as f64;
    let target = nearest.percent / 100.0 * n;
    let below = ticks
        .iter()
        .filter(|&&t| (t as f64) < nearest.value)
        .count() as f64;
    let at = ticks.iter().filter(|&&t| t as f64 == nearest.value).count() as f64;
    Percentile {
        value: nearest.value - 0.5 + ((target - below) / at).clamp(0.0, 1.0),
        ..nearest
    }
}

/// The process's resident-set high-water mark in MiB (`VmHWM` of
/// `/proc/self/status`), or `None` where the kernel does not expose it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// One bench-side span: a named interval around a call into a layer.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Position in the run's span list; children name it as `parent`.
    pub id: usize,
    /// The layer call, e.g. `core.filter/filter_candidates`.
    pub name: String,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// The enclosing span, if any.
    pub parent: Option<usize>,
}

/// Collects bench-side spans in memory; [`Tracer::to_jsonl`] writes them
/// out when the run ends. Only traced runs create one.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Runs `f` inside a span named `name`, nested in the innermost open
    /// span, and returns its result with its wall seconds.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> T) -> (T, f64) {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let started = Instant::now();
        let out = std::hint::black_box(f(self));
        let secs = started.elapsed().as_secs_f64();
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        (out, secs)
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// The spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as JSON lines: `{"id","name","start_ns","end_ns","parent"}`.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{},\"name\":{:?},\"start_ns\":{},\"end_ns\":{},\"parent\":{}}}\n",
                s.id, s.name, s.start_ns, s.end_ns, parent
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn percentile_is_capped_by_sample_support() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        let p = percentile(&values, 99.0);
        assert_eq!((p.percent, p.value, p.samples), (90.0, 90.0, 100));
        let many: Vec<f64> = (1..=2000).map(f64::from).collect();
        let p = percentile(&many, 99.0);
        assert_eq!((p.percent, p.value), (99.0, 1980.0));
        let one = percentile(&[7.0], 99.0);
        assert_eq!((one.percent, one.value, one.samples), (50.0, 7.0, 1));
    }

    #[test]
    fn tick_percentiles_interpolate_inside_a_tick() {
        // Half the sample at 10 ticks, half at 11: the median sits at the
        // boundary between the two ticks' intervals.
        let ticks: Vec<u64> = (0..100).map(|i| 10 + u64::from(i >= 50)).collect();
        let p = tick_percentile(&ticks, 50.0);
        assert!((p.value - 10.5).abs() < 1e-9, "{p:?}");
        let one = tick_percentile(&[4], 99.0);
        assert_eq!((one.value, one.samples), (4.0, 1));
    }

    #[test]
    fn spans_nest_and_serialize() {
        let mut t = Tracer::new();
        let ((), _) = t.span("outer", |t| {
            t.span("inner", |_| ());
        });
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[0].parent, None);
        assert!(t.spans()[0].end_ns >= t.spans()[1].end_ns);
        assert_eq!(t.to_jsonl().lines().count(), 2);
    }
}
