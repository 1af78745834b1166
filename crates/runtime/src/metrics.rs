//! Measurement plumbing: counters, time-bucketed series, latency histograms.
//!
//! All experiment figures in the paper are either a time series (Figures 2,
//! 6, 8), a scalar per configuration (Figures 3, 4, 7, Table 1) or a latency
//! distribution (Figures 4, 5). [`Metrics`] collects all three kinds under
//! string keys so protocol code does not need to know which experiment it is
//! running in.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::time::{SimDuration, SimTime};

/// A log-bucketed histogram of durations.
///
/// Buckets grow geometrically (~9% per bucket), which keeps relative
/// quantile error below 5% over a microsecond-to-hours range with a few
/// hundred buckets — the same trade-off HdrHistogram makes.
///
/// # Example
///
/// ```
/// use dynastar_runtime::metrics::Histogram;
/// use dynastar_runtime::time::SimDuration;
///
/// let mut h = Histogram::new();
/// for ms in [1u64, 2, 3, 4, 100] {
///     h.record(SimDuration::from_millis(ms));
/// }
/// assert_eq!(h.count(), 5);
/// assert!(h.quantile(0.5).as_millis_f64() >= 2.0);
/// assert!(h.quantile(1.0).as_millis_f64() >= 100.0);
/// ```
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Histogram {
    buckets: BTreeMap<u32, u64>,
    count: u64,
    sum_micros: u128,
    max_micros: u64,
}

/// Growth factor between adjacent histogram buckets.
const BUCKET_GROWTH: f64 = 1.09;

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    fn bucket_index(micros: u64) -> u32 {
        if micros <= 1 {
            0
        } else {
            ((micros as f64).ln() / BUCKET_GROWTH.ln()).floor() as u32
        }
    }

    fn bucket_upper(index: u32) -> u64 {
        BUCKET_GROWTH.powi(index as i32 + 1).ceil() as u64
    }

    /// Records one observation.
    pub fn record(&mut self, d: SimDuration) {
        let micros = d.as_micros();
        *self.buckets.entry(Self::bucket_index(micros)).or_insert(0) += 1;
        self.count += 1;
        self.sum_micros += micros as u128;
        self.max_micros = self.max_micros.max(micros);
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of recorded observations; zero if empty.
    pub fn mean(&self) -> SimDuration {
        if self.count == 0 {
            SimDuration::ZERO
        } else {
            SimDuration::from_micros((self.sum_micros / self.count as u128) as u64)
        }
    }

    /// Largest recorded observation; zero if empty.
    pub fn max(&self) -> SimDuration {
        SimDuration::from_micros(self.max_micros)
    }

    /// Value at quantile `q` in `[0, 1]`; zero if empty.
    ///
    /// The returned value is an upper bound of the bucket containing the
    /// requested rank (exact for `q = 1.0`, within one bucket otherwise).
    pub fn quantile(&self, q: f64) -> SimDuration {
        if self.count == 0 {
            return SimDuration::ZERO;
        }
        let q = q.clamp(0.0, 1.0);
        if q >= 1.0 {
            return self.max();
        }
        let rank = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (&idx, &n) in &self.buckets {
            seen += n;
            if seen >= rank {
                return SimDuration::from_micros(Self::bucket_upper(idx).min(self.max_micros));
            }
        }
        self.max()
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (&idx, &n) in &other.buckets {
            *self.buckets.entry(idx).or_insert(0) += n;
        }
        self.count += other.count;
        self.sum_micros += other.sum_micros;
        self.max_micros = self.max_micros.max(other.max_micros);
    }

    /// Extracts a cumulative distribution function with one point per bucket.
    pub fn cdf(&self) -> Cdf {
        let mut points = Vec::with_capacity(self.buckets.len());
        let mut cum = 0u64;
        for (&idx, &n) in &self.buckets {
            cum += n;
            points.push((
                SimDuration::from_micros(Self::bucket_upper(idx).min(self.max_micros)),
                cum as f64 / self.count.max(1) as f64,
            ));
        }
        Cdf { points }
    }
}

/// A cumulative distribution function extracted from a [`Histogram`].
///
/// Points are `(latency, fraction ≤ latency)` in increasing order — the
/// series plotted in the paper's Figure 5.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Cdf {
    points: Vec<(SimDuration, f64)>,
}

impl Cdf {
    /// The CDF points in increasing latency order.
    pub fn points(&self) -> &[(SimDuration, f64)] {
        &self.points
    }

    /// The fraction of observations at or below `d` (0 if empty).
    pub fn fraction_le(&self, d: SimDuration) -> f64 {
        let mut frac = 0.0;
        for &(lat, f) in &self.points {
            if lat <= d {
                frac = f;
            } else {
                break;
            }
        }
        frac
    }
}

/// A time series of per-bucket sums, used for throughput-over-time plots.
///
/// # Example
///
/// ```
/// use dynastar_runtime::metrics::TimeSeries;
/// use dynastar_runtime::time::{SimDuration, SimTime};
///
/// let mut s = TimeSeries::new(SimDuration::from_secs(1));
/// s.record(SimTime::from_millis(100), 1.0);
/// s.record(SimTime::from_millis(900), 1.0);
/// s.record(SimTime::from_millis(1_500), 1.0);
/// assert_eq!(s.bucket_sums(), &[2.0, 1.0]);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TimeSeries {
    bucket: SimDuration,
    sums: Vec<f64>,
}

impl TimeSeries {
    /// Creates a series with the given bucket width.
    ///
    /// # Panics
    ///
    /// Panics if `bucket` is zero.
    pub fn new(bucket: SimDuration) -> Self {
        assert!(!bucket.is_zero(), "time series bucket must be non-zero");
        TimeSeries { bucket, sums: Vec::new() }
    }

    /// Adds `value` to the bucket containing time `t`.
    pub fn record(&mut self, t: SimTime, value: f64) {
        let idx = (t.as_micros() / self.bucket.as_micros()) as usize;
        if self.sums.len() <= idx {
            self.sums.resize(idx + 1, 0.0);
        }
        self.sums[idx] += value;
    }

    /// The bucket width.
    pub fn bucket_width(&self) -> SimDuration {
        self.bucket
    }

    /// Per-bucket sums, oldest first.
    pub fn bucket_sums(&self) -> &[f64] {
        &self.sums
    }

    /// Per-bucket rates (sum divided by bucket width in seconds).
    pub fn rates_per_sec(&self) -> Vec<f64> {
        let secs = self.bucket.as_secs_f64();
        self.sums.iter().map(|s| s / secs).collect()
    }

    /// Sum over every bucket.
    pub fn total(&self) -> f64 {
        self.sums.iter().sum()
    }
}

/// Interned handle to a counter; see [`Metrics::counter_id`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CounterId(u32);

/// Interned handle to a time series; see [`Metrics::series_id`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SeriesId(u32);

/// Interned handle to a histogram; see [`Metrics::histogram_id`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct HistogramId(u32);

/// Registry of named counters, time series and histograms for one simulation.
///
/// Keys are free-form strings; protocol crates agree on names such as
/// `"cmd.completed"` or `"oracle.queries"` (documented where recorded).
///
/// Hot paths should intern a name once with [`Metrics::counter_id`] /
/// [`Metrics::series_id`] / [`Metrics::histogram_id`] and then record
/// through the dense id — a `Vec` index instead of a string-keyed tree
/// lookup per event. The string API remains as a convenience wrapper and
/// for one-off reads in report code. Ids stay valid across
/// [`Metrics::reset`] but are meaningless in any other `Metrics` instance —
/// callers caching ids across calls that might hand them different
/// registries (e.g. per-thread scratch instances) should remember
/// [`Metrics::registry_id`] alongside and re-intern when it changes.
#[derive(Debug)]
pub struct Metrics {
    /// Process-unique instance tag; see [`Metrics::registry_id`].
    registry: u64,
    /// name → dense index; the index addresses `counter_vals`.
    counter_ids: BTreeMap<String, u32>,
    counter_vals: Vec<u64>,
    series_ids: BTreeMap<String, u32>,
    /// `None` until the first record after creation/reset, so
    /// [`Metrics::series`] only reports series that hold data.
    series_vals: Vec<Option<TimeSeries>>,
    histogram_ids: BTreeMap<String, u32>,
    histogram_vals: Vec<Option<Histogram>>,
    default_bucket: Option<SimDuration>,
}

impl Default for Metrics {
    fn default() -> Self {
        use std::sync::atomic::{AtomicU64, Ordering};
        static NEXT_REGISTRY: AtomicU64 = AtomicU64::new(0);
        Metrics {
            registry: NEXT_REGISTRY.fetch_add(1, Ordering::Relaxed),
            counter_ids: BTreeMap::new(),
            counter_vals: Vec::new(),
            series_ids: BTreeMap::new(),
            series_vals: Vec::new(),
            histogram_ids: BTreeMap::new(),
            histogram_vals: Vec::new(),
            default_bucket: None,
        }
    }
}

impl Metrics {
    /// Creates an empty registry. Time series recorded through
    /// [`Metrics::record_series`] use a 1-second bucket unless
    /// [`Metrics::set_default_bucket`] is called first.
    pub fn new() -> Self {
        Self::default()
    }

    /// A process-unique tag identifying this instance's id space. Interned
    /// [`CounterId`]/[`SeriesId`]/[`HistogramId`]s may only be used against
    /// the instance whose `registry_id` they were minted under (stable
    /// across [`Metrics::reset`]); comparing tags lets a caller detect that
    /// it has been handed a different registry and must re-intern.
    pub fn registry_id(&self) -> u64 {
        self.registry
    }

    /// Sets the bucket width used when a series is created implicitly.
    pub fn set_default_bucket(&mut self, bucket: SimDuration) {
        self.default_bucket = Some(bucket);
    }

    /// Interns `name`, returning a dense id for [`Metrics::incr`].
    /// Registering the same name twice returns the same id.
    pub fn counter_id(&mut self, name: &str) -> CounterId {
        if let Some(&i) = self.counter_ids.get(name) {
            return CounterId(i);
        }
        let i = self.counter_vals.len() as u32;
        self.counter_vals.push(0);
        self.counter_ids.insert(name.to_owned(), i);
        CounterId(i)
    }

    /// Adds `n` to the counter behind `id` (index-based, no string lookup).
    #[inline]
    pub fn incr(&mut self, id: CounterId, n: u64) {
        self.counter_vals[id.0 as usize] += n;
    }

    /// Adds `n` to counter `name`, creating it at zero if absent.
    pub fn incr_counter(&mut self, name: &str, n: u64) {
        let id = self.counter_id(name);
        self.incr(id, n);
    }

    /// Current value of counter `name` (zero if never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.counter_ids.get(name).map(|&i| self.counter_vals[i as usize]).unwrap_or(0)
    }

    /// All registered counters, sorted by name.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counter_ids.iter().map(|(k, &i)| (k.as_str(), self.counter_vals[i as usize]))
    }

    /// Interns `name`, returning a dense id for [`Metrics::record_at`].
    pub fn series_id(&mut self, name: &str) -> SeriesId {
        if let Some(&i) = self.series_ids.get(name) {
            return SeriesId(i);
        }
        let i = self.series_vals.len() as u32;
        self.series_vals.push(None);
        self.series_ids.insert(name.to_owned(), i);
        SeriesId(i)
    }

    /// Adds `value` at time `t` to the series behind `id`.
    #[inline]
    pub fn record_at(&mut self, id: SeriesId, t: SimTime, value: f64) {
        let slot = &mut self.series_vals[id.0 as usize];
        match slot {
            Some(s) => s.record(t, value),
            None => {
                let mut s =
                    TimeSeries::new(self.default_bucket.unwrap_or(SimDuration::from_secs(1)));
                s.record(t, value);
                *slot = Some(s);
            }
        }
    }

    /// Adds `value` at time `t` to series `name`, creating the series with
    /// the default bucket width if absent.
    pub fn record_series(&mut self, name: &str, t: SimTime, value: f64) {
        let id = self.series_id(name);
        self.record_at(id, t, value);
    }

    /// The series named `name`, if any value was ever recorded.
    pub fn series(&self, name: &str) -> Option<&TimeSeries> {
        self.series_ids.get(name).and_then(|&i| self.series_vals[i as usize].as_ref())
    }

    /// Interns `name`, returning a dense id for [`Metrics::observe`].
    pub fn histogram_id(&mut self, name: &str) -> HistogramId {
        if let Some(&i) = self.histogram_ids.get(name) {
            return HistogramId(i);
        }
        let i = self.histogram_vals.len() as u32;
        self.histogram_vals.push(None);
        self.histogram_ids.insert(name.to_owned(), i);
        HistogramId(i)
    }

    /// Records a duration into the histogram behind `id`.
    #[inline]
    pub fn observe(&mut self, id: HistogramId, d: SimDuration) {
        let slot = &mut self.histogram_vals[id.0 as usize];
        match slot {
            Some(h) => h.record(d),
            None => {
                let mut h = Histogram::new();
                h.record(d);
                *slot = Some(h);
            }
        }
    }

    /// Records a duration into histogram `name`, creating it if absent.
    pub fn record_histogram(&mut self, name: &str, d: SimDuration) {
        let id = self.histogram_id(name);
        self.observe(id, d);
    }

    /// The histogram named `name`, if any value was ever recorded.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histogram_ids.get(name).and_then(|&i| self.histogram_vals[i as usize].as_ref())
    }

    /// Removes all recorded data but keeps configuration and interned ids
    /// (ids handed out before a reset stay valid afterwards).
    pub fn reset(&mut self) {
        for v in &mut self.counter_vals {
            *v = 0;
        }
        for s in &mut self.series_vals {
            *s = None;
        }
        for h in &mut self.histogram_vals {
            *h = None;
        }
    }
}

/// Metric ids resolved once per registry: the value sits beside the
/// [`Metrics::registry_id`] it was resolved under, and a different registry
/// showing up (a test or a per-layer drive hands a core its own
/// `Metrics`) resolves it again instead of indexing into the wrong instance. Ids
/// carry their tag, so a clone installed in the same simulation keeps them.
#[derive(Debug, Clone)]
pub struct Interned<T>(Option<(u64, T)>);

impl<T> Default for Interned<T> {
    fn default() -> Self {
        Interned(None)
    }
}

impl<T> Interned<T> {
    /// The value for `metrics`, calling `resolve` on first use and whenever
    /// the registry is another than last time.
    ///
    /// `#[inline]`: the callers are generic protocol cores compiled in the
    /// crate that names their application, and this sits on their
    /// per-command paths.
    #[inline]
    pub fn get(&mut self, metrics: &mut Metrics, resolve: impl FnOnce(&mut Metrics) -> T) -> &T {
        let registry = metrics.registry_id();
        if self.0.as_ref().is_some_and(|(tag, _)| *tag != registry) {
            self.0 = None;
        }
        &self.0.get_or_insert_with(|| cold(|| (registry, resolve(metrics)))).1
    }
}

/// Keeps `f` — the interning of a dozen names — out of line at the many
/// per-command sites [`Interned::get`] is inlined into.
#[cold]
#[inline(never)]
fn cold<R>(f: impl FnOnce() -> R) -> R {
    f()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_bracket_observations() {
        let mut h = Histogram::new();
        for us in 1..=1000u64 {
            h.record(SimDuration::from_micros(us));
        }
        let p50 = h.quantile(0.5).as_micros();
        // within one geometric bucket of the true median
        assert!((450..=600).contains(&p50), "p50 = {p50}");
        assert_eq!(h.quantile(1.0).as_micros(), 1000);
        assert_eq!(h.count(), 1000);
        assert_eq!(h.mean().as_micros(), 500);
    }

    #[test]
    fn histogram_empty_is_zero() {
        let h = Histogram::new();
        assert_eq!(h.quantile(0.5), SimDuration::ZERO);
        assert_eq!(h.mean(), SimDuration::ZERO);
        assert_eq!(h.count(), 0);
    }

    #[test]
    fn histogram_merge_adds_counts() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(SimDuration::from_millis(1));
        b.record(SimDuration::from_millis(100));
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.max(), SimDuration::from_millis(100));
    }

    #[test]
    fn cdf_is_monotone_and_ends_at_one() {
        let mut h = Histogram::new();
        for ms in [1u64, 5, 5, 20, 100] {
            h.record(SimDuration::from_millis(ms));
        }
        let cdf = h.cdf();
        let pts = cdf.points();
        assert!(!pts.is_empty());
        let mut prev = 0.0;
        for &(_, f) in pts {
            assert!(f >= prev);
            prev = f;
        }
        assert!((prev - 1.0).abs() < 1e-9);
        assert_eq!(cdf.fraction_le(SimDuration::ZERO), 0.0);
    }

    #[test]
    fn time_series_buckets_and_rates() {
        let mut s = TimeSeries::new(SimDuration::from_millis(100));
        s.record(SimTime::from_millis(10), 2.0);
        s.record(SimTime::from_millis(250), 1.0);
        assert_eq!(s.bucket_sums(), &[2.0, 0.0, 1.0]);
        assert_eq!(s.rates_per_sec(), vec![20.0, 0.0, 10.0]);
        assert_eq!(s.total(), 3.0);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn time_series_rejects_zero_bucket() {
        let _ = TimeSeries::new(SimDuration::ZERO);
    }

    #[test]
    fn metrics_registry_counters_and_series() {
        let mut m = Metrics::new();
        m.incr_counter("x", 2);
        m.incr_counter("x", 3);
        assert_eq!(m.counter("x"), 5);
        assert_eq!(m.counter("missing"), 0);

        m.set_default_bucket(SimDuration::from_millis(10));
        m.record_series("tput", SimTime::from_millis(5), 1.0);
        assert_eq!(m.series("tput").unwrap().bucket_sums(), &[1.0]);

        m.record_histogram("lat", SimDuration::from_micros(42));
        assert_eq!(m.histogram("lat").unwrap().count(), 1);

        m.reset();
        assert_eq!(m.counter("x"), 0);
        assert!(m.series("tput").is_none());
    }

    #[test]
    fn interned_resolves_once_per_registry() {
        let (mut a, mut b) = (Metrics::new(), Metrics::new());
        let _ = b.counter_id("other"); // so "x" is id 0 in `a`, 1 in `b`
        let mut cached: Interned<CounterId> = Interned::default();
        let mut resolved = 0;
        for use_a in [true, true, false, false, true] {
            let m = if use_a { &mut a } else { &mut b };
            let id = *cached.get(m, |m| {
                resolved += 1;
                m.counter_id("x")
            });
            m.incr(id, 1);
        }
        assert_eq!(resolved, 3, "first use, then once per change of registry");
        assert_eq!((a.counter("x"), b.counter("x")), (3, 2));
        assert_eq!(b.counter("other"), 0);
    }

    #[test]
    fn interned_ids_alias_string_api_and_survive_reset() {
        let mut m = Metrics::new();
        m.set_default_bucket(SimDuration::from_millis(10));

        let c = m.counter_id("x");
        assert_eq!(c, m.counter_id("x"), "re-registration returns the same id");
        m.incr(c, 2);
        m.incr_counter("x", 3);
        assert_eq!(m.counter("x"), 5);

        let s = m.series_id("tput");
        m.record_at(s, SimTime::from_millis(5), 1.0);
        m.record_series("tput", SimTime::from_millis(6), 1.0);
        assert_eq!(m.series("tput").unwrap().bucket_sums(), &[2.0]);

        let h = m.histogram_id("lat");
        m.observe(h, SimDuration::from_micros(42));
        m.record_histogram("lat", SimDuration::from_micros(43));
        assert_eq!(m.histogram("lat").unwrap().count(), 2);

        m.reset();
        assert_eq!(m.counter("x"), 0);
        assert!(m.series("tput").is_none());
        assert!(m.histogram("lat").is_none());

        // Ids handed out before the reset keep working.
        m.incr(c, 7);
        m.record_at(s, SimTime::from_millis(1), 4.0);
        m.observe(h, SimDuration::from_micros(9));
        assert_eq!(m.counter("x"), 7);
        assert_eq!(m.series("tput").unwrap().bucket_sums(), &[4.0]);
        assert_eq!(m.histogram("lat").unwrap().count(), 1);
    }
}
