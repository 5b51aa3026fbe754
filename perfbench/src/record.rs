//! The benchmark's own measurement plumbing: spans recorded around calls
//! into the program, quantiles over samples, the metric list a run
//! prints, and peak-RSS readings from `/proc`.

use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

/// One timed call into a layer of the program.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    /// Id of the enclosing span (0 = none).
    pub parent: u64,
    pub start: Instant,
    pub end: Instant,
}

impl Span {
    pub fn dur(&self) -> Duration {
        self.end - self.start
    }
}

/// In-memory span recorder. Disabled recorders drop every span, so the
/// untraced runs pay one branch per call site; spans are written out only
/// at the end of a traced run.
pub struct Spans {
    on: bool,
    t0: Instant,
    next_id: u64,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new(on: bool) -> Self {
        Spans {
            on,
            t0: Instant::now(),
            next_id: 1,
            spans: Vec::new(),
        }
    }

    /// Reserves an id for a span whose children are recorded before it
    /// ends (pass the id to [`Spans::record_as`] when it does).
    pub fn reserve(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    pub fn record(&mut self, name: &'static str, parent: u64, start: Instant, end: Instant) {
        if self.on {
            let id = self.reserve();
            self.record_as(id, name, parent, start, end);
        }
    }

    pub fn record_as(
        &mut self,
        id: u64,
        name: &'static str,
        parent: u64,
        start: Instant,
        end: Instant,
    ) {
        if self.on {
            self.spans.push(Span {
                name,
                id,
                parent,
                start,
                end,
            });
        }
    }

    /// Every span called `name`, in recording order.
    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Durations of every span called `name`, in microseconds.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.named(name)
            .map(|s| s.dur().as_secs_f64() * 1e6)
            .collect()
    }

    /// Durations of every span called `name`, in seconds.
    pub fn durations_s(&self, name: &str) -> Vec<f64> {
        self.named(name).map(|s| s.dur().as_secs_f64()).collect()
    }

    /// Summed duration (s) of the spans called `name`, per parent span.
    pub fn sum_by_parent_s(&self, name: &str) -> Vec<f64> {
        let mut sums = std::collections::BTreeMap::<u64, f64>::new();
        for s in self.named(name) {
            *sums.entry(s.parent).or_default() += s.dur().as_secs_f64();
        }
        sums.into_values().collect()
    }

    /// Writes the spans as a Chrome trace-event file (loadable in
    /// Perfetto): one complete event per span, parent id in `args`.
    pub fn write_chrome(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(f, "{{\"traceEvents\":[")?;
        for (i, s) in self.spans.iter().enumerate() {
            let ts = (s.start - self.t0).as_secs_f64() * 1e6;
            let dur = s.dur().as_secs_f64() * 1e6;
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                f,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{ts:.3},\"dur\":{dur:.3},\
                 \"args\":{{\"id\":{},\"parent\":{}}}}}{sep}",
                s.name, s.id, s.parent
            )?;
        }
        writeln!(f, "]}}")?;
        f.flush()
    }
}

/// Nearest-rank quantile of `samples` (sorted in place); 0 when empty.
pub fn quantile(samples: &mut [f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(f64::total_cmp);
    let rank = (q * samples.len() as f64).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1]
}

/// Median with the two middle values averaged; 0 when empty.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The fast quartile of per-repetition times: their first quartile.
///
/// Runs share the machine's cores with other tenants, which slow whole
/// stretches of a run (seconds long) by up to ~70% of a core's speed. The
/// fastest quarter of repetitions shows the program's own cost; the
/// median would move with how much of a run the neighbours took.
pub fn fast_time(samples: &[f64]) -> f64 {
    quantile(&mut samples.to_vec(), 0.25)
}

/// The fast quartile of per-repetition rates: their third quartile.
pub fn fast_rate(samples: &[f64]) -> f64 {
    quantile(&mut samples.to_vec(), 0.75)
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The named metrics one run reports, in print order.
#[derive(Default)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }
}

/// What a run reports: its metrics, the tasks it attempted and failed,
/// human-readable notes, and (traced runs) the spans to write out.
pub struct Outcome {
    pub metrics: Metrics,
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
    pub spans: Option<Spans>,
}

/// One figure per repetition, for the notes.
pub fn listing(values: impl IntoIterator<Item = f64>) -> String {
    values
        .into_iter()
        .map(|v| format!("{v:.0}"))
        .collect::<Vec<_>>()
        .join(" ")
}

/// `VmHWM` (peak resident set) of process `pid` in MiB, from
/// `/proc/<pid>/status`.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Resets this process's `VmHWM` to its current RSS, so the next reading
/// covers only what follows (`/proc/self/clear_refs`, Linux 4.0+).
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Sum of the peak RSS (MiB) of this process's live children whose
/// command name starts with `comm_prefix`.
pub fn children_peak_rss_mb(comm_prefix: &str) -> f64 {
    let me = std::process::id().to_string();
    let mut total = 0.0;
    let Ok(dir) = std::fs::read_dir("/proc") else {
        return 0.0;
    };
    for entry in dir.flatten() {
        let pid = entry.file_name().to_string_lossy().into_owned();
        if !pid.bytes().all(|b| b.is_ascii_digit()) {
            continue;
        }
        let Ok(stat) = std::fs::read_to_string(format!("/proc/{pid}/stat")) else {
            continue;
        };
        // `pid (comm) state ppid ...`; comm may hold spaces or parens.
        let (Some(open), Some(close)) = (stat.find('('), stat.rfind(')')) else {
            continue;
        };
        let comm = &stat[open + 1..close];
        let ppid = stat[close + 1..].split_whitespace().nth(1);
        if ppid == Some(me.as_str()) && comm.starts_with(comm_prefix) {
            total += peak_rss_mb(&pid).unwrap_or(0.0);
        }
    }
    total
}

/// SplitMix64: the benchmark's seeded generator for inputs and DAG seeds.
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (n > 0).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// `len` seeded bytes (`len` a multiple of 8).
    pub fn bytes(&mut self, len: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(len);
        for _ in 0..len / 8 {
            out.extend_from_slice(&self.next_u64().to_le_bytes());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&mut v, 0.5), 50.0);
        assert_eq!(quantile(&mut v, 0.99), 99.0);
        assert_eq!(quantile(&mut v, 1.0), 100.0);
        assert_eq!(quantile(&mut [7.0], 0.99), 7.0);
        assert_eq!(quantile(&mut [], 0.5), 0.0);
    }

    #[test]
    fn median_averages_the_middle_pair() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn splitmix_is_seeded() {
        let a: Vec<u64> = (0..4).map(|_| SplitMix(7).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(SplitMix(7).next_u64(), SplitMix(8).next_u64());
        assert_eq!(SplitMix(1).bytes(24).len(), 24);
    }

    #[test]
    fn own_peak_rss_is_readable() {
        assert!(peak_rss_mb("self").unwrap() > 0.0);
    }
}
