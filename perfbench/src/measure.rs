//! Measurement helpers shared by the workloads: percentiles, in-memory
//! trace spans, per-thread CPU time and peak resident memory.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// Nearest-rank percentile of an ascending slice (0 when empty).
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Median of a sample (0 when empty).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// One timed call into a layer's public function.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// The call, named `layer.function`.
    pub name: &'static str,
    /// The unit of work that caused it: a round, a replay or a client.
    pub parent: u32,
    /// Start, in ns since the trace epoch.
    pub start_ns: u64,
    /// Duration in ns.
    pub dur_ns: u64,
}

/// Spans of a traced run, kept in memory and written out once at the end.
/// Each thread records into its own `Trace` (made with [`Trace::child`])
/// and the owner merges them, so recording never takes a lock.
#[derive(Debug)]
pub struct Trace {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Trace {
    /// An empty trace whose epoch is now.
    pub fn new() -> Self {
        Trace {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// An empty trace sharing this one's epoch.
    pub fn child(&self) -> Self {
        Trace {
            epoch: self.epoch,
            spans: Vec::new(),
        }
    }

    /// Records a span that ran from `start` to `end`.
    pub fn record(&mut self, name: &'static str, parent: u32, start: Instant, end: Instant) {
        self.spans.push(Span {
            name,
            parent,
            start_ns: start.saturating_duration_since(self.epoch).as_nanos() as u64,
            dur_ns: end.saturating_duration_since(start).as_nanos() as u64,
        });
    }

    /// Runs `f` inside a span.
    pub fn time<T>(&mut self, name: &'static str, parent: u32, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.record(name, parent, start, Instant::now());
        out
    }

    /// Appends another thread's spans.
    pub fn merge(&mut self, other: Trace) {
        self.spans.extend(other.spans);
    }

    /// Ascending durations (ns) of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        let mut v: Vec<u64> = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns)
            .collect();
        v.sort_unstable();
        v
    }

    /// Per-parent sums (ns) of the spans called `name`.
    pub fn sums_by_parent(&self, name: &str) -> Vec<f64> {
        let mut sums: BTreeMap<u32, u64> = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            *sums.entry(s.parent).or_default() += s.dur_ns;
        }
        sums.values().map(|&ns| ns as f64).collect()
    }

    /// Writes every span as one tab-separated line
    /// (`name parent start_ns dur_ns`), creating the directory if needed.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "name\tparent\tstart_ns\tdur_ns")?;
        for s in &self.spans {
            writeln!(
                out,
                "{}\t{}\t{}\t{}",
                s.name, s.parent, s.start_ns, s.dur_ns
            )?;
        }
        out.flush()
    }
}

/// Linux reports thread CPU time in clock ticks of 1/100 s (`USER_HZ`).
const TICK_US: u64 = 10_000;

/// CPU time (µs, user + system) of every live thread of this process whose
/// name starts with one of `prefixes`, summed per prefix, read from
/// `/proc/self/task/*/stat`. Threads that cannot be read count as 0.
pub fn thread_cpu_us(prefixes: &[&str]) -> Vec<u64> {
    let mut totals = vec![0u64; prefixes.len()];
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return totals;
    };
    for task in tasks.flatten() {
        let Ok(stat) = std::fs::read_to_string(task.path().join("stat")) else {
            continue;
        };
        let (Some(open), Some(close)) = (stat.find('('), stat.rfind(')')) else {
            continue;
        };
        let name = &stat[open + 1..close];
        // Fields after the name start at `state` (field 3); utime and
        // stime are fields 14 and 15.
        let rest: Vec<&str> = stat[close + 1..].split_whitespace().collect();
        let ticks = |i: usize| rest.get(i).and_then(|f| f.parse::<u64>().ok()).unwrap_or(0);
        let cpu = (ticks(11) + ticks(12)) * TICK_US;
        if let Some(k) = prefixes.iter().position(|p| name.starts_with(p)) {
            totals[k] += cpu;
        }
    }
    totals
}

/// Cumulative `(steal, total)` CPU ticks of the host, from the first line
/// of `/proc/stat`: time a virtual CPU was runnable but the hypervisor ran
/// something else. Zeros when unreadable.
pub fn host_steal_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    (fields.get(7).copied().unwrap_or(0), fields.iter().sum())
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
