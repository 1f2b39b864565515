//! Shared pieces: the seeded generator, sample statistics, the result
//! record and the process facts every record carries.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The seeded generator: the workspace's `StdRng`, so a seed names the
/// same inputs on every platform and toolchain.
pub struct Rng(StdRng);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(StdRng::seed_from_u64(seed))
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.0.random::<u64>() % n as u64) as usize
    }

    /// `true` with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.0.random::<f64>() < p
    }

    /// A value of `width` bits.
    pub fn bits(&mut self, width: u32) -> u128 {
        let v = self.0.random::<u128>();
        if width >= 128 {
            v
        } else {
            v & ((1u128 << width) - 1)
        }
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Nearest-rank quantile of unsorted samples (`0.0` when empty).
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Median with the two middle samples averaged when their count is even
/// (`0.0` when empty).
pub fn median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// One named figure of a result.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the figure (percentiles and medians); `None` for
    /// counts and ratios.
    pub samples: Option<usize>,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name,
        value,
        unit,
        samples: None,
    }
}

pub fn sampled(name: &'static str, value: f64, unit: &'static str, samples: usize) -> Metric {
    Metric {
        name,
        value,
        unit,
        samples: Some(samples),
    }
}

/// Operation outcomes, counted against the number attempted. Every check
/// of an output against its reference is one operation; a failure is
/// recorded with its reason and never dropped from the data.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub reasons: Vec<String>,
}

impl Tally {
    pub fn check(&mut self, ok: bool, reason: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.reasons.len() < 20 {
                self.reasons.push(reason());
            }
        }
    }
}

/// The timed phase of one workload: per-operation latencies and totals.
#[derive(Default)]
pub struct Phase {
    /// Client-timed latency of each operation, in milliseconds.
    pub latencies_ms: Vec<f64>,
    /// Which of the workload's repeated operations each latency belongs
    /// to, in the order of `latencies_ms`.
    pub op_ids: Vec<usize>,
    /// Timed wall time of each whole round (a pass on `corpus`); every
    /// round of a workload makes the same number of operations.
    pub rounds_s: Vec<f64>,
    /// Peak resident memory over the phase (see `reset_peak_rss`).
    pub peak_rss_mb: f64,
}

impl Phase {
    pub fn ops(&self) -> usize {
        self.latencies_ms.len()
    }

    pub fn per_op_ms(&self) -> f64 {
        ratio(self.rounds_s.iter().sum::<f64>() * 1e3, self.ops() as f64)
    }

    /// Throughput of the median round. A stall that slows a few rounds
    /// moves the median less than the phase total.
    pub fn ops_per_s(&self) -> f64 {
        let per_round = ratio(self.ops() as f64, self.rounds_s.len() as f64);
        ratio(per_round, median(&self.rounds_s))
    }

    /// Record the latency of one run of operation `op`.
    pub fn record(&mut self, op: usize, ms: f64) {
        self.op_ids.push(op);
        self.latencies_ms.push(ms);
    }

    /// Median latency of each distinct operation, across its repeats.
    fn op_medians_ms(&self) -> Vec<f64> {
        let mut by_op: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
        for (&op, &ms) in self.op_ids.iter().zip(&self.latencies_ms) {
            by_op.entry(op).or_default().push(ms);
        }
        by_op.values().map(|v| median(v)).collect()
    }

    /// Distinct operations the phase repeated.
    pub fn distinct_ops(&self) -> usize {
        self.op_medians_ms().len()
    }

    /// Nearest-rank quantile `q`, over the distinct operations, of each
    /// one's median latency. Every round of a workload repeats the same
    /// operations, so this is steadier than a quantile of the pooled
    /// samples, which can fall between two clusters of programs and then
    /// reads the tail of one of them.
    pub fn op_quantile_ms(&self, q: f64) -> f64 {
        quantile(&self.op_medians_ms(), q)
    }
}

/// Everything a workload run reports back to `main`.
pub struct Outcome {
    /// Wall time of each set-up repetition, in seconds.
    pub setups_s: Vec<f64>,
    pub tally: Tally,
    /// The untraced timed phase (end-to-end figures).
    pub phase: Phase,
    /// The workload's own end-to-end figures under workload-specific
    /// names (human-readable record only).
    pub named: Vec<Metric>,
    /// Per-layer figures from the traced phase (`--trace 1` only).
    pub layers: Vec<Metric>,
}

/// Time `f` `reps` times and keep the result of the last repetition.
pub fn repeat_setup<T>(reps: usize, mut f: impl FnMut(usize) -> T) -> (T, Vec<f64>) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for rep in 0..reps {
        // Drop the previous repetition's state first, so its teardown is
        // not timed as part of the next set-up.
        drop(last.take());
        let t = Instant::now();
        last = Some(f(rep));
        times.push(t.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up repetition"), times)
}

/// Worker threads the load may use (`nproc`).
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Restart the peak-memory count from the current resident size, so that
/// a later `peak_rss_mb` covers only what ran in between (Linux: writing
/// `5` to `/proc/self/clear_refs` resets VmHWM).
pub fn reset_peak_rss() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // Hand what set-up freed back to the kernel first, so the count
        // restarts from the memory that is live rather than from what the
        // allocator happened to keep.
        // SAFETY: glibc's `malloc_trim` only releases free heap pages.
        unsafe {
            malloc_trim(0);
        }
    }
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set size of this process (VmHWM), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The commit under test, read from `.git` when the tree is a checkout
/// of a repository; `unknown` otherwise.
pub fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return if head.is_empty() {
            "unknown".into()
        } else {
            head.to_string()
        };
    };
    if let Ok(id) = std::fs::read_to_string(Path::new(".git").join(reference)) {
        return id.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_suffix(reference).map(|id| id.trim().to_string()))
        .unwrap_or_else(|| "unknown".into())
}

/// Scratch directory of this run inside the working tree; removed by the
/// guard on drop.
pub struct RunDir(pub PathBuf);

impl RunDir {
    pub fn create() -> std::io::Result<RunDir> {
        let dir = PathBuf::from(".bench_run").join(std::process::id().to_string());
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(RunDir(dir))
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leave no empty parent behind either (fails harmlessly while
        // another run still uses it).
        let _ = std::fs::remove_dir(".bench_run");
    }
}
