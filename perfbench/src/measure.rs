//! Measurement plumbing shared by the workloads: a seeded generator,
//! latency samples, peak memory, state digests and the run report.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use ruvo_obase::ObjectBase;

/// SplitMix64: a tiny, fully specified generator, so that op schedules
/// and keys depend only on the command-line seed.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// A closed-loop schedule: blocks of a fixed op mix, each block in a
/// seeded order. Fixed proportions keep throughput and percentiles
/// comparable across seeds; the order within a block still varies.
pub struct Schedule<T: Copy> {
    rng: Rng,
    mix: Vec<T>,
    block: Vec<T>,
}

impl<T: Copy> Schedule<T> {
    pub fn new(rng: Rng, mix: &[T]) -> Schedule<T> {
        Schedule { rng, mix: mix.to_vec(), block: Vec::new() }
    }
}

impl<T: Copy> Iterator for Schedule<T> {
    type Item = T;

    fn next(&mut self) -> Option<T> {
        if self.block.is_empty() {
            self.block = self.mix.clone();
            self.rng.shuffle(&mut self.block);
        }
        self.block.pop()
    }
}

/// Latency samples of one operation class.
#[derive(Default)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn push(&mut self, d: Duration) {
        self.0.push(d.as_secs_f64());
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Linear-interpolated quantile in seconds (0 when empty).
    pub fn quantile(&self, q: f64) -> f64 {
        quantile(&self.0, q)
    }

    pub fn mean(&self) -> f64 {
        if self.0.is_empty() {
            0.0
        } else {
            self.0.iter().sum::<f64>() / self.0.len() as f64
        }
    }
}

pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Time `f`, adding its duration to `acc`.
pub fn timed<R>(acc: &mut Duration, f: impl FnOnce() -> R) -> R {
    let t = Instant::now();
    let r = f();
    *acc += t.elapsed();
    r
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// An order-independent digest of an object base's facts, computed
/// from their printed form so that it is comparable across processes
/// (symbol ids depend on interning order; printed facts do not).
pub fn digest(ob: &ObjectBase) -> u64 {
    let mut line = String::new();
    let (mut sum, mut xor) = (0u64, 0u64);
    for fact in ob.iter() {
        line.clear();
        let _ = write!(line, "{fact}");
        let h = fnv1a(line.as_bytes());
        sum = sum.wrapping_add(h);
        xor ^= h.rotate_left(17);
    }
    sum ^ xor.wrapping_mul(0x100_0000_01B3) ^ (ob.len() as u64)
}

/// The printed facts of `ob` whose object name starts with `prefix`,
/// sorted (used to compare one slice of a base against a reference).
pub fn facts_with_prefix(ob: &ObjectBase, prefix: &str) -> Vec<String> {
    let mut v: Vec<String> =
        ob.iter().map(|f| f.to_string()).filter(|s| s.starts_with(prefix)).collect();
    v.sort();
    v
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xCBF2_9CE4_8422_2325u64, |h, &b| (h ^ b as u64).wrapping_mul(0x100_0000_01B3))
}

/// The checked-out revision, read from `.git` without running git
/// (a benchmark checkout need not be a repository).
pub fn git_revision() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_owned(),
        Err(_) => return "unknown".into(),
    };
    match head.strip_prefix("ref: ") {
        None => head,
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().to_owned())
            .or_else(|_| {
                let packed = std::fs::read_to_string(".git/packed-refs")?;
                packed
                    .lines()
                    .find_map(|l| l.strip_suffix(r).map(|h| h.trim().to_owned()))
                    .ok_or(std::io::ErrorKind::NotFound.into())
            })
            .unwrap_or_else(|_: std::io::Error| "unknown".into()),
    }
}

/// What one run (traced or not) of a workload produced.
#[derive(Default)]
pub struct Report {
    /// `(name, value, unit)`, in print order.
    pub metrics: Vec<(String, f64, String)>,
    /// Run description: seed, sizes, host, policies, sample counts.
    pub info: Vec<(String, String)>,
    pub attempted: u64,
    pub failed: u64,
    /// One line per failed operation or check.
    pub errors: Vec<String>,
    /// Operations of the timed loop (the traced run replays as many).
    pub ops: u64,
    /// Set-up times in seconds, one per set-up.
    pub setups: Vec<f64>,
    /// Digest of the run's final state.
    pub digest: u64,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64, unit: &str) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.metrics.push((name.to_owned(), value, unit.to_owned()));
    }

    pub fn info(&mut self, key: &str, value: impl ToString) {
        self.info.push((key.to_owned(), value.to_string()));
    }

    /// Count one operation; `Err` (a failed call or a failed output
    /// check) counts it as failed.
    pub fn op(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.fail(e);
        }
    }

    pub fn fail(&mut self, e: String) {
        self.failed += 1;
        if self.errors.len() < 20 {
            self.errors.push(e);
        }
    }

    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, ..)| n == name).map(|(_, v, _)| *v)
    }

    /// Line protocol a parent process reads back (see [`Report::parse`]).
    pub fn to_lines(&self) -> String {
        let mut s = String::new();
        for (n, v, u) in &self.metrics {
            let _ = writeln!(s, "metric {n} {v:?} {u}");
        }
        for (k, v) in &self.info {
            let _ = writeln!(s, "info {k} {v}");
        }
        for e in &self.errors {
            let _ = writeln!(s, "error {}", e.replace('\n', " "));
        }
        let _ = writeln!(s, "attempted {}", self.attempted);
        let _ = writeln!(s, "failed {}", self.failed);
        let _ = writeln!(s, "ops {}", self.ops);
        for t in &self.setups {
            let _ = writeln!(s, "setup {t:?}");
        }
        let _ = writeln!(s, "digest {:016x}", self.digest);
        s
    }

    pub fn parse(text: &str) -> Result<Report, String> {
        let mut r = Report::default();
        let bad = |l: &str| format!("unreadable child output line: {l}");
        for line in text.lines() {
            let (key, rest) = line.split_once(' ').unwrap_or((line, ""));
            match key {
                "metric" => {
                    let mut it = rest.split(' ');
                    let (Some(n), Some(v), Some(u)) = (it.next(), it.next(), it.next()) else {
                        return Err(bad(line));
                    };
                    r.metric(n, v.parse().map_err(|_| bad(line))?, u);
                }
                "info" => {
                    let (k, v) = rest.split_once(' ').unwrap_or((rest, ""));
                    r.info(k, v);
                }
                "error" => r.errors.push(rest.to_owned()),
                "attempted" => r.attempted = rest.parse().map_err(|_| bad(line))?,
                "failed" => r.failed = rest.parse().map_err(|_| bad(line))?,
                "ops" => r.ops = rest.parse().map_err(|_| bad(line))?,
                "setup" => r.setups.push(rest.parse().map_err(|_| bad(line))?),
                "digest" => r.digest = u64::from_str_radix(rest, 16).map_err(|_| bad(line))?,
                _ => {}
            }
        }
        Ok(r)
    }
}

/// Seconds as milliseconds.
pub fn ms(s: f64) -> f64 {
    s * 1e3
}

pub fn ms_of(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}
