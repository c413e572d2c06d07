//! ruvo's end-to-end benchmark.
//!
//! ```text
//! perfbench --workload <serve_mixed|serve_read|rule_batch> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` runs the workload untraced, in this process, and prints
//! the end-to-end metrics. `--trace 1` runs it untraced in one child
//! process and traced in a second, then prints the per-layer metrics.
//! Either way the last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`,
//! preceded by a `{"record": ..}` line that describes the run. The
//! exit code is non-zero when any output check failed. See README.md.

mod batch;
mod layers;
mod measure;
mod serve;

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use measure::{quantile, Report};
use serve::Kind;

/// End-to-end metrics printed by `--trace 0`, on every workload.
/// `op_*` is the workload's defining operation: a commit on
/// `serve_mixed`, a read on `serve_read` (its queries dominate its
/// `ops_per_s`), a program on `rule_batch`.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics printed by `--trace 1`, on every workload; a
/// layer the workload leaves idle reports 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("database.prepare_ms", "ms"),
    ("session.work_copy_ms", "ms"),
    ("engine.run_ms", "ms"),
    ("engine.rounds", "count"),
    ("engine.fired_updates", "count"),
    ("engine.facts_copied", "count"),
    ("engine.versions_created", "count"),
    ("engine.rule_evaluations", "count"),
    ("engine.skipped_ratio", "ratio"),
    ("engine.rounds.raise", "count"),
    ("engine.fired_updates.raise", "count"),
    ("engine.facts_copied.raise", "count"),
    ("engine.versions_created.raise", "count"),
    ("engine.rule_evaluations.raise", "count"),
    ("engine.skipped_ratio.raise", "ratio"),
    ("engine.rounds.enterprise", "count"),
    ("engine.fired_updates.enterprise", "count"),
    ("engine.facts_copied.enterprise", "count"),
    ("engine.versions_created.enterprise", "count"),
    ("engine.rule_evaluations.enterprise", "count"),
    ("engine.skipped_ratio.enterprise", "ratio"),
    ("engine.rounds.chief", "count"),
    ("engine.fired_updates.chief", "count"),
    ("engine.facts_copied.chief", "count"),
    ("engine.versions_created.chief", "count"),
    ("engine.rule_evaluations.chief", "count"),
    ("engine.skipped_ratio.chief", "ratio"),
    ("engine.extract_ms", "ms"),
    ("obase.rebase_ms", "ms"),
    ("obase.unshared_shards", "count"),
    ("session.retire_ms", "ms"),
    ("session.unattributed_ms", "ms"),
    ("store.wal_append_ms", "ms"),
    ("store.wal_bytes_per_commit", "bytes"),
    ("store.ckpt_plan_ms", "ms"),
    ("store.ckpt_encode_ms", "ms"),
    ("store.ckpt_install_ms", "ms"),
    ("store.ckpt_bytes", "bytes"),
    ("store.reopen_decode_ms", "ms"),
    ("database.reopen_replay_ms", "ms"),
    ("store.reopen_records", "count"),
    ("query.plan_ms", "ms"),
    ("query.run_ms", "ms"),
    ("query.rows", "count"),
    ("serve.snapshot_ns", "ns"),
    ("obase.lookup_ns", "ns"),
    ("bench.trace_overhead_frac", "ratio"),
];

/// Workload sizes. `full` is what the benchmark measures; `toy` is
/// for the smoke test.
pub struct Sizes {
    /// Employees of the serve workloads' enterprise (~3.2 facts each).
    pub serve_employees: usize,
    /// `workload::durability` accounts added to the serve base.
    pub accounts: usize,
    /// Distinct query goals, each with its reference answer.
    pub goals: usize,
    /// `serve_mixed` commits per second of `--seconds`: the run makes
    /// a fixed number of commits (and mix blocks), not as many as fit.
    pub commits_per_second: f64,
    /// Commits after the final synchronous checkpoint: the WAL tail
    /// every reopen replays.
    pub tail_commits: usize,
    pub reopens: usize,
    /// Set-ups per process. `setup_s` is the median of these in the
    /// run's own process and in `setup_procs` more.
    pub setups: usize,
    /// Fresh processes that only set up, started before the run. A
    /// 20-ms set-up runs at one of two speeds that differ by up to half
    /// and hold for a whole process, so one process's median swings
    /// between them; pooling several processes keeps `setup_s` steady.
    pub setup_procs: usize,
    /// Commits between background checkpoints (as `ruvo serve`).
    pub ckpt_every: usize,
    /// Employees of the `rule_batch` enterprise.
    pub batch_employees: usize,
}

const FULL: Sizes = Sizes {
    serve_employees: 32_000,
    accounts: 1_000,
    goals: 256,
    commits_per_second: 2.4,
    tail_commits: 4,
    reopens: 3,
    setups: 3,
    setup_procs: 4,
    ckpt_every: 16,
    batch_employees: 10_000,
};

const TOY: Sizes = Sizes {
    serve_employees: 300,
    accounts: 20,
    goals: 16,
    commits_per_second: 8.0,
    tail_commits: 2,
    reopens: 2,
    setups: 2,
    setup_procs: 1,
    ckpt_every: 4,
    batch_employees: 200,
};

/// One run's parameters.
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub sizes: Sizes,
    /// Scratch directory for durable state, inside the checkout.
    pub data_dir: PathBuf,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    size: String,
    /// Internal: `untraced` or `traced` child of a `--trace 1` run, or
    /// a `setup` child that only times set-ups.
    role: Option<String>,
    /// Internal: operations the traced child replays.
    ops: u64,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        size: "full".into(),
        role: None,
        ops: 0,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => a.workload = value.clone(),
            "--seed" => a.seed = value.parse().map_err(|_| bad.clone())?,
            "--seconds" => a.seconds = value.parse().map_err(|_| bad.clone())?,
            "--trace" => a.trace = value.parse::<u8>().map_err(|_| bad.clone())? == 1,
            "--size" => a.size = value.clone(),
            "--role" => a.role = Some(value.clone()),
            "--ops" => a.ops = value.parse().map_err(|_| bad.clone())?,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !["serve_mixed", "serve_read", "rule_batch"].contains(&a.workload.as_str()) {
        return Err(format!("unknown workload {:?}", a.workload));
    }
    if !["full", "toy"].contains(&a.size.as_str()) {
        return Err(format!("unknown size {:?}", a.size));
    }
    Ok(a)
}

fn run(ctx: &Ctx, traced: Option<u64>) -> Result<Report, String> {
    match (ctx.workload.as_str(), traced) {
        ("serve_mixed", None) => serve::untraced(Kind::Mixed, ctx),
        ("serve_mixed", Some(ops)) => serve::traced(Kind::Mixed, ctx, ops),
        ("serve_read", None) => serve::untraced(Kind::Read, ctx),
        ("serve_read", Some(ops)) => serve::traced(Kind::Read, ctx, ops),
        ("rule_batch", None) => batch::untraced(ctx),
        ("rule_batch", Some(ops)) => batch::traced(ctx, ops),
        _ => unreachable!("workload names are validated"),
    }
}

/// Set-up times of `ctx.sizes.setups` set-ups in this process.
fn setup_times(ctx: &Ctx) -> Result<Vec<f64>, String> {
    match ctx.workload.as_str() {
        "serve_mixed" => Ok(serve::set_up(Kind::Mixed, ctx)?.0),
        "serve_read" => Ok(serve::set_up(Kind::Read, ctx)?.0),
        _ => Ok(batch::set_up(ctx)?.0),
    }
}

/// The untraced run, plus set-up timed in `setup_procs` fresh
/// processes before it; `setup_s` is the median over all of them.
fn untraced(args: &Args, ctx: &Ctx) -> Result<Report, String> {
    let mut setups = Vec::new();
    for _ in 0..ctx.sizes.setup_procs {
        setups.extend(child(args, &["--role".into(), "setup".into()])?.setups);
    }
    let mut r = run(ctx, None)?;
    r.setups.extend(setups);
    r.info("setup_repetitions", r.setups.len());
    r.info("setup_processes", ctx.sizes.setup_procs + 1);
    r.metric("setup_s", quantile(&r.setups, 0.5), "s");
    Ok(r)
}

/// Run this binary again as a child with `extra` arguments and read
/// its report back.
fn child(args: &Args, extra: &[String]) -> Result<Report, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", &args.workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--size", &args.size])
        .args(extra);
    let out = cmd.output().map_err(|e| format!("spawning child: {e}"))?;
    eprint!("{}", String::from_utf8_lossy(&out.stderr));
    if !out.status.success() {
        return Err(format!("child {extra:?} exited with {}", out.status));
    }
    Report::parse(&String::from_utf8_lossy(&out.stdout))
}

fn json_str(s: &str) -> String {
    let mut o = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => o.push_str("\\\""),
            '\\' => o.push_str("\\\\"),
            c if (c as u32) < 0x20 => o.push_str(&format!("\\u{:04x}", c as u32)),
            c => o.push(c),
        }
    }
    o.push('"');
    o
}

fn json_metrics(metrics: &[(String, f64, String)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| {
            format!("{}: {{\"value\": {v:?}, \"unit\": {}}}", json_str(n), json_str(u))
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The descriptive record line: run parameters, host, every metric
/// the run measured (including those not in the final line) and any
/// failures.
fn record_line(args: &Args, parts: &[(&str, &Report)]) -> String {
    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut fields = vec![
        format!("\"workload\": {}", json_str(&args.workload)),
        format!("\"seed\": {}", args.seed),
        format!("\"seconds\": {:?}", args.seconds),
        format!("\"size\": {}", json_str(&args.size)),
        format!("\"host_cpus\": {cpus}"),
        format!("\"git_revision\": {}", json_str(&measure::git_revision())),
    ];
    for (label, r) in parts {
        let info: Vec<String> =
            r.info.iter().map(|(k, v)| format!("{}: {}", json_str(k), json_str(v))).collect();
        let errors: Vec<String> = r.errors.iter().map(|e| json_str(e)).collect();
        fields.push(format!(
            "{}: {{\"info\": {{{}}}, \"metrics\": {}, \"attempted\": {}, \"failed\": {}, \"failed_frac\": {:?}, \"ops\": {}, \"errors\": [{}]}}",
            json_str(label),
            info.join(", "),
            json_metrics(&r.metrics),
            r.attempted,
            r.failed,
            r.failed as f64 / r.attempted.max(1) as f64,
            r.ops,
            errors.join(", ")
        ));
    }
    format!("{{\"record\": {{{}}}}}", fields.join(", "))
}

fn pick(r: &Report, name: &str) -> Result<f64, String> {
    r.value(name).ok_or_else(|| format!("run did not measure {name}"))
}

/// `--trace 0`: the end-to-end metrics of an untraced run.
fn end_to_end(args: &Args, r: &Report) -> Result<Vec<(String, f64, String)>, String> {
    // (p50 source, p90 source, their unit in ms)
    let (p50, p90, to_ms) = match args.workload.as_str() {
        "serve_mixed" => ("commit_p50_ms", "commit_p90_ms", 1.0),
        "serve_read" => ("read_p50_us", "read_p90_us", 1e-3),
        _ => ("program_p50_ms", "program_p90_ms", 1.0),
    };
    END_TO_END
        .iter()
        .map(|&(name, unit)| {
            let value = match name {
                "op_p50_ms" => pick(r, p50)? * to_ms,
                "op_p90_ms" => pick(r, p90)? * to_ms,
                n => pick(r, n)?,
            };
            Ok((name.to_owned(), value, unit.to_owned()))
        })
        .collect()
}

/// `--trace 1`: untraced and traced children, compared.
fn per_layer(untraced: &Report, traced: &mut Report) -> Result<Vec<(String, f64, String)>, String> {
    if traced.digest != untraced.digest {
        traced.fail(format!(
            "traced final state {:016x} differs from untraced {:016x}",
            traced.digest, untraced.digest
        ));
    }
    traced.attempted += 1;
    let unattributed = pick(untraced, "path_mean_ms")? - pick(traced, "traced_path_ms")?;
    let overhead = 1.0 - pick(traced, "ops_per_s")? / pick(untraced, "ops_per_s")?;
    traced.metric("session.unattributed_ms", unattributed, "ms");
    traced.metric("bench.trace_overhead_frac", overhead, "ratio");
    Ok(PER_LAYER
        .iter()
        .map(|&(name, unit)| (name.to_owned(), traced.value(name).unwrap_or(0.0), unit.to_owned()))
        .collect())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let data_dir =
        PathBuf::from(".perfbench-data").join(format!("{}-{}", args.workload, std::process::id()));
    let ctx = Ctx {
        workload: args.workload.clone(),
        seed: args.seed,
        seconds: args.seconds,
        sizes: if args.size == "toy" { TOY } else { FULL },
        data_dir: data_dir.clone(),
    };
    let result = main_with(&args, &ctx);
    let _ = std::fs::remove_dir_all(&data_dir);
    let _ = std::fs::remove_dir(".perfbench-data");
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

/// Returns whether every check passed.
fn main_with(args: &Args, ctx: &Ctx) -> Result<bool, String> {
    match args.role.as_deref() {
        Some("untraced") => {
            print!("{}", untraced(args, ctx)?.to_lines());
            return Ok(true);
        }
        Some("traced") => {
            print!("{}", run(ctx, Some(args.ops))?.to_lines());
            return Ok(true);
        }
        Some("setup") => {
            let r = Report { setups: setup_times(ctx)?, ..Report::default() };
            print!("{}", r.to_lines());
            return Ok(true);
        }
        Some(other) => return Err(format!("unknown role {other}")),
        None => {}
    }
    let (line, attempted, failed, metrics) = if args.trace {
        let untraced = child(args, &["--role".into(), "untraced".into()])?;
        let mut traced = child(
            args,
            &["--role".into(), "traced".into(), "--ops".into(), untraced.ops.to_string()],
        )?;
        let metrics = per_layer(&untraced, &mut traced)?;
        let line = record_line(args, &[("untraced", &untraced), ("traced", &traced)]);
        (line, untraced.attempted + traced.attempted, untraced.failed + traced.failed, metrics)
    } else {
        let r = untraced(args, ctx)?;
        let metrics = end_to_end(args, &r)?;
        (record_line(args, &[("untraced", &r)]), r.attempted, r.failed, metrics)
    };
    println!("{line}");
    let correct = failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        json_metrics(&metrics)
    );
    Ok(correct)
}
