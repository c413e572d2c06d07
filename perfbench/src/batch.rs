//! `rule_batch`: the paper's set-oriented programs applied to an
//! O(shards) clone of a loaded volatile `Database`, so that every
//! operation starts from the same state and its work does not drift.

use std::sync::Arc;
use std::time::{Duration, Instant};

use ruvo_core::{CompiledProgram, Database, EngineConfig, EvalStats, Prepared};
use ruvo_lang::Program;
use ruvo_obase::ObjectBase;
use ruvo_workload::{
    enterprise_program, salary_raise_program, Enterprise, EnterpriseConfig, CHIEF_PROGRAM,
};

use crate::layers::{add_stats, compile, engine_counts, per, traced_apply, CommitLayers};
use crate::measure::{digest, ms, peak_rss_mb, timed, Report, Rng, Samples, Schedule};
use crate::Ctx;

/// Metric suffixes of the three programs, in schedule order.
const NAMES: [&str; 3] = ["raise", "enterprise", "chief"];

fn programs() -> Result<[Program; 3], String> {
    let chief = Program::parse(CHIEF_PROGRAM).map_err(|e| e.to_string())?;
    Ok([salary_raise_program(), enterprise_program(), chief])
}

/// Generator seed of the `rule_batch` enterprise. The instance is
/// fixed: the boss forest's shape, and with it the size of the `chief`
/// closure, varies by about ±11% between generator seeds, which would
/// swamp any regression bound. `--seed` drives the program order.
const BASE_SEED: u64 = 0xEC0_FFEE;

fn base(ctx: &Ctx) -> ObjectBase {
    Enterprise::generate(EnterpriseConfig {
        employees: ctx.sizes.batch_employees,
        seed: BASE_SEED,
        ..Default::default()
    })
    .ob
}

/// What one application of a program must reproduce on every
/// repetition.
#[derive(Clone, Copy, PartialEq, Debug)]
struct Result1 {
    facts_after: usize,
    fired_updates: usize,
}

fn check(p: usize, got: Result1, want: Result1) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!("{} gave {got:?}, first application gave {want:?}", NAMES[p]))
    }
}

fn describe(ctx: &Ctx, r: &mut Report, facts: usize) {
    r.info("base_facts", facts);
    r.info("employees", ctx.sizes.batch_employees);
    r.info("base_seed", format!("{BASE_SEED:#x} (fixed)"));
    r.info("programs", "salary_raise_program, enterprise_program, CHIEF_PROGRAM; one of each per block, seeded order");
    r.info("fsync_policy", "none (volatile)");
}

/// Fold per-program digests of ob′ into one state digest.
fn fold(digests: &[u64; 3]) -> u64 {
    digests.iter().enumerate().fold(0, |acc, (i, d)| acc ^ d.rotate_left(21 * i as u32))
}

/// `ctx.sizes.setups` timed set-ups: load the database and prepare the
/// programs. Returns their times and the last one's database.
pub fn set_up(ctx: &Ctx) -> Result<(Vec<f64>, Database, [Prepared; 3]), String> {
    let mut setups = Vec::new();
    let mut loaded = None;
    for _ in 0..ctx.sizes.setups {
        drop(loaded.take());
        let t = Instant::now();
        let db = Database::open(base(ctx));
        let prepared = programs()?.map(|p| db.prepare_program(p).map_err(|e| e.to_string()));
        let [a, b, c] = prepared;
        let prepared = [a?, b?, c?];
        setups.push(t.elapsed().as_secs_f64());
        loaded = Some((db, prepared));
    }
    let (db, prepared) = loaded.expect("at least one setup");
    Ok((setups, db, prepared))
}

pub fn untraced(ctx: &Ctx) -> Result<Report, String> {
    let mut r = Report::default();
    let (setups, db, prepared) = set_up(ctx)?;
    r.setups = setups;
    describe(ctx, &mut r, db.current().len());

    // Warm-up: build the session's prepared working base (the clones
    // share it) and apply each program once; the first application is
    // the reference every repetition must match.
    drop(db.session().prepared_work());
    let mut reference = Vec::new();
    let mut digests = [0u64; 3];
    for (p, prog) in prepared.iter().enumerate() {
        let mut clone = db.clone();
        let txn = clone.apply(prog).map_err(|e| e.to_string())?;
        reference.push(Result1 {
            facts_after: txn.facts_after,
            fired_updates: txn.outcome.stats().fired_updates,
        });
        digests[p] = digest(clone.current());
        r.attempted += 1;
    }
    r.digest = fold(&digests);
    for (p, want) in reference.iter().enumerate() {
        r.info(&format!("facts_after.{}", NAMES[p]), want.facts_after);
        r.info(&format!("fired_updates.{}", NAMES[p]), want.fired_updates);
    }

    let mut schedule = Schedule::new(Rng::new(ctx.seed, 3), &[0usize, 1, 2]);
    let mut all = Samples::default();
    let mut each: [Samples; 3] = Default::default();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(ctx.seconds);
    // Whole blocks only, so that every program is timed equally often
    // and the percentiles do not shift with the last block's remainder.
    while Instant::now() < deadline || r.ops % NAMES.len() as u64 != 0 {
        let p = schedule.next().expect("schedules are endless");
        let mut clone = db.clone();
        let t = Instant::now();
        let applied = clone.apply(&prepared[p]).map(|txn| Result1 {
            facts_after: txn.facts_after,
            fired_updates: txn.outcome.stats().fired_updates,
        });
        let d = t.elapsed();
        all.push(d);
        each[p].push(d);
        r.op(applied.map_err(|e| e.to_string()).and_then(|got| check(p, got, reference[p])));
        // Releasing the clone (its log keeps the outcome) is not part
        // of the application's latency.
        drop(clone);
        r.ops += 1;
    }
    let loop_s = start.elapsed().as_secs_f64();

    r.info("programs_timed", all.len());
    for (p, s) in each.iter().enumerate() {
        r.info(&format!("programs_timed.{}", NAMES[p]), s.len());
    }
    r.metric("program_p50_ms", ms(all.quantile(0.5)), "ms");
    r.metric("program_p90_ms", ms(all.quantile(0.9)), "ms");
    for (p, s) in each.iter().enumerate() {
        r.metric(&format!("program_p50_ms.{}", NAMES[p]), ms(s.quantile(0.5)), "ms");
    }
    r.metric("ops_per_s", r.ops as f64 / loop_s, "1/s");
    r.metric("peak_rss_mb", peak_rss_mb(), "MB");
    r.metric("path_mean_ms", ms(all.mean()), "ms");
    Ok(r)
}

/// Per-layer time and work of the traced run; `each` keeps the engine
/// counters and application count per program.
#[derive(Default)]
struct Layers {
    commit: CommitLayers,
    each: [(EvalStats, u64); 3],
}

/// One application of program `p` through the layers, then retire
/// the result. Returns the result and the digest of ob′ when
/// `want_digest`.
fn apply(
    l: &mut Layers,
    config: &EngineConfig,
    committed: &ObjectBase,
    prepared: &ObjectBase,
    compiled: &CompiledProgram,
    p: usize,
    want_digest: bool,
) -> Result<(Result1, u64), String> {
    let (new_ob, outcome) = traced_apply(&mut l.commit, config, committed, prepared, compiled)?;
    let s = outcome.stats();
    add_stats(&mut l.each[p].0, s);
    l.each[p].1 += 1;
    let got = Result1 { facts_after: new_ob.len(), fired_updates: s.fired_updates };
    let d = if want_digest { digest(&new_ob) } else { 0 };
    timed(&mut l.commit.retire, || drop((new_ob, outcome)));
    Ok((got, d))
}

pub fn traced(ctx: &Ctx, ops: u64) -> Result<Report, String> {
    let mut r = Report::default();
    let config = EngineConfig::default();
    let committed = Arc::new(base(ctx));
    describe(ctx, &mut r, committed.len());
    let mut prepare = Duration::ZERO;
    let [a, b, c] = programs()?.map(|p| timed(&mut prepare, || compile(p, config.cycles)));
    let compiled = [a?, b?, c?];
    // The session's cached prepared base, built once (warm-up).
    let mut prepared = (*committed).clone();
    prepared.ensure_exists();

    let mut l = Layers::default();
    let mut reference = Vec::new();
    let mut digests = [0u64; 3];
    for (p, c) in compiled.iter().enumerate() {
        let (got, d) = apply(&mut l, &config, &committed, &prepared, c, p, true)?;
        reference.push(got);
        digests[p] = d;
        r.attempted += 1;
    }
    r.digest = fold(&digests);
    l = Layers::default();

    let mut schedule = Schedule::new(Rng::new(ctx.seed, 3), &[0usize, 1, 2]);
    let start = Instant::now();
    for _ in 0..ops {
        let p = schedule.next().expect("schedules are endless");
        let res = apply(&mut l, &config, &committed, &prepared, &compiled[p], p, false);
        r.op(res.and_then(|(got, _)| check(p, got, reference[p])));
        r.ops += 1;
    }
    let loop_s = start.elapsed().as_secs_f64();

    r.info("programs_traced", l.commit.applies);
    r.metric("database.prepare_ms", ms(prepare.as_secs_f64()) / 3.0, "ms");
    l.commit.report(&mut r);
    for (p, (stats, k)) in l.each.iter().enumerate() {
        engine_counts(&mut r, &format!(".{}", NAMES[p]), stats, *k);
    }
    // The untraced latency ends before the clone is released, so
    // retire is not on its path.
    r.metric("traced_path_ms", per(l.commit.path(), l.commit.applies), "ms");
    r.metric("ops_per_s", r.ops as f64 / loop_s, "1/s");
    Ok(r)
}
