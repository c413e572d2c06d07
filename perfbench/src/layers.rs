//! Helpers shared by the traced runs: the spelled-out prepare step,
//! the commit-path layers of `Session::apply_compiled`, engine
//! counters and per-event means.

use std::time::Duration;

use ruvo_core::check::check;
use ruvo_core::{run_compiled, CompiledProgram, CyclePolicy, EngineConfig, EvalStats, Outcome};
use ruvo_lang::Program;
use ruvo_obase::ObjectBase;

use crate::measure::{ms_of, timed, Report};

/// `Prepared::compile`, spelled out to keep the compiled form it
/// wraps: compile, then the static analysis report.
pub fn compile(program: Program, cycles: CyclePolicy) -> Result<CompiledProgram, String> {
    let compiled = CompiledProgram::compile(program, cycles).map_err(|e| e.to_string())?;
    drop(check(&compiled));
    Ok(compiled)
}

/// Time and work of the commit-path layers, summed over applications.
#[derive(Default)]
pub struct CommitLayers {
    pub applies: u64,
    pub work_copy: Duration,
    pub run: Duration,
    pub extract: Duration,
    pub rebase: Duration,
    pub retire: Duration,
    pub unshared: u64,
    pub stats: EvalStats,
}

impl CommitLayers {
    /// The spans on the path of one application, excluding retire.
    pub fn path(&self) -> Duration {
        self.work_copy + self.run + self.extract + self.rebase
    }

    /// The commit-path per-layer metrics, as means per application.
    pub fn report(&self, r: &mut Report) {
        let n = self.applies;
        r.metric("session.work_copy_ms", per(self.work_copy, n), "ms");
        r.metric("engine.run_ms", per(self.run, n), "ms");
        engine_counts(r, "", &self.stats, n);
        r.metric("engine.extract_ms", per(self.extract, n), "ms");
        r.metric("obase.rebase_ms", per(self.rebase, n), "ms");
        r.metric("obase.unshared_shards", per_n(self.unshared, n), "count");
        r.metric("session.retire_ms", per(self.retire, n), "ms");
    }
}

/// One application through the layers `Session::apply_compiled`
/// calls, each timed: work copy of `work_src` with `exists` facts in
/// place, engine run, ob′ extraction, and the rebase of ob′'s shard
/// generations onto `committed`. Returns ob′ and the outcome; the
/// caller installs or retires them (and times that as `retire`).
pub fn traced_apply(
    l: &mut CommitLayers,
    config: &EngineConfig,
    committed: &ObjectBase,
    work_src: &ObjectBase,
    compiled: &CompiledProgram,
) -> Result<(ObjectBase, Outcome), String> {
    let work = timed(&mut l.work_copy, || {
        let mut work = work_src.clone();
        work.ensure_exists();
        work
    });
    let outcome =
        timed(&mut l.run, || run_compiled(compiled, config, work)).map_err(|e| e.to_string())?;
    let mut new_ob =
        timed(&mut l.extract, || outcome.try_new_object_base()).map_err(|e| e.to_string())?;
    timed(&mut l.rebase, || new_ob.rebase_generations(committed));
    l.unshared += new_ob.cow_stats(committed).unshared_shards() as u64;
    add_stats(&mut l.stats, outcome.stats());
    l.applies += 1;
    Ok((new_ob, outcome))
}

pub fn add_stats(acc: &mut EvalStats, s: &EvalStats) {
    acc.rounds += s.rounds;
    acc.fired_updates += s.fired_updates;
    acc.facts_copied += s.facts_copied;
    acc.versions_created += s.versions_created;
    acc.rule_evaluations += s.rule_evaluations;
    acc.rule_evaluations_skipped += s.rule_evaluations_skipped;
}

/// Mean milliseconds per event (0 when there were none).
pub fn per(d: Duration, n: u64) -> f64 {
    if n == 0 {
        0.0
    } else {
        ms_of(d) / n as f64
    }
}

pub fn per_n(total: u64, n: u64) -> f64 {
    if n == 0 {
        0.0
    } else {
        total as f64 / n as f64
    }
}

/// `Outcome::stats()` counters, averaged over `n` evaluations, under
/// `engine.<counter><suffix>`.
pub fn engine_counts(r: &mut Report, suffix: &str, s: &EvalStats, n: u64) {
    let skipped = per_n(
        s.rule_evaluations_skipped as u64,
        (s.rule_evaluations + s.rule_evaluations_skipped) as u64,
    );
    for (name, v) in [
        ("rounds", per_n(s.rounds as u64, n)),
        ("fired_updates", per_n(s.fired_updates as u64, n)),
        ("facts_copied", per_n(s.facts_copied as u64, n)),
        ("versions_created", per_n(s.versions_created as u64, n)),
        ("rule_evaluations", per_n(s.rule_evaluations as u64, n)),
        ("skipped_ratio", skipped),
    ] {
        let unit = if name == "skipped_ratio" { "ratio" } else { "count" };
        r.metric(&format!("engine.{name}{suffix}"), v, unit);
    }
}
