//! `serve_mixed` and `serve_read`: a `ServingDatabase` over the
//! `workload::query` enterprise plus `workload::durability` accounts,
//! driven by one closed-loop client.
//!
//! The untraced run goes through the public serving surface. The
//! traced run replays the same seeded operations through the layers
//! underneath, in the order `Session::apply_compiled` calls them, and
//! times each call.

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ruvo_core::{
    encode_checkpoint_plan, run_query, CheckpointMode, CheckpointOutcome, CheckpointPolicy,
    Database, DurabilitySink, EngineConfig, FsyncPolicy, Outcome, Prepared, ServingDatabase,
    WalProgram, WalStore,
};
use ruvo_lang::{Goal, Program};
use ruvo_obase::{ObjectBase, Snapshot};
use ruvo_term::{int, Const};
use ruvo_workload::{
    durability_workload, query_workload, DurabilityConfig, DurabilityWorkload, QueryConfig,
    CHIEF_PROGRAM,
};

use crate::layers::{compile, per, per_n, traced_apply, CommitLayers};
use crate::measure::{
    digest, facts_with_prefix, ms, peak_rss_mb, quantile, timed, Report, Rng, Samples, Schedule,
};
use crate::Ctx;

/// Lookups per read operation.
const LOOKUPS_PER_READ: usize = 16;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Durable, commit : query : read = 1 : 1 : 4.
    Mixed,
    /// Volatile, query : read = 1 : 4, no commits.
    Read,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Op {
    Commit,
    Query,
    Read,
}

impl Kind {
    fn mix(self) -> &'static [Op] {
        match self {
            Kind::Mixed => &[Op::Commit, Op::Query, Op::Read, Op::Read, Op::Read, Op::Read],
            Kind::Read => &[Op::Query, Op::Read, Op::Read, Op::Read, Op::Read],
        }
    }

    fn durable(self) -> bool {
        self == Kind::Mixed
    }
}

/// Everything the client needs besides the base, generated from the
/// seed.
struct Inputs {
    /// Goals with their reference answers (`RefQuery::expected`).
    goals: Vec<(Goal, Vec<Vec<Const>>)>,
    /// `(employee, salary)` pairs: read keys with known answers
    /// (commits touch only accounts, never employees).
    salaries: Vec<(Const, Const)>,
    accounts: DurabilityWorkload,
}

/// Commits of one `serve_mixed` run, tail excluded: a fixed count, so
/// that the memory the session retains (about 60 MB per commit at full
/// size) does not depend on how fast commits are.
fn commit_count(ctx: &Ctx) -> usize {
    (ctx.seconds * ctx.sizes.commits_per_second).ceil().max(1.0) as usize
}

/// Generator seed of the served enterprise and its goal pool. The
/// instance is fixed for the same reason as the `rule_batch` one: the
/// boss forest's shape sets the cost of every `chief` query, and it
/// varies between generator seeds. `--seed` drives the op order, which
/// goal each query asks, the read keys and the account commits.
const BASE_SEED: u64 = 0x5E_12E5;

/// The served base and the client's inputs.
fn inputs(ctx: &Ctx) -> Result<(ObjectBase, Inputs), String> {
    let s = &ctx.sizes;
    let mut q = query_workload(QueryConfig {
        employees: s.serve_employees,
        queries: s.goals,
        seed: BASE_SEED,
    });
    let accounts = durability_workload(DurabilityConfig {
        accounts: s.accounts,
        commits: commit_count(ctx) + s.tail_commits,
        seed: ctx.seed ^ 0xACC0_u64,
    });
    let mut base = std::mem::take(&mut q.enterprise.ob);
    let acct = ObjectBase::parse(&accounts.base_src).map_err(|e| e.to_string())?;
    for f in acct.iter() {
        base.insert(f.vid, f.method, f.args, f.result);
    }
    let goals = q
        .queries
        .iter()
        .map(|r| Ok((Goal::parse(&r.goal).map_err(|e| e.to_string())?, r.expected.clone())))
        .collect::<Result<_, String>>()?;
    let salaries = q
        .enterprise
        .employees
        .iter()
        .zip(&q.enterprise.salaries)
        .map(|(&e, &s)| (e, int(s)))
        .collect();
    Ok((base, Inputs { goals, salaries, accounts }))
}

/// The seeded choices of one client: op order, goals and read keys.
struct Client {
    schedule: Schedule<Op>,
    rng: Rng,
}

impl Client {
    fn new(kind: Kind, seed: u64) -> Client {
        Client { schedule: Schedule::new(Rng::new(seed, 1), kind.mix()), rng: Rng::new(seed, 2) }
    }

    fn keys(&mut self, n: usize) -> [usize; LOOKUPS_PER_READ] {
        std::array::from_fn(|_| self.rng.below(n))
    }
}

fn check_rows(goal: &Goal, got: &[Vec<Const>], expected: &[Vec<Const>]) -> Result<(), String> {
    if got == expected {
        Ok(())
    } else {
        Err(format!("query {goal}: {} rows, expected {}", got.len(), expected.len()))
    }
}

fn check_read(inputs: &Inputs, keys: &[usize], got: &[Vec<Const>]) -> Result<(), String> {
    for (&k, g) in keys.iter().zip(got) {
        let (e, sal) = inputs.salaries[k];
        if g.as_slice() != [sal] {
            return Err(format!("read {e}.sal: got {g:?}, expected {sal}"));
        }
    }
    Ok(())
}

fn check_accounts(inputs: &Inputs, head: &ObjectBase, commits: usize) -> Result<(), String> {
    let expected = facts_with_prefix(&inputs.accounts.state_after(commits), "acct");
    if facts_with_prefix(head, "acct") == expected {
        Ok(())
    } else {
        Err(format!("account slice differs from state_after({commits})"))
    }
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

fn open_serving(kind: Kind, base: ObjectBase, dir: &Path) -> Result<ServingDatabase, String> {
    if !kind.durable() {
        return Ok(ServingDatabase::new(Database::builder().open(base)));
    }
    let db = Database::builder()
        .data_dir(dir)
        .fsync(FsyncPolicy::Always)
        .checkpoint_policy(CheckpointPolicy::default())
        .seed(base)
        .open_dir()
        .map_err(err)?;
    Ok(db.into_serving())
}

fn reopen(dir: &Path) -> Result<Database, String> {
    Database::builder().data_dir(dir).fsync(FsyncPolicy::Always).open_dir().map_err(err)
}

fn describe(kind: Kind, ctx: &Ctx, r: &mut Report, facts: usize) {
    let s = &ctx.sizes;
    r.info("base_facts", facts);
    r.info("base_seed", format!("{BASE_SEED:#x} (fixed)"));
    r.info("employees", s.serve_employees);
    r.info("accounts", s.accounts);
    r.info("distinct_goals", s.goals);
    r.info("lookups_per_read", LOOKUPS_PER_READ);
    r.info("mix", if kind.durable() { "commit:query:read = 1:1:4" } else { "query:read = 1:4" });
    if kind.durable() {
        r.info("commits", commit_count(ctx));
        r.info("fsync_policy", "Always");
        r.info("checkpoint_policy", format!("default; background every {} commits", s.ckpt_every));
        r.info("tail_commits", s.tail_commits);
        r.info("reopens", s.reopens);
    } else {
        r.info("fsync_policy", "none (volatile)");
    }
}

/// The untraced run: setup (repeated, median reported), warm-up, the
/// timed closed loop, then the end-of-run checks and (durable) reopen.
/// `serve_mixed` runs a fixed number of mix blocks, one commit each;
/// `serve_read` runs whole blocks until the deadline.
/// What one set-up opens.
pub struct Opened {
    inputs: Inputs,
    facts: usize,
    serving: ServingDatabase,
    chief: Prepared,
    dir: std::path::PathBuf,
}

/// `ctx.sizes.setups` timed set-ups: generate the inputs, open the
/// database (durable: create the directory and checkpoint the seed)
/// and prepare the query program. Returns their times and the last
/// one's state.
pub fn set_up(kind: Kind, ctx: &Ctx) -> Result<(Vec<f64>, Opened), String> {
    let mut setups = Vec::new();
    let mut opened = None;
    for i in 0..ctx.sizes.setups {
        // Tear the previous copy down first, outside the timer.
        drop(opened.take());
        let dir = ctx.data_dir.join(format!("setup{i}"));
        let t = Instant::now();
        let (base, inputs) = inputs(ctx)?;
        let facts = base.len();
        let serving = open_serving(kind, base, &dir)?;
        let chief = serving.prepare(CHIEF_PROGRAM).map_err(err)?;
        setups.push(t.elapsed().as_secs_f64());
        opened = Some(Opened { inputs, facts, serving, chief, dir });
    }
    Ok((setups, opened.expect("at least one setup")))
}

pub fn untraced(kind: Kind, ctx: &Ctx) -> Result<Report, String> {
    let mut r = Report::default();
    let s = &ctx.sizes;

    let (setups, Opened { inputs, facts, serving, chief, dir }) = set_up(kind, ctx)?;
    r.setups = setups;
    describe(kind, ctx, &mut r, facts);
    let head0 = serving.current();
    let mut client = Client::new(kind, ctx.seed);
    let n_emp = inputs.salaries.len();

    // Warm-up: one query and one read, outside every timer.
    let (goal, expected) = &inputs.goals[0];
    r.op(serving
        .query(&chief, goal.clone())
        .map_err(err)
        .and_then(|a| check_rows(goal, &a.rows, expected)));
    let snap = serving.snapshot();
    let keys = client.keys(n_emp);
    let got: Vec<_> = keys.iter().map(|&k| snap.lookup1(inputs.salaries[k].0, "sal")).collect();
    r.op(check_read(&inputs, &keys, &got));
    drop(snap);

    let (mut commit, mut query, mut read) =
        (Samples::default(), Samples::default(), Samples::default());
    let mut commits = 0usize;
    let fixed_ops = kind.durable().then(|| (commit_count(ctx) * kind.mix().len()) as u64);
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(ctx.seconds);
    let block = kind.mix().len() as u64;
    // Whole mix blocks only (see `Schedule`): the op proportions of the
    // timed loop are then exact.
    while fixed_ops.map_or(Instant::now() < deadline || r.ops % block != 0, |n| r.ops < n) {
        match client.schedule.next().expect("schedules are endless") {
            Op::Commit => {
                let src = &inputs.accounts.programs[commits];
                let t = Instant::now();
                let applied = serving.prepare(src).and_then(|p| serving.apply(&p));
                commit.push(t.elapsed());
                r.op(applied.map(|_| ()).map_err(err));
                commits += 1;
                if commits.is_multiple_of(s.ckpt_every) {
                    r.op(serving.checkpoint_background().map(|_| ()).map_err(err));
                }
            }
            Op::Query => {
                let (goal, expected) = &inputs.goals[client.rng.below(inputs.goals.len())];
                let t = Instant::now();
                let answers = serving.query(&chief, goal.clone());
                query.push(t.elapsed());
                r.op(answers.map_err(err).and_then(|a| check_rows(goal, &a.rows, expected)));
            }
            Op::Read => {
                let keys = client.keys(n_emp);
                let t = Instant::now();
                let snap = serving.snapshot();
                let got: [Vec<Const>; LOOKUPS_PER_READ] =
                    std::array::from_fn(|i| snap.lookup1(inputs.salaries[keys[i]].0, "sal"));
                read.push(t.elapsed());
                r.op(check_read(&inputs, &keys, &got));
            }
        }
        r.ops += 1;
    }
    let loop_s = start.elapsed().as_secs_f64();

    let mut reopen_ms = Vec::new();
    if kind.durable() {
        r.op(serving.checkpoint_flush().map(|_| ()).map_err(err));
        r.op(serving.checkpoint().map(|_| ()).map_err(err));
        // A fixed tail after a synchronous checkpoint: every reopen
        // replays exactly these records.
        for src in &inputs.accounts.programs[commits..commits + s.tail_commits] {
            r.op(serving.prepare(src).and_then(|p| serving.apply(&p)).map(|_| ()).map_err(err));
        }
        let head = serving.current();
        r.op(check_accounts(&inputs, &head, commits + s.tail_commits));
        r.digest = digest(&head);
        drop(serving);
        for _ in 0..s.reopens {
            let t = Instant::now();
            let db = reopen(&dir);
            reopen_ms.push(ms(t.elapsed().as_secs_f64()));
            r.op(db.and_then(|db| {
                if *db.current() == *head {
                    Ok(())
                } else {
                    Err("reopened state differs from the served head".into())
                }
            }));
        }
    } else {
        let head = serving.current();
        r.op(if serving.commits() == 0 && Arc::ptr_eq(&head, &head0) {
            Ok(())
        } else {
            Err("read-only head changed".into())
        });
        r.digest = digest(&head);
    }

    r.info("commits_timed", commit.len());
    r.info("queries_timed", query.len());
    r.info("reads_timed", read.len());
    if kind.durable() {
        r.metric("commit_p50_ms", ms(commit.quantile(0.5)), "ms");
        r.metric("commit_p90_ms", ms(commit.quantile(0.9)), "ms");
    }
    r.metric("query_p50_ms", ms(query.quantile(0.5)), "ms");
    r.metric("query_p90_ms", ms(query.quantile(0.9)), "ms");
    r.metric("read_p50_us", read.quantile(0.5) * 1e6, "us");
    r.metric("read_p90_us", read.quantile(0.9) * 1e6, "us");
    r.metric("ops_per_s", r.ops as f64 / loop_s, "1/s");
    if kind.durable() {
        r.metric("reopen_ms", quantile(&reopen_ms, 0.5), "ms");
    }
    r.metric("peak_rss_mb", peak_rss_mb(), "MB");
    // The operation whose traced spans `session.unattributed_ms`
    // subtracts: a commit on `serve_mixed`, a query on `serve_read`.
    let path = if kind.durable() { &commit } else { &query };
    r.metric("path_mean_ms", ms(path.mean()), "ms");
    Ok(r)
}

/// Per-layer time and work of the traced run.
#[derive(Default)]
struct Layers {
    prepare: Duration,
    commit: CommitLayers,
    wal_append: Duration,
    wal_bytes: u64,
    ckpts: u64,
    ckpt_plan: Duration,
    ckpt_encode: Duration,
    ckpt_install: Duration,
    ckpt_bytes: u64,
    reopens: u64,
    reopen_decode: Duration,
    reopen_replay: Duration,
    reopen_records: u64,
    queries: u64,
    query_plan: Duration,
    query_run: Duration,
    rows: u64,
    snapshots: u64,
    snapshot: Duration,
    lookups: u64,
    lookup: Duration,
}

/// The layers a served commit passes through, driven directly.
struct Traced {
    config: EngineConfig,
    head: Arc<ObjectBase>,
    store: Option<WalStore>,
    /// Every commit's outcome, kept as the served session's Txn log
    /// keeps it, so that memory and commit cost match the served run.
    log: Vec<Outcome>,
    l: Layers,
}

impl Traced {
    /// One commit, in `Session::apply_compiled` order: prepare, the
    /// commit-path layers, WAL append, then install ob′, log the
    /// outcome and retire the superseded head.
    fn commit(&mut self, src: &str) -> Result<(), String> {
        let l = &mut self.l;
        let compiled = timed(&mut l.prepare, || {
            compile(Program::parse(src).map_err(err)?, self.config.cycles)
        })?;
        let head = &self.head;
        let (new_ob, outcome) = traced_apply(&mut l.commit, &self.config, head, head, &compiled)?;
        if let Some(store) = &mut self.store {
            let before = store.wal_bytes();
            let entry =
                WalProgram { cycles: compiled.cycle_policy(), source: compiled.source_text() };
            timed(&mut l.wal_append, || store.append_batch(&[entry], &new_ob)).map_err(err)?;
            l.wal_bytes += store.wal_bytes().saturating_sub(before);
        }
        let old = std::mem::replace(&mut self.head, Arc::new(new_ob));
        self.log.push(outcome);
        timed(&mut l.commit.retire, || drop(old));
        Ok(())
    }

    /// A synchronous checkpoint in its three phases.
    fn checkpoint(&mut self) -> Result<(), String> {
        let (l, head) = (&mut self.l, &self.head);
        let Some(store) = &mut self.store else { return Ok(()) };
        let Some(plan) =
            timed(&mut l.ckpt_plan, || store.plan_checkpoint(head, CheckpointMode::Auto))
        else {
            return Ok(());
        };
        let encoded = timed(&mut l.ckpt_encode, || encode_checkpoint_plan(&plan, head));
        let outcome =
            timed(&mut l.ckpt_install, || store.install_checkpoint(encoded)).map_err(err)?;
        l.ckpts += 1;
        l.ckpt_bytes += match outcome {
            CheckpointOutcome::Full { bytes } | CheckpointOutcome::Delta { bytes, .. } => bytes,
            CheckpointOutcome::Skipped => 0,
        };
        Ok(())
    }

    fn query(&mut self, chief: &Prepared, goal: &Goal) -> Result<Vec<Vec<Const>>, String> {
        let l = &mut self.l;
        let plan = timed(&mut l.query_plan, || chief.query_plan(goal.clone()));
        let head = &self.head;
        let answers = timed(&mut l.query_run, || run_query(&plan, &self.config, (**head).clone()))
            .map_err(err)?;
        l.queries += 1;
        l.rows += answers.rows.len() as u64;
        Ok(answers.rows)
    }

    fn read(&mut self, inputs: &Inputs, keys: &[usize]) -> Vec<Vec<Const>> {
        let l = &mut self.l;
        let head = &self.head;
        let snap = timed(&mut l.snapshot, || Snapshot::new(Arc::clone(head)));
        l.snapshots += 1;
        l.lookups += keys.len() as u64;
        keys.iter()
            .map(|&k| timed(&mut l.lookup, || snap.lookup1(inputs.salaries[k].0, "sal")))
            .collect()
    }

    /// Reopen the closed data directory the way `open_dir` does:
    /// decode the checkpoint chain, replay the WAL tail.
    fn reopen(&mut self, dir: &Path, workers: usize) -> Result<(), String> {
        let l = &mut self.l;
        let opened = timed(&mut l.reopen_decode, || {
            WalStore::open_with_workers(
                dir,
                FsyncPolicy::Always,
                CheckpointPolicy::default(),
                workers,
            )
        })
        .map_err(err)?;
        l.reopen_records += opened.records.iter().map(|r| r.programs.len() as u64).sum::<u64>();
        let base = opened.checkpoint.map(|c| c.base).unwrap_or_default();
        let mut db = Database::builder().config(self.config.clone()).open(base);
        timed(&mut l.reopen_replay, || db.replay_wal_records(&opened.records)).map_err(err)?;
        l.reopens += 1;
        if *db.current() == *self.head {
            Ok(())
        } else {
            Err("reopened state differs from the traced head".into())
        }
    }
}

/// The traced run: the untraced run's first `ops` operations, same
/// seed, through the layers directly; ends in the same state.
pub fn traced(kind: Kind, ctx: &Ctx, ops: u64) -> Result<Report, String> {
    let mut r = Report::default();
    let s = &ctx.sizes;
    let (base, inputs) = inputs(ctx)?;
    describe(kind, ctx, &mut r, base.len());
    let config = EngineConfig::default();
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let dir = ctx.data_dir.join("traced");
    let store = if kind.durable() {
        let opened = WalStore::open_with_workers(
            &dir,
            FsyncPolicy::Always,
            CheckpointPolicy::default(),
            workers,
        )
        .map_err(err)?;
        let mut store = opened.store;
        store.checkpoint(&base).map_err(err)?;
        Some(store)
    } else {
        None
    };
    let chief = Prepared::compile(Program::parse(CHIEF_PROGRAM).map_err(err)?, config.cycles)
        .map_err(err)?;
    let mut t =
        Traced { config, head: Arc::new(base), store, log: Vec::new(), l: Layers::default() };
    let mut client = Client::new(kind, ctx.seed);
    let n_emp = inputs.salaries.len();

    // The same warm-up as the untraced run, so the seeded streams line
    // up; its spans are discarded.
    let (goal, expected) = &inputs.goals[0];
    r.op(t.query(&chief, goal).and_then(|rows| check_rows(goal, &rows, expected)));
    let keys = client.keys(n_emp);
    let got = t.read(&inputs, &keys);
    r.op(check_read(&inputs, &keys, &got));
    t.l = Layers::default();

    let mut commits = 0usize;
    let start = Instant::now();
    for _ in 0..ops {
        match client.schedule.next().expect("schedules are endless") {
            Op::Commit => {
                let res = t.commit(&inputs.accounts.programs[commits]);
                r.op(res);
                commits += 1;
                if commits.is_multiple_of(s.ckpt_every) {
                    let res = t.checkpoint();
                    r.op(res);
                }
            }
            Op::Query => {
                let (goal, expected) = &inputs.goals[client.rng.below(inputs.goals.len())];
                let res = t.query(&chief, goal).and_then(|rows| check_rows(goal, &rows, expected));
                r.op(res);
            }
            Op::Read => {
                let keys = client.keys(n_emp);
                let got = t.read(&inputs, &keys);
                r.op(check_read(&inputs, &keys, &got));
            }
        }
        r.ops += 1;
    }
    let loop_s = start.elapsed().as_secs_f64();

    if kind.durable() {
        let res = t.checkpoint();
        r.op(res);
        for src in &inputs.accounts.programs[commits..commits + s.tail_commits] {
            let res = t.commit(src);
            r.op(res);
        }
        r.op(check_accounts(&inputs, &t.head, commits + s.tail_commits));
        drop(t.store.take());
        for _ in 0..s.reopens {
            let res = t.reopen(&dir, workers);
            r.op(res);
        }
    }
    r.digest = digest(&t.head);
    r.info("commits_traced", t.l.commit.applies);
    r.info("queries_traced", t.l.queries);
    r.info("reads_traced", t.l.snapshots);
    layer_metrics(&mut r, &t.l);
    // The spans inside one untraced primary operation, for
    // `session.unattributed_ms`.
    let l = &t.l;
    let path = if kind.durable() {
        let c = &l.commit;
        per(l.prepare + c.path() + l.wal_append + c.retire, c.applies)
    } else {
        per(l.query_plan + l.query_run, l.queries)
    };
    r.metric("traced_path_ms", path, "ms");
    r.metric("ops_per_s", r.ops as f64 / loop_s, "1/s");
    Ok(r)
}

/// The per-layer metrics of a serve workload. Layers the workload
/// leaves idle report zero.
fn layer_metrics(r: &mut Report, l: &Layers) {
    let c = l.commit.applies;
    r.metric("database.prepare_ms", per(l.prepare, c), "ms");
    l.commit.report(r);
    r.metric("store.wal_append_ms", per(l.wal_append, c), "ms");
    r.metric("store.wal_bytes_per_commit", per_n(l.wal_bytes, c), "bytes");
    r.metric("store.ckpt_plan_ms", per(l.ckpt_plan, l.ckpts), "ms");
    r.metric("store.ckpt_encode_ms", per(l.ckpt_encode, l.ckpts), "ms");
    r.metric("store.ckpt_install_ms", per(l.ckpt_install, l.ckpts), "ms");
    r.metric("store.ckpt_bytes", per_n(l.ckpt_bytes, l.ckpts), "bytes");
    r.metric("store.reopen_decode_ms", per(l.reopen_decode, l.reopens), "ms");
    r.metric("database.reopen_replay_ms", per(l.reopen_replay, l.reopens), "ms");
    r.metric("store.reopen_records", per_n(l.reopen_records, l.reopens), "count");
    r.metric("query.plan_ms", per(l.query_plan, l.queries), "ms");
    r.metric("query.run_ms", per(l.query_run, l.queries), "ms");
    r.metric("query.rows", per_n(l.rows, l.queries), "count");
    r.metric("serve.snapshot_ns", per(l.snapshot, l.snapshots) * 1e6, "ns");
    r.metric("obase.lookup_ns", per(l.lookup, l.lookups) * 1e6, "ns");
}
