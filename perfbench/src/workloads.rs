//! The two workloads and the divd client the ledger's divd probe uses.
//! Each workload is generated from the workload seed alone:
//! the seed picks the graph, the initial opinions and every campaign,
//! trial and job seed, and the program under test receives only those
//! generated inputs.
//!
//! A workload is measured in *rounds*, a fixed unit of user-visible
//! work repeated until the run's time is up:
//!
//! * `campaign-1k`: one batch-engine campaign to consensus;
//! * `trial-1m`: one fixed-budget fast-engine trial on a million vertices.

use std::net::SocketAddr;
use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use div_bench::trial::{batch_group, fast_trial};
use div_core::{parse_spans, BatchProcess, FastProcess, FastRng, FastScheduler, FaultPlan};
use div_graph::Graph;
use div_sim::http::http_request;
use div_sim::{
    run_campaign, run_campaign_batched, CampaignConfig, CampaignReport, SeedSequence, TrialCtx,
    TrialOutcome,
};
use divd::{Daemon, DaemonConfig, JobSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::tracer::Tracer;

const CAMPAIGN_GRAPH: &str = "regular:1000:8";
const TRIAL_GRAPH: &str = "regular:1000000:8";
const INIT: &str = "uniform:5";
pub const LANES: usize = 8;
pub const WORKERS: usize = 2;
pub const CAMPAIGN_TRIALS: usize = 512;
const TRIAL_BUDGET: u64 = 1 << 24;
/// Per-trial step budget of a campaign; far above the ~0.4 M steps a
/// `regular:1000:8` trial needs, so every trial must converge.
const CAMPAIGN_BUDGET: u64 = 1 << 32;
/// Failure probability of the eq. (5) Azuma check on `|S(T) − S(0)|`.
const AZUMA_DELTA: f64 = 1e-9;
const DIVD_CLIENTS: usize = 2;
/// Campaign-1k set-ups timed together as one set-up sample.
const SETUP_BATCH: u64 = 16;
const HTTP_TIMEOUT: Duration = Duration::from_secs(60);

/// Seed-derivation tags: one independent stream per generated input.
const TAG_GRAPH: u64 = 1;
const TAG_CAMPAIGN: u64 = 2;
const TAG_TRIAL: u64 = 3;
const TAG_JOBS: u64 = 4;

fn derive(seed: u64, tag: u64) -> u64 {
    SeedSequence::seed_for(seed, tag)
}

/// The seed of round `round` of the stream `tag`: each round runs fresh
/// campaigns, trials or jobs, so a run's median spans many inputs.
fn round_seed(seed: u64, tag: u64, round: u64) -> u64 {
    derive(derive(seed, tag), round)
}

/// A graph and its initial opinions, built exactly as `divlab` and
/// `divd` build them from a spec pair and a seed.
pub struct Inputs {
    pub graph: Graph,
    pub opinions: Vec<i64>,
}

impl Inputs {
    /// The inputs and the seconds the graph build alone took.
    pub fn build(graph: &str, seed: u64) -> Result<(Inputs, f64), String> {
        let mut rng = StdRng::seed_from_u64(seed);
        let t0 = Instant::now();
        let graph = div_bench::spec::parse_graph(graph, &mut rng)?;
        let build_s = t0.elapsed().as_secs_f64();
        let opinions = div_bench::spec::parse_opinions(INIT, graph.num_vertices(), &mut rng)?;
        Ok((Inputs { graph, opinions }, build_s))
    }

    /// Campaign-1k inputs of round `round`: every round draws a fresh
    /// graph and initial vector, so a run's median spans many inputs.
    pub fn for_campaign(seed: u64, round: u64) -> Result<(Inputs, f64), String> {
        Inputs::build(CAMPAIGN_GRAPH, round_seed(seed, TAG_GRAPH, round))
    }

    pub fn for_trial(seed: u64) -> Result<(Inputs, f64), String> {
        Inputs::build(TRIAL_GRAPH, derive(seed, TAG_GRAPH))
    }
}

/// Operations attempted and failed; every output check is one operation.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: check failed: {}", what());
        }
    }
}

/// One round's user-visible work.
#[derive(Default)]
pub struct Round {
    pub wall_s: f64,
    pub jobs: u64,
    pub trials: u64,
    pub steps: u64,
    pub converged: u64,
    pub job_ms: Vec<f64>,
    /// Named exact counts of the round's outcome; two runs of the same
    /// round must agree on every one.
    pub exact: Vec<(&'static str, i128)>,
}

/// What a run needs from a workload.
pub trait Workload {
    /// Set-ups per run, reported as their median: enough to steady a
    /// millisecond set-up, few enough for a multi-second one.
    fn setups(&self) -> usize;
    /// One complete set-up from nothing; returns its duration.  The last
    /// set-up's state serves the rounds.
    fn setup(&mut self) -> Result<f64, String>;
    /// One round, its output checks counted into `tally`.
    fn round(&mut self, tr: &Tracer, round_no: u64, tally: &mut Tally) -> Result<Round, String>;
    /// The traced run's extra checks: reports byte-identical to an
    /// independent path through the program.
    fn identity_checks(&mut self, tally: &mut Tally) -> Result<(), String>;
    /// The trial-1m inputs with their graph build time, for the ledger
    /// to reuse instead of building a second million-vertex graph.
    fn take_big_inputs(&mut self) -> Option<(Inputs, f64)> {
        None
    }
}

pub fn by_name(name: &str, seed: u64) -> Option<Box<dyn Workload>> {
    match name {
        "campaign-1k" => Some(Box::new(Campaign1k::new(seed))),
        "trial-1m" => Some(Box::new(Trial1m::new(seed))),
        _ => None,
    }
}

// ---------------------------------------------------------------------
// campaign-1k
// ---------------------------------------------------------------------

pub struct Campaign1k {
    seed: u64,
    /// Set-ups done so far; set-up `k` builds round `k`'s inputs, so the
    /// median spans many graphs as the rounds do.
    setups_done: u64,
    /// The last round's number, inputs and report rendering.
    last: Option<(u64, Inputs, String)>,
}

impl Campaign1k {
    pub fn new(seed: u64) -> Campaign1k {
        Campaign1k {
            seed,
            setups_done: 0,
            last: None,
        }
    }

    pub fn config(seed: u64, round: u64, trials: usize, threads: usize) -> CampaignConfig {
        let mut cfg = CampaignConfig::new(trials, round_seed(seed, TAG_CAMPAIGN, round));
        cfg.threads = threads;
        cfg.step_budget = CAMPAIGN_BUDGET;
        cfg
    }
}

/// Σ lane steps and Σ K × slowest lane over the lane groups the batched
/// runner forms (consecutive chunks of `LANES` trial indices).
pub fn lane_occupancy(report: &CampaignReport) -> (u64, u64) {
    let steps: Vec<u64> = report.outcomes.values().map(TrialOutcome::steps).collect();
    steps.chunks(LANES).fold((0, 0), |(used, slots), g| {
        (
            used + g.iter().sum::<u64>(),
            slots + LANES as u64 * g.iter().copied().max().unwrap_or(0),
        )
    })
}

/// Runs a campaign-1k campaign on the batch engine, traced; returns the
/// report, its rendering and the summed busy time of the lane-group
/// calls in seconds.
pub fn batched_campaign(
    inp: &Inputs,
    cfg: &CampaignConfig,
    tr: &Tracer,
    parent: u64,
    trace: u64,
) -> Result<(CampaignReport, String, f64), String> {
    let kind = FastScheduler::Vertex;
    let busy_ns = AtomicU64::new(0);
    let report = tr.span(
        "run_campaign_batched",
        "div-sim::campaign",
        parent,
        trace,
        |c| {
            run_campaign_batched(
                cfg,
                LANES,
                |ctxs| {
                    let t0 = Instant::now();
                    let out = tr.span("batch_group", "div-core::batch", c, trace, |_| {
                        batch_group(
                            &inp.graph,
                            &inp.opinions,
                            kind,
                            &FaultPlan::none(),
                            None,
                            ctxs,
                        )
                    });
                    busy_ns.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
                    out
                },
                |ctx| {
                    fast_trial(
                        &inp.graph,
                        &inp.opinions,
                        kind,
                        &FaultPlan::none(),
                        None,
                        ctx,
                    )
                },
            )
        },
    );
    let report = report.map_err(|e| e.to_string())?;
    let text = tr.span(
        "CampaignReport::render",
        "div-sim::campaign",
        parent,
        trace,
        |_| report.render(),
    );
    Ok((report, text, busy_ns.into_inner() as f64 / 1e9))
}

impl Workload for Campaign1k {
    fn setups(&self) -> usize {
        50
    }

    /// The set-up a round pays before its first step: the round's graph
    /// build plus the `BatchProcess::new` of its first 8-lane group, with
    /// the trial seeds `run_campaign_batched` gives that group.  One
    /// sample is the mean of `SETUP_BATCH` such set-ups, for
    /// `SETUP_BATCH` consecutive rounds.
    fn setup(&mut self) -> Result<f64, String> {
        let t0 = Instant::now();
        for _ in 0..SETUP_BATCH {
            let round = self.setups_done;
            let (inp, _) = Inputs::for_campaign(self.seed, round)?;
            let master = Campaign1k::config(self.seed, round, CAMPAIGN_TRIALS, WORKERS).master_seed;
            let seeds: Vec<u64> = (0..LANES as u64)
                .map(|i| SeedSequence::seed_for(master, i))
                .collect();
            let batch = BatchProcess::new(
                &inp.graph,
                inp.opinions.clone(),
                FastScheduler::Vertex,
                &seeds,
            )
            .map_err(|e| e.to_string())?;
            drop(batch);
            self.setups_done += 1;
        }
        Ok(t0.elapsed().as_secs_f64() / SETUP_BATCH as f64)
    }

    fn round(&mut self, tr: &Tracer, round_no: u64, tally: &mut Tally) -> Result<Round, String> {
        let cfg = Campaign1k::config(self.seed, round_no, CAMPAIGN_TRIALS, WORKERS);
        let trace = div_core::span_id(1, cfg.master_seed, 0);
        let t0 = Instant::now();
        let (inp, report, text) = tr.span("campaign-1k round", "perfbench", 0, trace, |root| {
            let (inp, _) = tr.span("build inputs", "div-graph", root, trace, |_| {
                Inputs::for_campaign(self.seed, round_no)
            })?;
            let (report, text, _) = batched_campaign(&inp, &cfg, tr, root, trace)?;
            Ok::<_, String>((inp, report, text))
        })?;
        let wall_s = t0.elapsed().as_secs_f64();
        let (converged, ..) = report.counts();
        let steps = report.outcomes.values().map(TrialOutcome::steps).sum();
        let (lane_steps, lane_slots) = lane_occupancy(&report);
        tally.check(
            report.completed() == CAMPAIGN_TRIALS && converged == CAMPAIGN_TRIALS as u64,
            || format!("campaign-1k: {converged}/{CAMPAIGN_TRIALS} trials converged"),
        );
        self.last = Some((round_no, inp, text));
        Ok(Round {
            wall_s,
            jobs: 1,
            trials: CAMPAIGN_TRIALS as u64,
            steps,
            converged,
            job_ms: vec![wall_s * 1e3],
            exact: vec![
                ("steps", steps.into()),
                ("converged", converged.into()),
                ("lane_steps", lane_steps.into()),
                ("lane_slots", lane_slots.into()),
            ],
        })
    }

    fn identity_checks(&mut self, tally: &mut Tally) -> Result<(), String> {
        let (round_no, inp, batched) = self.last.as_ref().expect("a round ran");
        let cfg = Campaign1k::config(self.seed, *round_no, CAMPAIGN_TRIALS, WORKERS);
        let fast = run_campaign(&cfg, |ctx| {
            fast_trial(
                &inp.graph,
                &inp.opinions,
                FastScheduler::Vertex,
                &FaultPlan::none(),
                None,
                ctx,
            )
        })
        .map_err(|e| e.to_string())?
        .render();
        tally.check(fast == *batched, || {
            "campaign-1k: batch report differs from the fast-engine report".to_string()
        });
        Ok(())
    }
}

// ---------------------------------------------------------------------
// trial-1m
// ---------------------------------------------------------------------

pub struct Trial1m {
    seed: u64,
    inputs: Option<(Inputs, f64)>,
}

impl Trial1m {
    pub fn new(seed: u64) -> Trial1m {
        Trial1m { seed, inputs: None }
    }
}

/// `h` with `P[|S(T) − S(0)| ≥ h] ≤ δ` under eq. (5): `2·exp(−h²/2T) = δ`.
fn azuma_radius(steps: u64, delta: f64) -> f64 {
    (2.0 * steps as f64 * (2.0 / delta).ln()).sqrt()
}

impl Workload for Trial1m {
    fn setups(&self) -> usize {
        3
    }

    fn setup(&mut self) -> Result<f64, String> {
        // Free the previous set-up's graph first so peak memory holds one.
        self.inputs = None;
        let t0 = Instant::now();
        let (inp, build_s) = Inputs::for_trial(self.seed)?;
        let p = FastProcess::new(&inp.graph, inp.opinions.clone(), FastScheduler::Edge)
            .map_err(|e| e.to_string())?;
        drop(p);
        let secs = t0.elapsed().as_secs_f64();
        self.inputs = Some((inp, build_s));
        Ok(secs)
    }

    fn round(&mut self, tr: &Tracer, round_no: u64, tally: &mut Tally) -> Result<Round, String> {
        let (inp, _) = self.inputs.as_ref().expect("set up before rounds");
        let seed = round_seed(self.seed, TAG_TRIAL, round_no);
        let trace = div_core::span_id(2, seed, 0);
        let t0 = Instant::now();
        let (steps, lo, hi, drift) = tr.span("trial-1m round", "perfbench", 0, trace, |root| {
            let mut p = tr.span("FastProcess::new", "div-core::engine", root, trace, |_| {
                FastProcess::new(&inp.graph, inp.opinions.clone(), FastScheduler::Edge)
                    .expect("validated in set-up")
            });
            let s0 = p.sum();
            let mut rng = FastRng::seed_from_u64(seed);
            tr.span(
                "FastProcess::run_to_consensus",
                "div-core::engine",
                root,
                trace,
                |_| p.run_to_consensus(TRIAL_BUDGET, &mut rng),
            );
            (p.steps(), p.min_opinion(), p.max_opinion(), p.sum() - s0)
        });
        let wall_s = t0.elapsed().as_secs_f64();
        let (lo0, hi0) = (
            *inp.opinions.iter().min().expect("non-empty"),
            *inp.opinions.iter().max().expect("non-empty"),
        );
        tally.check(steps == TRIAL_BUDGET, || {
            format!("trial-1m: {steps} steps, budget {TRIAL_BUDGET}")
        });
        tally.check(lo0 <= lo && hi <= hi0, || {
            format!("trial-1m: range [{lo}, {hi}] left [{lo0}, {hi0}]")
        });
        let h = azuma_radius(steps, AZUMA_DELTA);
        tally.check((drift.unsigned_abs() as f64) < h, || {
            format!("trial-1m: S(T) - S(0) = {drift} exceeds the eq. (5) radius {h:.0}")
        });
        Ok(Round {
            wall_s,
            jobs: 1,
            trials: 1,
            steps,
            converged: u64::from(lo == hi),
            job_ms: vec![wall_s * 1e3],
            exact: vec![
                ("steps", steps.into()),
                ("min", lo.into()),
                ("max", hi.into()),
                ("S(T) - S(0)", drift.into()),
            ],
        })
    }

    fn identity_checks(&mut self, _tally: &mut Tally) -> Result<(), String> {
        // A fixed-budget trial has no report; its checks run every round.
        Ok(())
    }

    fn take_big_inputs(&mut self) -> Option<(Inputs, f64)> {
        self.inputs.take()
    }
}

// ---------------------------------------------------------------------
// divd client
// ---------------------------------------------------------------------

/// Job `j` of round `round`: engines alternate fast/batch, schedulers
/// edge/vertex every two jobs, graphs `complete:64`/`regular:256:6` every
/// four, and trial counts cycle through 16–32.  The campaign seeds come
/// from the workload seed and the round.
pub fn job_spec(seed: u64, round: u64, j: usize) -> JobSpec {
    JobSpec {
        graph: ["complete:64", "regular:256:6"][(j / 4) % 2].to_string(),
        scheduler: ["edge", "vertex"][(j / 2) % 2].to_string(),
        engine: ["fast", "batch"][j % 2].to_string(),
        seed: derive(round_seed(seed, TAG_JOBS, round), j as u64),
        trials: 16 + (5 * j) % 17,
        threads: 1,
        ..JobSpec::default()
    }
}

/// The report a local `run_campaign` produces for `spec`, by the same
/// executors `divd` uses.
pub fn local_report(spec: &JobSpec) -> Result<String, String> {
    let (graph, opinions, faults) = spec.build()?;
    let mut cfg = CampaignConfig::new(spec.trials, spec.seed);
    cfg.step_budget = spec.budget;
    cfg.threads = spec.threads;
    let kind = if spec.scheduler == "edge" {
        FastScheduler::Edge
    } else {
        FastScheduler::Vertex
    };
    let trial = |ctx: &TrialCtx| fast_trial(&graph, &opinions, kind, &faults, None, ctx);
    let report = if spec.engine == "batch" {
        run_campaign_batched(
            &cfg,
            spec.lanes,
            |ctxs| div_bench::trial::batch_group(&graph, &opinions, kind, &faults, None, ctxs),
            trial,
        )
    } else {
        run_campaign(&cfg, trial)
    };
    Ok(report.map_err(|e| e.to_string())?.render())
}

/// One job's client-side record.
#[derive(Default)]
pub struct JobResult {
    pub spec_index: usize,
    pub latency_ms: f64,
    pub submit_ms: f64,
    pub report_ms: f64,
    pub refused: bool,
    pub ok: bool,
    pub steps: u64,
    pub converged: u64,
    pub report: String,
    /// Daemon-side lifecycle spans (`queued`, longest `attempt`,
    /// `report-write`) in milliseconds, when fetched.
    pub daemon_ms: Option<(f64, f64, f64)>,
}

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Submits `spec`, follows `/results` to the end, then fetches the
/// report; optionally reads the job's lifecycle span tree.
fn run_job(
    addr: SocketAddr,
    client: &str,
    spec: &JobSpec,
    spec_index: usize,
    fetch_spans: bool,
    tr: &Tracer,
    parent: u64,
) -> Result<JobResult, String> {
    let trace = div_core::span_id(3, spec.seed, 0);
    tr.span("divd job", "perfbench", parent, trace, |job| {
        let mut r = JobResult {
            spec_index,
            ..JobResult::default()
        };
        let get = |path: &str, name: &'static str| {
            tr.span(name, "div-sim::http", job, trace, |_| {
                http_request(addr, "GET", path, &[], b"", HTTP_TIMEOUT)
            })
            .map_err(|e| format!("GET {path}: {e}"))
        };
        let t0 = Instant::now();
        let body = spec.render();
        let sub = tr
            .span(
                "http_request POST /campaigns",
                "div-sim::http",
                job,
                trace,
                |_| {
                    http_request(
                        addr,
                        "POST",
                        "/campaigns",
                        &[("X-Client", client)],
                        body.as_bytes(),
                        HTTP_TIMEOUT,
                    )
                },
            )
            .map_err(|e| format!("POST /campaigns: {e}"))?;
        r.submit_ms = ms(t0);
        if sub.status != 201 {
            r.refused = true;
            r.latency_ms = ms(t0);
            return Ok(r);
        }
        let text = sub.text();
        let id = text
            .trim()
            .strip_prefix("id ")
            .and_then(|s| s.parse::<u64>().ok())
            .ok_or_else(|| format!("submit answered {text:?}"))?;
        let results = get(
            &format!("/campaigns/{id}/results"),
            "http_request GET /results",
        )?;
        let lines = results.text();
        for line in lines.lines() {
            if let Some((_, outcome)) = TrialOutcome::parse_line(line) {
                r.steps += outcome.steps();
                r.converged += u64::from(outcome.is_converged());
            }
        }
        let t_report = Instant::now();
        let report = get(
            &format!("/campaigns/{id}/report"),
            "http_request GET /report",
        )?;
        r.report_ms = ms(t_report);
        r.latency_ms = ms(t0);
        r.report = report.text();
        let head = format!(
            "campaign master={} trials={} completed={}\n",
            spec.seed, spec.trials, spec.trials
        );
        r.ok = results.status == 200
            && lines.trim_end().ends_with("end completed")
            && report.status == 200
            && r.report.starts_with(&head)
            && r.converged == spec.trials as u64;
        if fetch_spans {
            let spans = get(&format!("/campaigns/{id}/spans"), "http_request GET /spans")?;
            let events = parse_spans(&spans.text()).map_err(|e| e.to_string())?;
            let longest = |name: &str| {
                events
                    .iter()
                    .filter(|e| e.name == name)
                    .map(|e| e.dur_us as f64 / 1e3)
                    .fold(f64::NAN, f64::max)
            };
            r.daemon_ms = Some((
                longest("queued"),
                longest("attempt"),
                longest("report-write"),
            ));
        }
        Ok(r)
    })
}

/// Sends the `jobs` job specs of round `round` through `DIVD_CLIENTS`
/// closed-loop clients; returns every job's record in spec order.
pub fn closed_loop(
    addr: SocketAddr,
    seed: u64,
    round: u64,
    jobs: usize,
    fetch_spans: bool,
    tr: &Tracer,
    parent: u64,
) -> Result<Vec<JobResult>, String> {
    let next = AtomicUsize::new(0);
    let mut all: Vec<JobResult> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..DIVD_CLIENTS)
            .map(|c| {
                let next = &next;
                scope.spawn(move || -> Result<Vec<JobResult>, String> {
                    let client = format!("client{c}");
                    let mut mine = Vec::new();
                    loop {
                        let j = next.fetch_add(1, Ordering::Relaxed);
                        if j >= jobs {
                            return Ok(mine);
                        }
                        let spec = job_spec(seed, round, j);
                        mine.push(run_job(addr, &client, &spec, j, fetch_spans, tr, parent)?);
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect::<Result<Vec<Vec<JobResult>>, String>>()
    })?
    .into_iter()
    .flatten()
    .collect();
    all.sort_by_key(|r| r.spec_index);
    Ok(all)
}

/// Starts a daemon on a fresh data directory and waits for `/healthz`.
pub fn start_daemon(dir: &Path) -> Result<Daemon, String> {
    let _ = std::fs::remove_dir_all(dir);
    let daemon = Daemon::start(DaemonConfig::new(dir)).map_err(|e| format!("divd start: {e}"))?;
    let addr = daemon.local_addr();
    for _ in 0..1000 {
        if let Ok(r) = http_request(addr, "GET", "/healthz", &[], b"", HTTP_TIMEOUT) {
            if r.status == 200 {
                return Ok(daemon);
            }
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    Err("divd never answered /healthz".to_string())
}
