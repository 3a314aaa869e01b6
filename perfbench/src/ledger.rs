//! The per-layer ledger of the traced run: each layer driven from
//! outside through its public functions, on the campaign-1k inputs
//! (`.n1k`) and the trial-1m inputs (`.n1m`), so the cache cliff between
//! the two and the RNG / pick / step split are on record.  Each probe arm
//! is one span; its metric is a median over repetitions.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use div_core::{BatchProcess, FastProcess, FastRng, FastScheduler, KernelTier, ShardedProcess};
use div_oplog::{atomic_write, Oplog};
use div_sim::{CampaignReport, SeedSequence};
use rand::SeedableRng;

use crate::stats::{median, Metrics};
use crate::tracer::Tracer;
use crate::workloads::{
    batched_campaign, closed_loop, job_spec, lane_occupancy, local_report, start_daemon,
    Campaign1k, Inputs, JobResult, Tally, CAMPAIGN_TRIALS, LANES, WORKERS,
};

/// Shard domains and threads of the sharded-engine arm.
const SHARDS: usize = 8;
const SHARD_THREADS: usize = 2;
/// Jobs of one divd probe, and probes (each on a fresh daemon).
const DIVD_PROBE_JOBS: usize = 8;
const DIVD_PROBES: usize = 2;

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Median over `reps` of `f()`'s (nanoseconds, operations) per operation.
fn ns_per_op(reps: usize, mut f: impl FnMut() -> (f64, u64)) -> f64 {
    let per: Vec<f64> = (0..reps)
        .map(|_| {
            let (ns, ops) = f();
            ns / ops.max(1) as f64
        })
        .collect();
    median(&per)
}

fn timed_ns<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let t0 = Instant::now();
    let out = f();
    (t0.elapsed().as_nanos() as f64, out)
}

/// Runs every probe and appends its per-layer metrics to `m`.
pub fn run(
    seed: u64,
    big: Option<(Inputs, f64)>,
    tmp: &Path,
    tr: &Tracer,
    m: &mut Metrics,
    tally: &mut Tally,
) -> Result<(), String> {
    let (small, _) = Inputs::for_campaign(seed, 0)?;
    graph_and_compile(seed, &small, m, tr)?;
    let (big, big_build) = tr.span("parse_graph regular:1000000:8", "div-graph", 0, 0, |_| {
        big.map_or_else(|| Inputs::for_trial(seed), Ok)
    })?;
    m.put("graph.build_s.n1m", "s", big_build);
    let compile = tr.span(
        "FastProcess::new x3 (n1m)",
        "div-core::engine",
        0,
        0,
        |_| {
            median(
                &(0..3)
                    .map(|_| {
                        let t0 = Instant::now();
                        black_box(
                            FastProcess::new(&big.graph, big.opinions.clone(), FastScheduler::Edge)
                                .expect("validated inputs"),
                        );
                        secs(t0)
                    })
                    .collect::<Vec<_>>(),
            )
        },
    );
    m.put("engine.compile_s.n1m", "s", compile);
    // Edge stepping reads the flattened endpoint list (2m u32) and the
    // opinion column (n u32); the CSR is not touched.
    eprintln!(
        "perfbench: trial-1m stepping working set ~{:.0} MiB",
        (big.graph.total_degree() + big.graph.num_vertices()) as f64 * 4.0 / (1 << 20) as f64
    );

    rng_sampler_engine(seed, &small, &big, m, tr);
    shard(seed, &big, m, tr)?;
    drop(big);
    batch_and_kernels(seed, &small, m, tr);
    campaign(seed, &small, m, tr, tally)?;
    oplog(tmp, m, tr)?;
    divd(seed, tmp, m, tr, tally)?;
    Ok(())
}

fn graph_and_compile(
    seed: u64,
    small: &Inputs,
    m: &mut Metrics,
    tr: &Tracer,
) -> Result<(), String> {
    let build = tr.span("parse_graph regular:1000:8 x15", "div-graph", 0, 0, |_| {
        (0..15)
            .map(|k| Inputs::for_campaign(seed, k).map(|(_, build_s)| build_s))
            .collect::<Result<Vec<f64>, String>>()
    })?;
    m.put("graph.build_s.n1k", "s", median(&build));
    let compile = tr.span(
        "FastProcess::new x15 (n1k)",
        "div-core::engine",
        0,
        0,
        |_| {
            (0..15)
                .map(|_| {
                    let t0 = Instant::now();
                    black_box(
                        FastProcess::new(
                            &small.graph,
                            small.opinions.clone(),
                            FastScheduler::Vertex,
                        )
                        .expect("validated inputs"),
                    );
                    secs(t0)
                })
                .collect::<Vec<f64>>()
        },
    );
    m.put("engine.compile_s.n1k", "s", median(&compile));
    Ok(())
}

fn rng_sampler_engine(seed: u64, small: &Inputs, big: &Inputs, m: &mut Metrics, tr: &Tracer) {
    let mut rng = FastRng::seed_from_u64(seed);
    let words: u64 = 1 << 24;
    let rng_ns = tr.span("FastRng::next_word", "div-core::rng", 0, 0, |_| {
        ns_per_op(5, || {
            let (ns, acc) = timed_ns(|| {
                let mut acc = 0u64;
                for _ in 0..words {
                    acc ^= rng.next_word();
                }
                acc
            });
            black_box(acc);
            (ns, words)
        })
    });
    m.put("rng.ns_per_word", "ns", rng_ns);

    let picks: u64 = 1 << 22;
    for (tag, inp, kind) in [
        ("n1k", small, FastScheduler::Vertex),
        ("n1m", big, FastScheduler::Edge),
    ] {
        let p = FastProcess::new(&inp.graph, inp.opinions.clone(), kind).expect("validated");
        let pick = tr.span("FastProcess::sample_pair", "div-core::engine", 0, 0, |_| {
            ns_per_op(5, || {
                let (ns, acc) = timed_ns(|| {
                    let mut acc = 0usize;
                    for _ in 0..picks {
                        let (u, v) = p.sample_pair(&mut rng);
                        acc ^= u ^ v;
                    }
                    acc
                });
                black_box(acc);
                (ns, picks)
            })
        });
        m.put(&format!("sampler.ns_per_pick.{tag}"), "ns", pick);
    }

    // n1k: fresh processes on a fixed budget below the typical consensus
    // time; steps actually taken are counted.
    let small_budget: u64 = 1 << 17;
    let step_small = tr.span(
        "FastProcess::run_to_consensus (n1k)",
        "div-core::engine",
        0,
        0,
        |_| {
            ns_per_op(5, || {
                let mut ns = 0.0;
                let mut steps = 0;
                for i in 0..16 {
                    let mut p = FastProcess::new(
                        &small.graph,
                        small.opinions.clone(),
                        FastScheduler::Vertex,
                    )
                    .expect("validated");
                    let mut r = FastRng::seed_from_u64(SeedSequence::seed_for(seed, i));
                    ns += timed_ns(|| p.run_to_consensus(small_budget, &mut r)).0;
                    steps += p.steps();
                }
                (ns, steps)
            })
        },
    );
    m.put("engine.ns_per_step.n1k", "ns", step_small);

    let chunk: u64 = 1 << 22;
    let mut p =
        FastProcess::new(&big.graph, big.opinions.clone(), FastScheduler::Edge).expect("validated");
    let mut r = FastRng::seed_from_u64(seed);
    let step_big = tr.span(
        "FastProcess::run_to_consensus (n1m)",
        "div-core::engine",
        0,
        0,
        |_| {
            ns_per_op(5, || {
                let before = p.steps();
                let (ns, _) = timed_ns(|| p.run_to_consensus(chunk, &mut r));
                (ns, p.steps() - before)
            })
        },
    );
    m.put("engine.ns_per_step.n1m", "ns", step_big);
}

fn shard(seed: u64, big: &Inputs, m: &mut Metrics, tr: &Tracer) -> Result<(), String> {
    let seeds: Vec<u64> = (0..SHARDS as u64)
        .map(|p| SeedSequence::seed_for(seed, p))
        .collect();
    let mut p = tr
        .span("ShardedProcess::new", "div-core::shard", 0, 0, |_| {
            ShardedProcess::new(
                &big.graph,
                big.opinions.clone(),
                FastScheduler::Edge,
                &seeds,
            )
        })
        .map_err(|e| e.to_string())?;
    let chunk: u64 = 1 << 22;
    let ns = tr.span(
        "ShardedProcess::run_to_consensus",
        "div-core::shard",
        0,
        0,
        |_| {
            ns_per_op(5, || {
                let before = p.steps();
                let (ns, _) = timed_ns(|| p.run_to_consensus(chunk, SHARD_THREADS));
                (ns, p.steps() - before)
            })
        },
    );
    m.put("shard.ns_per_step", "ns", ns);
    Ok(())
}

fn batch_and_kernels(seed: u64, small: &Inputs, m: &mut Metrics, tr: &Tracer) {
    let tiers = KernelTier::supported();
    for t in KernelTier::ALL.iter().filter(|t| !tiers.contains(t)) {
        eprintln!(
            "perfbench: kernels.{}.ns_per_lane_step absent: tier not supported on this CPU",
            t.name()
        );
    }
    // Arm 0 is the engine's own tier choice; arms 1.. pin each supported
    // tier.  Arms interleave within every repetition.
    let arms: Vec<Option<KernelTier>> = std::iter::once(None)
        .chain(tiers.iter().copied().map(Some))
        .collect();
    let mut per_arm: Vec<Vec<f64>> = vec![Vec::new(); arms.len()];
    let groups = 4u64;
    for rep in 0..5u64 {
        for (a, arm) in arms.iter().enumerate() {
            let mut ns = 0.0;
            let mut lane_steps = 0;
            for g in 0..groups {
                let seeds: Vec<u64> = (0..LANES as u64)
                    .map(|l| SeedSequence::seed_for(seed, (rep * groups + g) * LANES as u64 + l))
                    .collect();
                let mut b = BatchProcess::new(
                    &small.graph,
                    small.opinions.clone(),
                    FastScheduler::Vertex,
                    &seeds,
                )
                .expect("uniform:5 fits the lane span");
                if let Some(t) = arm {
                    b.set_kernel_tier(*t);
                }
                let name = if arm.is_some() {
                    "BatchProcess::run_to_consensus (pinned tier)"
                } else {
                    "BatchProcess::run_to_consensus"
                };
                ns += tr
                    .span(name, "div-core::batch", 0, 0, |_| {
                        timed_ns(|| b.run_to_consensus(u64::MAX))
                    })
                    .0;
                lane_steps += (0..LANES).map(|l| b.steps(l)).sum::<u64>();
            }
            per_arm[a].push(ns / lane_steps as f64);
        }
    }
    for (arm, xs) in arms.iter().zip(&per_arm) {
        let name = match arm {
            None => "batch.ns_per_lane_step".to_string(),
            Some(t) => format!("kernels.{}.ns_per_lane_step", t.name()),
        };
        m.put(&name, "ns", median(xs));
    }
    eprintln!(
        "perfbench: active kernel tier {}",
        KernelTier::active().name()
    );
}

/// The round-0 campaign-1k campaign at `threads` workers: report, wall
/// time and summed lane-group busy time.
fn timed_campaign(
    seed: u64,
    small: &Inputs,
    threads: usize,
    tr: &Tracer,
) -> Result<(CampaignReport, f64, f64), String> {
    let cfg = Campaign1k::config(seed, 0, CAMPAIGN_TRIALS, threads);
    let t0 = Instant::now();
    let (report, _, busy_s) = batched_campaign(small, &cfg, tr, 0, 0)?;
    Ok((report, secs(t0), busy_s))
}

fn campaign(
    seed: u64,
    small: &Inputs,
    m: &mut Metrics,
    tr: &Tracer,
    tally: &mut Tally,
) -> Result<(), String> {
    let (report, wall2, busy2) = timed_campaign(seed, small, WORKERS, tr)?;
    let (report1, wall1, _) = timed_campaign(seed, small, 1, tr)?;
    tally.check(report == report1, || {
        "campaign: report differs between 1 and 2 workers".to_string()
    });
    m.put("campaign.overhead_s", "s", wall2 - busy2 / WORKERS as f64);
    let render = tr.span(
        "CampaignReport::render x9",
        "div-sim::campaign",
        0,
        0,
        |_| {
            (0..9)
                .map(|_| {
                    let t0 = Instant::now();
                    black_box(report.render());
                    secs(t0) * 1e3
                })
                .collect::<Vec<f64>>()
        },
    );
    m.put("campaign.render_ms", "ms", median(&render));
    let tps = |wall: f64| CAMPAIGN_TRIALS as f64 / wall;
    m.put(
        "campaign.scaling_t2",
        "ratio",
        tps(wall2) / (WORKERS as f64 * tps(wall1)),
    );
    let (used, slots) = lane_occupancy(&report);
    m.put("batch.lane_occupancy", "ratio", used as f64 / slots as f64);
    Ok(())
}

fn oplog(tmp: &Path, m: &mut Metrics, tr: &Tracer) -> Result<(), String> {
    let io = |e: std::io::Error| format!("oplog probe: {e}");
    let path = tmp.join("probe-oplog.div");
    let _ = std::fs::remove_file(&path);
    let (mut log, _) = Oplog::open(&path).map_err(io)?;
    let op = vec![format!("outcome 1 trial 0 converged 3 {}", u64::MAX)];
    let mut commit = Vec::new();
    for _ in 0..32 {
        let t0 = Instant::now();
        tr.span("Oplog::commit", "div-oplog", 0, 0, |_| log.commit(&op))
            .map_err(io)?;
        commit.push(secs(t0) * 1e6);
    }
    log.seal().map_err(io)?;
    m.put("oplog.commit_us", "us", median(&commit));
    let body = vec![b'x'; 1024];
    let target = tmp.join("probe-report.txt");
    let mut write = Vec::new();
    for _ in 0..32 {
        let t0 = Instant::now();
        tr.span("atomic_write", "div-oplog", 0, 0, |_| {
            atomic_write(&target, &body)
        })
        .map_err(io)?;
        write.push(secs(t0) * 1e6);
    }
    m.put("oplog.atomic_write_us", "us", median(&write));
    Ok(())
}

/// Sends the same round-0 jobs through `DIVD_PROBES` fresh daemons.
/// Every report must equal a local `run_campaign` of its `JobSpec`, and
/// every probe must count the same refusals.
fn divd(
    seed: u64,
    tmp: &Path,
    m: &mut Metrics,
    tr: &Tracer,
    tally: &mut Tally,
) -> Result<(), String> {
    let local = (0..DIVD_PROBE_JOBS)
        .map(|j| local_report(&job_spec(seed, 0, j)))
        .collect::<Result<Vec<String>, String>>()?;
    let mut jobs: Vec<JobResult> = Vec::new();
    let mut refused: Vec<usize> = Vec::new();
    for probe in 0..DIVD_PROBES {
        let daemon = tr.span("Daemon::start", "divd", 0, 0, |_| {
            start_daemon(&tmp.join(format!("divd-ledger-{probe}")))
        })?;
        let addr = daemon.local_addr();
        let results = closed_loop(addr, seed, 0, DIVD_PROBE_JOBS, true, tr, 0);
        daemon.drain();
        let results = results?;
        for j in &results {
            tally.check(j.ok && !j.refused, || {
                format!("divd probe: job {} refused or incomplete", j.spec_index)
            });
            tally.check(j.refused || j.report == local[j.spec_index], || {
                format!(
                    "divd probe: job {} report differs from a local run_campaign",
                    j.spec_index
                )
            });
        }
        refused.push(results.iter().filter(|j| j.refused).count());
        jobs.extend(results);
    }
    tally.check(refused.iter().all(|&r| r == refused[0]), || {
        format!("divd probe: refused counts differ between probes: {refused:?}")
    });
    let col = |f: &dyn Fn(&JobResult) -> f64| median(&jobs.iter().map(f).collect::<Vec<_>>());
    m.put("http.submit_ms", "ms", col(&|j| j.submit_ms));
    m.put("http.report_ms", "ms", col(&|j| j.report_ms));
    m.put("divd.refused", "count", refused[0] as f64);
    let span = |k: usize| {
        col(&|j| {
            let (q, a, w) = j.daemon_ms.unwrap_or((f64::NAN, f64::NAN, f64::NAN));
            [q, a, w][k]
        })
    };
    m.put("divd.queue_wait_ms", "ms", span(0));
    m.put("divd.attempt_ms", "ms", span(1));
    m.put("divd.report_write_ms", "ms", span(2));
    Ok(())
}
