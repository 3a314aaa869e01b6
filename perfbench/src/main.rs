//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload campaign-1k|trial-1m --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` the run sets the workload up several times, then
//! repeats its round for `--seconds` seconds and reports the end-to-end
//! metrics.  With `--trace 1` it alternates untraced and traced rounds
//! (the tracing overhead), runs the per-layer ledger, writes the span
//! trace and a self-time table under `perfbench/out/`, and reports the
//! per-layer metrics.  Every run checks the program's outputs.  The last
//! stdout line is one JSON object: `correct`, `attempted`, `failed`,
//! `metrics`.  See `perfbench/METRICS.md` for what each metric means.

mod ledger;
mod stats;
mod tracer;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::exit;
use std::time::{Duration, Instant};

use stats::{median, quantile, Metrics};
use tracer::Tracer;
use workloads::{Round, Tally, Workload};

const USAGE: &str =
    "usage: perfbench --workload campaign-1k|trial-1m --seed N --seconds S --trace 0|1";
/// Rounds timed in an untraced run even when `--seconds` is short.
const MIN_ROUNDS: usize = 3;
/// Share of `--seconds` that set-ups may take.  While they stay below it,
/// an untraced run takes one more set-up sample before every round, so a
/// millisecond set-up is sampled across the whole run, not only at its
/// start.
const SETUP_SHARE: f64 = 0.05;
/// Untraced/traced round pairs of a traced run (at least, at most).
const MIN_PAIRS: usize = 2;
const MAX_PAIRS: usize = 8;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    for pair in argv.chunks(2) {
        let [flag, value] = pair else {
            return Err(format!("flag {:?} needs a value", pair[0]));
        };
        let num = |what: &str| {
            value
                .parse::<u64>()
                .map_err(|_| format!("{what} needs a whole number, got {value:?}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num("--seed")?),
            "--seconds" => seconds = Some(num("--seconds")?),
            "--trace" => trace = Some(num("--trace")?),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    let trace = match trace.unwrap_or(0) {
        0 => false,
        1 => true,
        t => return Err(format!("--trace must be 0 or 1, got {t}")),
    };
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?.max(1) as f64,
        trace,
    })
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}\n{USAGE}");
        exit(2)
    });
    let out = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let tmp = out.join(format!("tmp-{}", std::process::id()));
    let result = std::fs::create_dir_all(&tmp)
        .map_err(|e| format!("cannot create {}: {e}", tmp.display()))
        .and_then(|()| run(&args, &out, &tmp));
    let _ = std::fs::remove_dir_all(&tmp);
    match result {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            exit(1);
        }
    }
}

fn run(args: &Args, out: &Path, tmp: &Path) -> Result<String, String> {
    let fingerprint = host_fingerprint();
    println!("{fingerprint}");
    let mut w = workloads::by_name(&args.workload, args.seed)
        .ok_or_else(|| format!("unknown workload {:?}\n{USAGE}", args.workload))?;
    let mut tally = Tally::default();
    let mut m = Metrics::default();
    let setups = (0..w.setups())
        .map(|_| w.setup())
        .collect::<Result<Vec<f64>, String>>()?;
    let off = Tracer::new(false);
    // One untimed round lets caches fill and lazy start-up finish.
    let warm = w.round(&off, 0, &mut tally)?;
    let budget = Duration::from_secs_f64(args.seconds);
    let result = if args.trace {
        traced(
            args,
            w.as_mut(),
            &warm,
            budget,
            out,
            tmp,
            &fingerprint,
            &mut m,
            &mut tally,
        )
    } else {
        untraced(w.as_mut(), setups, budget, &mut m, &mut tally)
    };
    result?;
    if !m.all_finite() {
        return Err(format!("a metric is not finite:\n{}", m.table()));
    }
    println!(
        "workload {} seed {}:\n{}",
        args.workload,
        args.seed,
        m.table()
    );
    println!(
        "  failed_share {} ({} of {} operations)",
        tally.failed as f64 / tally.attempted.max(1) as f64,
        tally.failed,
        tally.attempted
    );
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0,
        tally.attempted,
        tally.failed,
        m.to_json()
    ))
}

fn untraced(
    w: &mut dyn Workload,
    mut setups: Vec<f64>,
    budget: Duration,
    m: &mut Metrics,
    tally: &mut Tally,
) -> Result<(), String> {
    let off = Tracer::new(false);
    let t0 = Instant::now();
    let mut rounds: Vec<Round> = Vec::new();
    while rounds.len() < MIN_ROUNDS || t0.elapsed() < budget {
        if setups.iter().sum::<f64>() < SETUP_SHARE * budget.as_secs_f64() {
            setups.push(w.setup()?);
        }
        rounds.push(w.round(&off, rounds.len() as u64 + 1, tally)?);
    }
    let per_round = |f: &dyn Fn(&Round) -> f64| {
        median(&rounds.iter().map(|r| f(r) / r.wall_s).collect::<Vec<_>>())
    };
    let latencies: Vec<f64> = rounds.iter().flat_map(|r| r.job_ms.clone()).collect();
    m.put("setup_s", "s", median(&setups));
    m.put(
        "wall_s",
        "s",
        median(&rounds.iter().map(|r| r.wall_s).collect::<Vec<_>>()),
    );
    m.put("steps_per_s", "1/s", per_round(&|r| r.steps as f64));
    m.put("trials_per_s", "1/s", per_round(&|r| r.trials as f64));
    m.put("job_latency_p50_ms", "ms", median(&latencies));
    m.put("job_latency_p90_ms", "ms", quantile(&latencies, 0.9));
    m.put("jobs_per_s", "1/s", per_round(&|r| r.jobs as f64));
    m.put("peak_rss_mb", "MiB", peak_rss_mb()?);
    println!(
        "  {} set-ups, {} rounds; job latency ms over {} samples: p10 {:.3} p25 {:.3} p50 {:.3} \
         p75 {:.3} p90 {:.3} max {:.3}",
        setups.len(),
        rounds.len(),
        latencies.len(),
        quantile(&latencies, 0.1),
        quantile(&latencies, 0.25),
        quantile(&latencies, 0.5),
        quantile(&latencies, 0.75),
        quantile(&latencies, 0.9),
        quantile(&latencies, 1.0),
    );
    Ok(())
}

#[allow(clippy::too_many_arguments)]
fn traced(
    args: &Args,
    w: &mut dyn Workload,
    warm: &Round,
    budget: Duration,
    out: &Path,
    tmp: &Path,
    fingerprint: &str,
    m: &mut Metrics,
    tally: &mut Tally,
) -> Result<(), String> {
    let on = Tracer::new(true);
    let off = Tracer::new(false);
    let t0 = Instant::now();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut pair = 0u64;
    while pair < MIN_PAIRS as u64 || (pair < MAX_PAIRS as u64 && t0.elapsed() < budget / 2) {
        // Both sides of a pair run the same round; which runs first
        // alternates.
        let round_no = pair + 1;
        let plain_first = pair.is_multiple_of(2);
        let (a, b) = if plain_first {
            (&off, &on)
        } else {
            (&on, &off)
        };
        let first = w.round(a, round_no, tally)?;
        let second = w.round(b, round_no, tally)?;
        tally.check(first.exact == second.exact, || {
            format!(
                "exact counts of round {round_no} differ between runs: {:?} vs {:?}",
                first.exact, second.exact
            )
        });
        let (p, t) = if plain_first {
            (first, second)
        } else {
            (second, first)
        };
        plain.push(p.wall_s);
        traced.push(t.wall_s);
        pair += 1;
    }
    w.identity_checks(tally)?;
    let big = w.take_big_inputs();
    let round_spans = on.spans().len();
    ledger::run(args.seed, big, tmp, &on, m, tally)?;
    m.put("steps.simulated", "count", warm.steps as f64);
    m.put("trials.converged", "count", warm.converged as f64);
    m.put("trace.overhead", "ratio", median(&traced) / median(&plain));

    let spans = on.spans();
    let rendered = tracer::render(&spans);
    let reparsed = div_core::parse_spans(&rendered).map(|e| div_core::render_spans(&e));
    tally.check(reparsed.as_deref() == Ok(rendered.as_str()), || {
        "span trace does not round-trip through parse_spans".to_string()
    });
    // Round spans all start before the ledger's, so they sort first.
    let (rounds, probes) = spans.split_at(round_spans);
    let table = format!(
        "traced rounds ({} spans):\n{}ledger probes ({} spans):\n{}",
        rounds.len(),
        tracer::self_time_table(rounds),
        probes.len(),
        tracer::self_time_table(probes)
    );
    let stem: PathBuf = out.join(format!("{}-seed{}", args.workload, args.seed));
    let write = |ext: &str, body: &str| {
        let path = stem.with_extension(ext);
        std::fs::write(&path, body).map_err(|e| format!("write {}: {e}", path.display()))
    };
    write("spans.json", &rendered)?;
    write("layers.txt", &format!("{fingerprint}\n{table}"))?;
    println!(
        "per-layer self time, spans written to {}.spans.json:\n{table}",
        stem.display()
    );
    Ok(())
}

/// Peak resident set size of this process so far.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

fn host_fingerprint() -> String {
    let read = |p: &str| std::fs::read_to_string(p).map(|s| s.trim().to_string());
    let cpu = read("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let cache = |i: u32| {
        read(&format!("/sys/devices/system/cpu/cpu0/cache/index{i}/size"))
            .unwrap_or_else(|_| "unknown".to_string())
    };
    let command = |prog: &str, args: &[&str]| {
        std::process::Command::new(prog)
            .args(args)
            .current_dir(env!("CARGO_MANIFEST_DIR"))
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    };
    let in_git = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../.git")
        .exists();
    let commit = in_git
        .then(|| command("git", &["rev-parse", "HEAD"]))
        .flatten()
        .unwrap_or_else(|| "none (not a git checkout)".to_string());
    format!(
        "host: cpu {cpu:?}; nproc {}; L2 {}; L3 {}; kernel tier {} (supported {}); {}; \
         commit {commit}; sources crc32 {:08x}",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        cache(2),
        cache(3),
        div_core::KernelTier::active().name(),
        div_core::KernelTier::supported()
            .iter()
            .map(|t| t.name())
            .collect::<Vec<_>>()
            .join(","),
        command("rustc", &["-V"]).unwrap_or_else(|| "rustc unknown".to_string()),
        source_digest(),
    )
}

/// CRC-32 over the workspace sources (paths and bytes, in path order),
/// identifying the code under test where no git commit is available.
fn source_digest() -> u32 {
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, files);
            } else {
                files.push(p);
            }
        }
    }
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    walk(&root.join("crates"), &mut files);
    files.sort();
    let mut bytes = Vec::new();
    for f in &files {
        if let Ok(body) = std::fs::read(f) {
            bytes.extend_from_slice(
                f.strip_prefix(&root)
                    .unwrap_or(f)
                    .to_string_lossy()
                    .as_bytes(),
            );
            bytes.extend_from_slice(&body);
        }
    }
    div_oplog::crc32(&bytes)
}
