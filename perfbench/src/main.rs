//! perfbench: the end-to-end and per-layer benchmark of the workspace.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Generates the workload's inputs from the seed, sets the system up (timed
//! several times, median reported), measures for the given seconds, checks
//! every output outside the timed regions, and prints as its last line one
//! JSON object with `correct`, `attempted`, `failed` and `metrics`: the
//! end-to-end metrics untraced, the per-layer metrics traced. Lines before
//! it carry the machine fingerprint and the workload's own named metrics.
//! See README.md in this directory.

// Wall-clock measurement is what a benchmark does; the workspace's
// determinism policy (clippy.toml disallowed-methods) is lifted here.
#![allow(clippy::disallowed_methods)]

mod openloop;
mod report;
mod serving;
mod solves;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use report::{metrics_json, result_line, Outcome};
use stats::median;
use trace::Tracer;

/// Connections (and load threads) the serving workload uses. Never more than
/// the machine's cores: the benchmark refuses to run otherwise.
pub const CONNECTIONS: usize = 2;
/// Passes a batch workload times at least, however long they take.
const MIN_PASSES: usize = 3;

/// Input sizes: the benchmark's, or a tiny scale for its smoke tests.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// Scale of the WB2001-like crawl (`sr_gen::Dataset::config`).
    pub wb_scale: f64,
    pub kernel_pages: usize,
    pub kernel_sources: usize,
    /// Set-ups per run, whose median is `setup_s`: a batch workload builds
    /// this many crawls and rotates its passes over them; a serving
    /// workload serves from its first and times the rest after its load.
    pub setups: usize,
}

impl Size {
    /// WB2001-like crawls of about 10.9M page edges and the 60k-page
    /// serving crawl.
    pub const FULL: Size = Size {
        wb_scale: 0.012,
        kernel_pages: 60_000,
        kernel_sources: 500,
        setups: 3,
    };
    #[cfg(test)]
    pub const TINY: Size = Size {
        wb_scale: 0.0002,
        kernel_pages: 3_000,
        kernel_sources: 60,
        setups: 2,
    };
}

/// One benchmark run.
pub struct Run {
    pub seed: u64,
    pub seconds: f64,
    /// Whether this is the traced run (per-layer metrics).
    pub traced: bool,
    pub size: Size,
    pub tracer: Tracer,
    /// Scratch directory of this run inside the working directory; removed
    /// when the run ends.
    pub work: PathBuf,
}

pub type Workload = fn(&Run, &mut Outcome);

pub const WORKLOADS: &[(&str, Workload)] = &[
    ("pipeline", solves::pipeline),
    ("pagerank", solves::pagerank),
    ("serve_mixed", serving::serve_mixed),
];

/// SplitMix64 of `seed` and `salt`: independent streams per input.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A small deterministic generator for query ids.
pub struct Rng(pub u64);

impl Rng {
    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u32) -> u32 {
        self.0 = mix(self.0, 1);
        u32::try_from(((self.0 >> 32) * u64::from(n)) >> 32).expect("below n")
    }
}

/// FNV-1a over the bit patterns of a vector: equal hashes for bitwise
/// equal vectors.
pub fn bits_hash(xs: &[f64]) -> u64 {
    xs.iter().fold(0xcbf2_9ce4_8422_2325, |h, x| {
        (h ^ x.to_bits()).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Sets a serving workload up once, timed; [`repeat_setup`] times the
/// other set-ups. Returns the set-up and its time in seconds.
pub fn first_setup<T>(r: &Run, setup: impl FnOnce(u64) -> T) -> (T, f64) {
    let t0 = Instant::now();
    let first = r.tracer.span("bench.setup", 0, setup);
    (first, t0.elapsed().as_secs_f64())
}

/// Sets a serving workload up `size.setups - 1` more times, dropping each,
/// and reports the median of these times and `first` as `setup_s`. The
/// workload calls it after its load and `peak_rss_mb`: a dropped set-up
/// leaves memory with the allocator, which a server started once does not
/// hold, and which varied the peak by a fifth from run to run.
pub fn repeat_setup<T>(r: &Run, out: &mut Outcome, first: f64, mut setup: impl FnMut(u64) -> T) {
    let mut times = vec![first];
    for _ in 1..r.size.setups {
        let t0 = Instant::now();
        drop(r.tracer.span("bench.setup", 0, &mut setup));
        times.push(t0.elapsed().as_secs_f64());
    }
    out.e2e("setup_s", median(&times));
}

/// Builds `size.setups` inputs with `setup(k, parent span)`, timing each,
/// and reports the median as `setup_s`. `after` turns each input into what
/// the passes need, untimed.
pub fn setup_each<T, U>(
    r: &Run,
    out: &mut Outcome,
    mut setup: impl FnMut(usize, u64) -> T,
    mut after: impl FnMut(usize, T) -> U,
) -> Vec<U> {
    let mut times = Vec::new();
    let inputs = (0..r.size.setups)
        .map(|k| {
            let t0 = Instant::now();
            let input = r.tracer.span("bench.setup", 0, |parent| setup(k, parent));
            times.push(t0.elapsed().as_secs_f64());
            after(k, input)
        })
        .collect();
    out.e2e("setup_s", median(&times));
    inputs
}

/// Times `pass(i, parent span)` for `i = 0, 1, …` for the run's seconds
/// (at least [`MIN_PASSES`] times, in whole rotations over the
/// `size.setups` inputs). `check(i, result)` sees each
/// result outside the timed region and says whether the operation
/// succeeded. A traced run spends the first half untraced and the second
/// half traced with sr-par counters on; the difference of their medians is
/// the tracing overhead. Returns the pass times in seconds (of the traced
/// half when traced).
pub fn timed_passes<T>(
    r: &Run,
    out: &mut Outcome,
    mut pass: impl FnMut(usize, u64) -> T,
    mut check: impl FnMut(usize, T) -> bool,
) -> Vec<f64> {
    let phases: &[bool] = if r.traced { &[false, true] } else { &[false] };
    let budget = r.seconds / phases.len() as f64;
    let min_passes = MIN_PASSES.max(r.size.setups);
    let mut medians = Vec::new();
    let mut times = Vec::new();
    let mut i = 0;
    for &traced in phases {
        r.tracer.set_enabled(traced);
        if traced {
            sr_par::counters::reset();
            sr_par::counters::enable();
        }
        times.clear();
        let start = Instant::now();
        // Whole rotations only, so every input gets the same number of passes.
        while times.len() < min_passes
            || start.elapsed().as_secs_f64() < budget
            || i % r.size.setups != 0
        {
            let t0 = Instant::now();
            let result = r.tracer.span("bench.pass", 0, |parent| pass(i, parent));
            times.push(t0.elapsed().as_secs_f64());
            out.attempted += 1;
            if !check(i, result) {
                out.failed += 1;
            }
            i += 1;
        }
        sr_par::counters::disable();
        medians.push(median(&times));
    }
    r.tracer.set_enabled(r.traced);
    if r.traced {
        out.layer("trace.overhead_ms", (medians[1] - medians[0]) * 1e3);
    }
    times
}

/// The sr-par counters accumulated since they were last reset.
pub fn counter_layers(out: &mut Outcome) {
    let c = sr_par::counters::snapshot();
    out.layer("par.par_calls", c.par_calls as f64);
    out.layer("par.tasks_spawned", c.tasks_spawned as f64);
    out.layer("par.busy_s", c.busy_nanos as f64 / 1e9);
}

/// Median time of one sr-par primitive call over `PAR_THRESHOLD` elements
/// of trivial work: the fork/join floor every parallel sweep pays.
fn fork_join_us() -> f64 {
    let len = sr_par::PAR_THRESHOLD;
    let calls = 20;
    let samples: Vec<f64> = (0..50)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..calls {
                std::hint::black_box(sr_par::map_reduce(len, |r| r.len(), |a, b| a + b));
            }
            t0.elapsed().as_secs_f64() * 1e6 / f64::from(calls)
        })
        .collect();
    median(&samples)
}

/// Reports `peak_rss_mb`. Each workload calls it when its load ends,
/// before the output checks, whose offline solves and replays would
/// otherwise count towards the peak.
pub fn peak_rss(out: &mut Outcome) {
    out.e2e("peak_rss_mb", peak_rss_mb());
}

/// Peak resident memory of this process (VmHWM) in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The machine and build this result comes from.
fn fingerprint() -> String {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let cpu = cpuinfo
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .map_or("unknown", |v| v.trim_start_matches([' ', '\t', ':']))
        .replace('"', "'");
    let meminfo = std::fs::read_to_string("/proc/meminfo").unwrap_or_default();
    let mem_kb = meminfo
        .lines()
        .find_map(|l| l.strip_prefix("MemTotal:"))
        .map_or("0", |v| v.trim().trim_end_matches("kB").trim());
    format!(
        concat!(
            r#"{{"fingerprint": {{"cpu": "{}", "available_parallelism": {}, "#,
            r#""sr_threads": {}, "connections": {}, "rustc": "{}", "target_cpu": "{}", "#,
            r#""mem_total_kb": {}}}}}"#
        ),
        cpu,
        cores(),
        sr_par::num_threads(),
        CONNECTIONS,
        env!("PERFBENCH_RUSTC"),
        env!("PERFBENCH_TARGET_CPU"),
        mem_kb
    )
}

struct Args {
    workload: Workload,
    name: String,
    seed: u64,
    seconds: f64,
    traced: bool,
}

const USAGE: &str = "usage: perfbench --workload <pipeline|pagerank|serve_mixed> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut name, mut seed, mut seconds, mut traced) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => name = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err("--seconds must be in (0, 120]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                traced = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let name = name.ok_or("--workload is required")?;
    let workload = WORKLOADS
        .iter()
        .find(|(n, _)| *n == name)
        .map(|&(_, w)| w)
        .ok_or(format!("unknown workload {name}"))?;
    Ok(Args {
        workload,
        name,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        traced: traced.ok_or("--trace is required")?,
    })
}

/// Removes the run's scratch directory however the run ends.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Runs one workload and returns its outcome; also the entry point of the
/// smoke tests.
pub fn run_workload(
    workload: Workload,
    name: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
    size: Size,
) -> Outcome {
    let work = PathBuf::from(".perfbench").join(format!(
        "work-{}-{name}-{seed}-{}",
        std::process::id(),
        u8::from(traced)
    ));
    std::fs::create_dir_all(&work).expect("create the run's scratch directory");
    let _cleanup = WorkDir(work.clone());
    let run = Run {
        seed,
        seconds,
        traced,
        size,
        tracer: Tracer::new(traced),
        work,
    };
    let mut out = Outcome::default();
    workload(&run, &mut out);
    if traced {
        let crawl = run.tracer.durations("gen.crawl");
        if !crawl.is_empty() {
            out.layer("gen.crawl_s", median(&crawl));
        }
        out.layer("par.fork_join_us", fork_join_us());
        let by_layer = run.tracer.self_time_by_layer();
        for layer in ["bench", "gen", "graph", "core", "serve"] {
            let name = format!("self.{layer}_s");
            out.layer(&name, by_layer.get(layer).copied().unwrap_or(0.0));
        }
        let dir = PathBuf::from(".perfbench").join("traces");
        let path = dir.join(format!("{name}-seed{seed}.jsonl"));
        if std::fs::create_dir_all(&dir)
            .and_then(|()| run.tracer.write_jsonl(&path))
            .is_err()
        {
            eprintln!("perfbench: could not write {}", path.display());
        }
    }
    out
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.name == "serve_mixed" {
        // Read once, at sr-par's first call, by every thread of the server.
        std::env::set_var("SR_THREADS", serving::THREADS_PER_REQUEST.to_string());
    }
    if sr_par::num_threads() > cores() || CONNECTIONS > cores() {
        eprintln!(
            "perfbench: refusing to run {} worker threads and {CONNECTIONS} connections on {} cores",
            sr_par::num_threads(),
            cores()
        );
        return ExitCode::from(2);
    }
    println!("{}", fingerprint());
    let out = run_workload(
        args.workload,
        &args.name,
        args.seed,
        args.seconds,
        args.traced,
        Size::FULL,
    );
    for m in out.end_to_end.iter().chain(&out.detail).chain(&out.layers) {
        eprintln!("perfbench: {:<28} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!(r#"{{"workload_metrics": {}}}"#, metrics_json(&out.detail));
    println!("{}", result_line(&out, args.traced));
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_run(seed: u64) -> Run {
        Run {
            seed,
            seconds: 1.0,
            traced: false,
            size: Size::TINY,
            tracer: Tracer::new(false),
            work: PathBuf::new(),
        }
    }

    #[test]
    fn a_seed_fixes_crawls_and_delta_streams() {
        let (a, b, c) = (tiny_run(1), tiny_run(1), tiny_run(2));
        let crawl = |r: &Run, k| solves::wb_crawl(r, k, 0).pages;
        assert_eq!(crawl(&a, 0), crawl(&b, 0));
        assert_ne!(crawl(&a, 0), crawl(&c, 0));
        assert_ne!(crawl(&a, 0), crawl(&a, 1));
        let deltas = |r: &Run| {
            let (crawl, spam) = serving::kernel_crawl(r, 0);
            let mut stream = serving::delta_stream(r, &crawl);
            (
                crawl.pages,
                spam,
                (0..3).map(|_| stream.next_delta()).collect::<Vec<_>>(),
            )
        };
        assert_eq!(deltas(&a), deltas(&b));
        assert_ne!(deltas(&a), deltas(&c));
    }

    #[test]
    fn seeds_fix_the_inputs() {
        assert_eq!(mix(7, 1), mix(7, 1));
        assert_ne!(mix(7, 1), mix(8, 1));
        assert_ne!(mix(7, 1), mix(7, 2));
        let draw = |seed| {
            let mut rng = Rng(seed);
            (0..100).map(|_| rng.below(1000)).collect::<Vec<_>>()
        };
        assert_eq!(draw(3), draw(3));
        assert_ne!(draw(3), draw(4));
        assert!(draw(5).iter().all(|&x| x < 1000));
    }

    /// A tiny-scale run of every workload, untraced and traced, prints every
    /// gated metric with its unit and passes its output checks. The checks
    /// that need a full-length run's sample counts are exempt. Another seed
    /// prints the same metrics.
    #[test]
    fn tiny_runs_print_every_metric_with_its_unit() {
        for &(name, workload) in WORKLOADS {
            let names = |out: &Outcome| {
                out.end_to_end
                    .iter()
                    .chain(&out.detail)
                    .map(|m| m.name.clone())
                    .collect::<Vec<_>>()
            };
            let other_seed = run_workload(workload, name, 10, 1.0, false, Size::TINY);
            for traced in [false, true] {
                let out = run_workload(workload, name, 9, 1.0, traced, Size::TINY);
                if !traced {
                    assert_eq!(names(&out), names(&other_seed), "{name}: metric set");
                }
                let line = result_line(&out, traced);
                let declared = if traced {
                    report::PER_LAYER
                } else {
                    report::END_TO_END
                };
                for (metric, unit) in declared {
                    let entry = format!(r#""{metric}": {{"value": "#);
                    let at = line
                        .find(&entry)
                        .unwrap_or_else(|| panic!("{name}: no {metric}"));
                    assert!(line[at..].starts_with(&entry) && line[at..].contains(unit));
                }
                let measured = if traced { &out.layers } else { &out.end_to_end };
                assert!(!measured.is_empty(), "{name}: nothing measured");
                for (check, ok) in &out.checks {
                    let needs_full_run =
                        check.contains("samples beyond") || check.contains("lowest rung");
                    assert!(*ok || needs_full_run, "{name} (traced {traced}): {check}");
                }
                assert!(
                    out.attempted > 0 && out.failed == 0,
                    "{name}: operations failed"
                );
            }
        }
    }

    #[test]
    fn args_parse_and_reject() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(String::from));
        let a = parse("--workload pagerank --seed 3 --seconds 10 --trace 1").expect("valid");
        assert_eq!(
            (a.name.as_str(), a.seed, a.seconds, a.traced),
            ("pagerank", 3, 10.0, true)
        );
        assert!(parse("--workload ooc --seed 3 --seconds 10 --trace 0").is_err());
        assert!(parse("--workload serve_exact --seed 3 --seconds 10 --trace 0").is_err());
        assert!(parse("--workload nope --seed 3 --seconds 10 --trace 0").is_err());
        assert!(parse("--workload pagerank --seed 3 --seconds 10 --trace 2").is_err());
        assert!(parse("--workload pagerank --seed 3 --trace 0").is_err());
        assert!(parse("--workload pagerank --seed 3 --seconds 10 --trace 0 --tiny").is_err());
    }
}
