//! `perfbench`: the CrossMine benchmark.
//!
//! ```text
//! perfbench --workload <fit|score|serve> --seed <n> --seconds <s> --trace <0|1>
//!           [--tamper <label|clause>]
//! ```
//!
//! Every workload runs three phases — fit (cross-validation), score (bulk
//! scoring through every evaluator) and serve (one wire client beside
//! deltas) — plus repeated set-ups, and spends most of `--seconds` on the
//! phase it is named after. The last line of standard
//! output is the JSON result; `--trace 0` reports the end-to-end metrics,
//! `--trace 1` the per-layer ones. `--tamper` plants a fault the checks
//! must catch (see `tests/selftest.rs`). See `README.md`.

mod api;
mod client;
mod fit;
mod input;
mod oracle;
mod report;
mod score;
mod serve;
mod stats;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use input::{RunDir, Setup, SetupTimes, Tamper, Workload};
use report::{Metrics, Outcome};
use stats::{mean, median, quantile};
use trace::Spans;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    tamper: Tamper,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut tamper = Tamper::None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || value.parse::<u64>().map_err(|_| format!("{flag}: not a number: {value}"));
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => trace = Some(number()? != 0),
            "--tamper" => {
                tamper = match value.as_str() {
                    "label" => Tamper::Label,
                    "clause" => Tamper::Clause,
                    _ => return Err(format!("unknown tamper {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        tamper,
    })
}

/// Shares of the measured time the fit, score, serve and set-up phases
/// get.
fn shares(workload: Workload) -> [f64; 4] {
    match workload {
        Workload::Fit => [0.58, 0.12, 0.18, 0.12],
        Workload::Score => [0.26, 0.48, 0.14, 0.12],
        Workload::Serve => [0.13, 0.13, 0.62, 0.12],
    }
}

/// The database whose model the serve phase serves: always the serve
/// workload's small R5.T200.F3 one. Served one row per request, the
/// financial model (1 to 6 ms a row) and the R20.T1000.F2 one (0.9 ms)
/// swung by a quarter or more from run to run, which no bound could hold.
const SERVING: Workload = Workload::Serve;

/// What the phases run against.
struct Inputs {
    /// The workload's own set-up; every set-up step replaces it.
    own: Setup,
    /// The set-up the serve phase serves when it is not `own`: built once
    /// and not part of `setup_s`.
    serving: Option<Setup>,
    /// Program-step times of every set-up step.
    setups: Vec<SetupTimes>,
    /// Where set-ups spill their disk images.
    dir: PathBuf,
}

impl Inputs {
    fn new(args: &Args, dir: &Path) -> Inputs {
        let build = |w: Workload| Inputs::build(args, dir, w, 0, &Spans::new(false));
        Inputs {
            own: build(args.workload),
            serving: (args.workload != SERVING).then(|| build(SERVING)),
            setups: Vec::new(),
            dir: dir.to_path_buf(),
        }
    }

    /// Builds `workload`'s set-up, spilling to disk-image slot `slot`.
    fn build(args: &Args, dir: &Path, workload: Workload, slot: usize, spans: &Spans) -> Setup {
        let spill = dir.join(format!("{}-{slot}.pages", workload.name()));
        input::setup(workload, args.seed, args.tamper, &spill, spans)
    }

    fn serving(&self) -> &Setup {
        self.serving.as_ref().unwrap_or(&self.own)
    }

    /// One set-up step: builds the workload's inputs from scratch, timing
    /// the program's steps, and hands the new set-up to the other phases.
    fn rebuild(&mut self, args: &Args, spans: &Spans) {
        // The set-up being replaced keeps its disk image until it drops.
        let slot = (self.setups.len() + 1) % 2;
        let fresh = Inputs::build(args, &self.dir, args.workload, slot, spans);
        self.setups.push(fresh.times.clone());
        self.own = fresh;
    }
}

/// One measured pass over the three phases.
struct Half {
    fit: fit::FitStats,
    score: score::ScoreStats,
    serve: serve::ServeStats,
}

/// Runs the phases for `seconds`, interleaved in steps (a fold, 100 ms of
/// evaluator rounds, a serve round, a set-up) so each phase gets its share
/// of the time spread over the whole run, then finishes the round each has
/// open.
fn run_half(
    args: &Args,
    inputs: &mut Inputs,
    spans: &Spans,
    seconds: f64,
    out: &mut Outcome,
) -> Half {
    let shares = shares(args.workload);
    let mut fit = fit::Phase::new(args.seed, args.tamper, spans);
    let mut score = score::Phase::new(&inputs.own, args.seed, args.tamper);
    let mut serve = serve::Phase::new(inputs.serving(), args.seed, args.tamper, spans);
    let setups_before = inputs.setups.len();
    let mut spent = [0.0f64; 4];
    let start = Instant::now();
    loop {
        let open = [
            fit.mid_round() || fit.rounds() == 0,
            score.rounds() == 0,
            serve.rounds() == 0,
            inputs.setups.len() == setups_before,
        ];
        let next = if start.elapsed().as_secs_f64() < seconds {
            (0..4).min_by(|&a, &b| (spent[a] / shares[a]).total_cmp(&(spent[b] / shares[b])))
        } else {
            (0..4).find(|&i| open[i])
        };
        let Some(next) = next else { break };
        let step = Instant::now();
        match next {
            0 => fit.step(&inputs.own, spans, out),
            1 => score.step(&mut inputs.own, spans, out),
            2 => serve.step(inputs.serving(), spans, out),
            _ => inputs.rebuild(args, spans),
        }
        spent[next] += step.elapsed().as_secs_f64();
    }
    let serve = serve.finish(inputs.serving(), spans, out);
    Half { fit: fit.finish(), score: score.stats, serve }
}

/// Peak resident set of this process, in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok());
    kb.map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Median over the set-up steps of one program-step time.
fn median_of(setups: &[SetupTimes], f: impl Fn(&SetupTimes) -> f64) -> f64 {
    median(&setups.iter().map(f).collect::<Vec<_>>())
}

fn end_to_end(h: &Half, setups: &[SetupTimes]) -> Metrics {
    let mut m = Metrics::default();
    m.put("setup_s", median_of(setups, |t| t.total), "s");
    m.put("peak_rss_mb", peak_rss_mb(), "MiB");
    m.put("fit_s", median(&h.fit.fold_fit_s), "s");
    m.put("accuracy", mean(&h.fit.round_accuracy), "ratio");
    let sc = &h.score;
    m.put("rows_per_s", sc.rows as f64 / median(&sc.labels_s), "1/s");
    m.put("explain_rows_per_s", sc.rows as f64 / median(&sc.explain_s), "1/s");
    m.put("overlay_rows_per_s", sc.merged_rows as f64 / median(&sc.overlay_s), "1/s");
    m.put("disk_rows_per_s", sc.rows as f64 / median(&sc.disk_s), "1/s");
    m.put("p50_us", quantile(&h.serve.read_us, 0.5), "us");
    m.put("mixed_p50_us", quantile(&h.serve.mixed_us, 0.5), "us");
    m.put("delta_ms", median(&h.serve.delta_ms), "ms");
    m
}

/// Figures printed for the README but not gated: too noisy run to run
/// (tails, mean-based rates) or explanatory (the first and last delta).
fn reference(h: &Half, setups: usize) -> String {
    let reads = &h.serve.read_us;
    let per_round = serve::DELTAS;
    let nth_delta = |k: usize| -> f64 {
        let v: Vec<f64> = h.serve.delta_ms.iter().skip(k).step_by(per_round).copied().collect();
        median(&v)
    };
    format!(
        "p90_us {:.1}  p99_us {:.1}  closed-loop req/s from the mean {:.0}  \
         delta 1 {:.4} ms  delta {per_round} {:.4} ms  reads {}  set-ups {setups}\n",
        quantile(reads, 0.9),
        quantile(reads, 0.99),
        1e6 / mean(reads),
        nth_delta(0),
        nth_delta(per_round - 1),
        reads.len()
    )
}

/// The time-like end-to-end figure the workload is named after.
fn headline(workload: Workload, h: &Half) -> f64 {
    match workload {
        Workload::Fit => median(&h.fit.fold_fit_s),
        Workload::Score => median(&h.score.labels_s),
        Workload::Serve => quantile(&h.serve.read_us, 0.5),
    }
}

fn per_layer(
    args: &Args,
    plain: &Half,
    traced: &Half,
    spans: &Spans,
    setups: &[SetupTimes],
) -> Metrics {
    let mut m = Metrics::default();
    let fit = &traced.fit;
    let folds = fit.fold_fit_s.len().max(1) as f64;
    let per_fold = |i: usize| fit.counters[i] as f64 / folds;
    m.put("core.fit_nocache_s", median(&fit.nocache_fit_s), "s");
    m.put("core.stats.hits", per_fold(0), "count");
    m.put("core.stats.misses", per_fold(1), "count");
    m.put("core.stats.evictions", per_fold(2), "count");
    let lookups = (fit.counters[0] + fit.counters[1]).max(1) as f64;
    m.put("core.stats.hit_ratio", fit.counters[0] as f64 / lookups, "ratio");
    m.put("core.propagation.passes", per_fold(3), "count");
    m.put("core.propagation.ids", per_fold(4), "count");
    m.put("core.search.literals", per_fold(5), "count");
    m.put("core.search.lookahead_units", per_fold(6), "count");
    m.put("core.predict_ms", median(&fit.predict_ms), "ms");
    m.put("core.learner.clauses", mean(&fit.clauses), "count");
    m.put("relational.index_build_ms", median_of(setups, |t| t.index) * 1e3, "ms");

    let sc = &traced.score;
    m.put("serve.eval.batch_us", spans.median_us("serve.eval.batch"), "us");
    m.put("core.predict_rows_per_s", sc.rows as f64 / median(&sc.core_predict_s), "1/s");
    m.put("serve.explain.batch_us", spans.median_us("serve.explain.batch"), "us");
    m.put("serve.overlay.batch_us", spans.median_us("serve.overlay.batch"), "us");
    m.put("storage.disk.batch_us", spans.median_us("storage.disk.batch"), "us");
    let pool = |f: fn(&api::BufferStats) -> f64| median(&sc.pool.iter().map(f).collect::<Vec<_>>());
    m.put("storage.pool.hits", pool(|p| p.hits as f64), "count");
    m.put("storage.pool.misses", pool(|p| p.misses as f64), "count");
    m.put("storage.pool.evictions", pool(|p| p.evictions as f64), "count");
    m.put("storage.pool.hit_ratio", pool(|p| p.hit_rate()), "ratio");
    m.put("serve.plan.compile_ms", median_of(setups, |t| t.compile) * 1e3, "ms");
    m.put("storage.spill_ms", median_of(setups, |t| t.spill) * 1e3, "ms");
    m.put("relational.delta.build_ms", median_of(setups, |t| t.delta_build) * 1e3, "ms");

    let sv = &traced.serve;
    let p50 = quantile(&sv.read_us, 0.5);
    let inproc = quantile(&sv.inproc_us, 0.5);
    m.put("serve.inproc_p50_us", inproc, "us");
    m.put("serve.eval.row_us", median(&sv.eval_row_us), "us");
    m.put("net.wire_us", p50 - inproc, "us");
    m.put("serve.queue_wait_p50_us", sv.queue_wait_p50_us, "us");
    m.put("serve.mean_batch", mean(&sv.mean_batch), "count");
    m.put("net.bytes_per_request", mean(&sv.bytes_per_request), "bytes");
    m.put("serve.overlay.row_us", median(&sv.overlay_row_us), "us");
    m.put("relational.delta.last_build_ms", median(&sv.last_build_ms), "ms");
    m.put("serve.delta.ops", sv.last_delta_ops as f64, "count");

    let overhead = headline(args.workload, traced) / headline(args.workload, plain) - 1.0;
    m.put("trace.overhead_pct", overhead * 100.0, "%");
    m
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let run_dir = match RunDir::create() {
        Ok(d) => d,
        Err(e) => {
            eprintln!("perfbench: cannot create the run directory: {e}");
            return ExitCode::from(2);
        }
    };
    let traced_spans = Spans::new(args.trace);
    let plain_spans = Spans::new(false);

    let mut inputs = Inputs::new(&args, &run_dir.0);
    let s = &inputs.own;
    println!(
        "== inputs ({} workload): {} tuples, {} target rows, {} clauses; disk image {} pages \
         through a {}-page pool; score-phase delta of {} ops",
        args.workload.name(),
        s.db.total_tuples(),
        s.db.num_targets(),
        s.model.clauses.len(),
        s.total_pages,
        s.pool_pages,
        s.delta.len()
    );

    let mut out = Outcome::default();
    let seconds = args.seconds as f64;
    let metrics = if args.trace {
        let plain = run_half(&args, &mut inputs, &plain_spans, seconds / 2.0, &mut out);
        let traced = run_half(&args, &mut inputs, &traced_spans, seconds / 2.0, &mut out);
        println!(
            "== spans ({} workload, traced half)\n{}",
            args.workload.name(),
            traced_spans.table()
        );
        let path = std::path::Path::new(".perfbench").join(format!(
            "trace-{}-seed{}.jsonl",
            args.workload.name(),
            args.seed
        ));
        if let Err(e) = traced_spans.write_jsonl(&path) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
        }
        per_layer(&args, &plain, &traced, &traced_spans, &inputs.setups)
    } else {
        let h = run_half(&args, &mut inputs, &plain_spans, seconds, &mut out);
        println!("== reference, not gated\n{}", reference(&h, inputs.setups.len()));
        end_to_end(&h, &inputs.setups)
    };
    drop(inputs);
    drop(run_dir);

    println!(
        "== metrics ({} workload, seed {})\n{}",
        args.workload.name(),
        args.seed,
        metrics.table()
    );
    for note in out.notes() {
        eprintln!("perfbench: FAILED {note}");
    }
    let correct = out.failed == 0 && metrics.all_finite();
    println!("{}", report::result_line(correct, &out, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
