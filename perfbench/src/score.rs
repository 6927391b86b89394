//! The score phase: rounds of single-threaded bulk scoring of every target
//! row, once through each evaluator the program has — labels-only,
//! provenance (explain), base + delta overlay, and disk over a buffer pool
//! smaller than the spilled data.

use std::time::{Duration, Instant};

use crate::api::{
    evaluate_batch, evaluate_batch_overlay, evaluate_batch_traced, predict_disk, BufferStats,
    ClassLabel, Database, OverlayScratch, Row, ServeScratch,
};
use crate::input::{target_rows, Setup, Tamper};
use crate::oracle::{self, Expected};
use crate::report::Outcome;
use crate::stats::Rng;
use crate::trace::Spans;

/// Rows per evaluator call.
const BATCH: usize = 1024;
/// Least time one scheduler step of this phase lasts.
const STEP: Duration = Duration::from_millis(100);
/// Rows per database the oracle checks in every pass.
const SAMPLE: usize = 48;

#[derive(Debug, Default)]
pub struct ScoreStats {
    pub rows: usize,
    pub merged_rows: usize,
    /// Seconds per full pass, per evaluator.
    pub labels_s: Vec<f64>,
    pub explain_s: Vec<f64>,
    pub overlay_s: Vec<f64>,
    pub disk_s: Vec<f64>,
    /// `CrossMineModel::predict` on the same batches (traced run only).
    pub core_predict_s: Vec<f64>,
    /// Buffer-pool activity of each disk pass.
    pub pool: Vec<BufferStats>,
}

/// What every pass over one database must return.
struct Reference {
    /// Label of every row, by row id, from `CrossMineModel::predict`.
    labels: Vec<ClassLabel>,
    /// The oracle's verdict on a seeded sample of rows.
    sample: Vec<Expected>,
    classes: Vec<ClassLabel>,
}

impl Reference {
    fn new(db: &Database, setup: &Setup, rows: &[Row], tamper: Tamper) -> Reference {
        let model = &setup.model;
        let labels = model.predict(db, &target_rows(db)).expect("reference predict");
        let mut sample = oracle::expect(db, &model.clauses, model.default_label, rows);
        if tamper == Tamper::Label {
            oracle::flip(&mut sample, &model.classes);
        }
        Reference { labels, sample, classes: model.classes.clone() }
    }

    /// Checks one pass: `labels[i]` is the label returned for `rows[i]`.
    fn check(&self, what: &str, rows: &[Row], labels: &[ClassLabel]) -> Result<(), String> {
        if rows.len() != labels.len() {
            return Err(format!("{what}: {} labels for {} rows", labels.len(), rows.len()));
        }
        let mut got = vec![None; self.labels.len()];
        for (r, &l) in rows.iter().zip(labels) {
            if !self.classes.contains(&l) {
                return Err(format!("{what}: row {} got class {} outside the model", r.0, l.0));
            }
            if l != self.labels[r.0 as usize] {
                return Err(format!(
                    "{what}: row {} got {} but CrossMineModel::predict gives {}",
                    r.0, l.0, self.labels[r.0 as usize].0
                ));
            }
            got[r.0 as usize] = Some(l);
        }
        for e in &self.sample {
            if got[e.row.0 as usize] != Some(e.label) {
                return Err(format!(
                    "{what}: row {} got {:?} but the oracle expects {}",
                    e.row.0,
                    got[e.row.0 as usize].map(|l| l.0),
                    e.label.0
                ));
            }
        }
        Ok(())
    }
}

/// Runs `eval` over `rows` in batches of [`BATCH`], each call a span named
/// `name`; returns the outputs in row order and the pass time in seconds.
fn pass<T>(
    spans: &Spans,
    name: &'static str,
    rows: &[Row],
    mut eval: impl FnMut(&[Row]) -> Vec<T>,
) -> (Vec<T>, f64) {
    let mut out = Vec::with_capacity(rows.len());
    let mut total = Duration::ZERO;
    for batch in rows.chunks(BATCH) {
        let (o, t) = spans.timed(name, || eval(batch));
        out.extend(o);
        total += t;
    }
    (out, total.as_secs_f64())
}

fn seeded_order(n: usize, rng: &mut Rng) -> Vec<Row> {
    let mut rows: Vec<Row> = (0..n as u32).map(Row).collect();
    rng.shuffle(&mut rows);
    rows
}

fn diff(after: BufferStats, before: BufferStats) -> BufferStats {
    BufferStats {
        hits: after.hits - before.hits,
        misses: after.misses - before.misses,
        evictions: after.evictions - before.evictions,
        writebacks: after.writebacks - before.writebacks,
    }
}

/// The score phase. A round is one pass over every target row through
/// each evaluator; a step is whole rounds lasting at least [`STEP`].
pub struct Phase {
    rows: Vec<Row>,
    merged_rows: Vec<Row>,
    base_ref: Reference,
    merged_ref: Reference,
    scratch: ServeScratch,
    overlay_scratch: OverlayScratch,
    rounds: usize,
    pub stats: ScoreStats,
}

impl Phase {
    pub fn new(setup: &Setup, seed: u64, tamper: Tamper) -> Phase {
        let db = &setup.db;
        let mut merged = (**db).clone();
        merged.apply_delta(&setup.delta).expect("the seeded delta applies");
        let mut rng = Rng::new(seed, 2);
        let rows = seeded_order(db.num_targets(), &mut rng);
        let merged_rows = seeded_order(merged.num_targets(), &mut rng);
        // The merged sample always includes rows the delta appended.
        let mut merged_sample: Vec<Row> = merged_rows.iter().copied().take(SAMPLE / 2).collect();
        let appended = (db.num_targets()..merged.num_targets()).map(|r| Row(r as u32));
        merged_sample.extend(appended.take(SAMPLE / 2));
        merged_sample.sort();
        merged_sample.dedup();
        let base_ref = Reference::new(db, setup, &rows[..SAMPLE.min(rows.len())], tamper);
        let merged_ref = Reference::new(&merged, setup, &merged_sample, tamper);
        let stats =
            ScoreStats { rows: rows.len(), merged_rows: merged_rows.len(), ..Default::default() };
        Phase {
            rows,
            merged_rows,
            base_ref,
            merged_ref,
            scratch: ServeScratch::new(),
            overlay_scratch: OverlayScratch::new(),
            rounds: 0,
            stats,
        }
    }

    pub fn rounds(&self) -> usize {
        self.rounds
    }

    /// Scores whole rounds for at least [`STEP`], enough that the first,
    /// colder one does not set the medians.
    pub fn step(&mut self, setup: &mut Setup, spans: &Spans, out: &mut Outcome) {
        let start = Instant::now();
        while start.elapsed() < STEP {
            self.round(setup, spans, out);
        }
    }

    fn round(&mut self, setup: &mut Setup, spans: &Spans, out: &mut Outcome) {
        let Setup { db, plan, overlay, disk, served, .. } = setup;
        let _round = spans.enter("score.round");
        let (rows, merged_rows) = (&self.rows, &self.merged_rows);
        let (base_ref, merged_ref) = (&self.base_ref, &self.merged_ref);
        let stats = &mut self.stats;
        let scratch = &mut self.scratch;

        let (labels, t) =
            pass(spans, "serve.eval.batch", rows, |b| evaluate_batch(plan, db, b, scratch));
        stats.labels_s.push(t);
        let verdict = base_ref.check("labels-only", rows, &labels);
        out.op(verdict.is_ok(), || verdict.clone().unwrap_err());

        let (explained, t) = pass(spans, "serve.explain.batch", rows, |b| {
            evaluate_batch_traced(plan, db, b, scratch)
        });
        stats.explain_s.push(t);
        let explain_labels: Vec<ClassLabel> = explained.iter().map(|e| e.label).collect();
        let verdict = base_ref.check("explain", rows, &explain_labels).and_then(|()| {
            if explain_labels != labels {
                return Err("explain: labels differ from the labels-only evaluator".into());
            }
            for e in &base_ref.sample {
                let fired = explained
                    .iter()
                    .find(|x| x.row == e.row)
                    .map(|x| x.fired.iter().map(|f| f.clause_index).collect::<Vec<usize>>());
                if fired.as_ref() != Some(&e.fired) {
                    return Err(format!(
                        "explain: row {} fired {fired:?} but the oracle's satisfied clauses are {:?}",
                        e.row.0, e.fired
                    ));
                }
            }
            Ok(())
        });
        out.op(verdict.is_ok(), || verdict.clone().unwrap_err());

        let overlay_scratch = &mut self.overlay_scratch;
        let (labels, t) = pass(spans, "serve.overlay.batch", merged_rows, |b| {
            evaluate_batch_overlay(plan, db, overlay, b, overlay_scratch)
        });
        stats.overlay_s.push(t);
        let verdict = merged_ref.check("overlay", merged_rows, &labels);
        out.op(verdict.is_ok(), || verdict.clone().unwrap_err());

        let before = disk.stats();
        let (labels, t) = pass(spans, "storage.disk.batch", rows, |b| {
            predict_disk(plan, disk, b).expect("disk reads succeed")
        });
        stats.pool.push(diff(disk.stats(), before));
        stats.disk_s.push(t);
        let verdict = base_ref.check("disk", rows, &labels);
        out.op(verdict.is_ok(), || verdict.clone().unwrap_err());

        if spans.is_on() {
            let (labels, t) = pass(spans, "core.classifier.predict", rows, |b| {
                served.predict(db, b).expect("rows are in range")
            });
            stats.core_predict_s.push(t);
            let verdict = base_ref.check("core predict", rows, &labels);
            out.op(verdict.is_ok(), || verdict.clone().unwrap_err());
        }
        self.rounds += 1;
    }
}
