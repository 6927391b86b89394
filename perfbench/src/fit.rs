//! The fit phase: rounds of 10-fold stratified cross-validation, each
//! round a fresh learner (fresh count store) on a fresh seeded split.

use crate::api::{accuracy, stratified_folds, CrossMine, Database, ObsHandle, Row};
use crate::input::{learner_params, served_model, target_rows, Setup, Tamper};
use crate::oracle;
use crate::report::Outcome;
use crate::stats::{mean, Rng};
use crate::trace::Spans;

/// Held-out rows per fold the oracle checks.
const FOLD_SAMPLE: usize = 4;

/// The learner's own counters the traced run reads, by `ObsHandle` name.
const COUNTERS: [&str; 7] = [
    "stats.cache_hits",
    "stats.cache_misses",
    "stats.cache_evictions",
    "propagation.passes",
    "propagation.ids_propagated",
    "search.literals_considered",
    "search.lookahead_units",
];

#[derive(Debug, Default)]
pub struct FitStats {
    pub fold_fit_s: Vec<f64>,
    pub round_accuracy: Vec<f64>,
    pub predict_ms: Vec<f64>,
    pub nocache_fit_s: Vec<f64>,
    pub clauses: Vec<f64>,
    /// Learner counter totals over every fold fit, in [`COUNTERS`] order.
    pub counters: Vec<u64>,
}

/// Share of the most frequent class: what always guessing it scores.
fn majority_share(db: &Database) -> f64 {
    let labels = db.labels();
    let top = db.classes().iter().map(|&c| labels.iter().filter(|&&l| l == c).count()).max();
    top.unwrap_or(0) as f64 / labels.len().max(1) as f64
}

/// One cross-validation round in progress.
struct Round {
    folds: Vec<Vec<Row>>,
    clf: CrossMine,
    next: usize,
    accuracies: Vec<f64>,
    fold_ok: Vec<Result<(), String>>,
}

/// The fit phase, advanced one fold at a time so the scheduler can
/// interleave it with the other phases.
pub struct Phase {
    seed: u64,
    tamper: Tamper,
    obs: ObsHandle,
    round: Option<Round>,
    rounds: u64,
    pub stats: FitStats,
}

impl Phase {
    pub fn new(seed: u64, tamper: Tamper, spans: &Spans) -> Phase {
        let obs = if spans.is_on() { ObsHandle::enabled() } else { ObsHandle::noop() };
        Phase { seed, tamper, obs, round: None, rounds: 0, stats: FitStats::default() }
    }

    pub fn rounds(&self) -> usize {
        self.rounds as usize
    }

    pub fn mid_round(&self) -> bool {
        self.round.is_some()
    }

    /// Fits and checks one fold; the last fold of a round closes it.
    pub fn step(&mut self, setup: &Setup, spans: &Spans, out: &mut Outcome) {
        let db: &Database = &setup.db;
        let round = self.round.get_or_insert_with(|| {
            let split_seed = Rng::new(self.seed, 100 + self.rounds).next_u64();
            let mut params = learner_params();
            params.obs = self.obs.clone();
            Round {
                folds: stratified_folds(db, &target_rows(db), 10, split_seed),
                clf: CrossMine::new(params),
                next: 0,
                accuracies: Vec::new(),
                fold_ok: Vec::new(),
            }
        });
        let i = round.next;
        round.next += 1;
        let test = &round.folds[i];
        let train: Vec<Row> = round
            .folds
            .iter()
            .enumerate()
            .filter(|&(j, _)| j != i)
            .flat_map(|(_, f)| f.iter().copied())
            .collect();
        let (model, fit) = spans.timed("core.learner.fit", || {
            round.clf.fit(db, &train).expect("cross-validation folds are valid rows")
        });
        let served = served_model(&model, self.tamper);
        let (predicted, predict) = spans.timed("core.classifier.predict", || {
            served.predict(db, test).expect("cross-validation folds are valid rows")
        });
        self.stats.fold_fit_s.push(fit.as_secs_f64());
        self.stats.predict_ms.push(predict.as_secs_f64() * 1e3);
        self.stats.clauses.push(model.clauses.len() as f64);
        round.accuracies.push(accuracy(db, test, &predicted));

        let sample = &test[..test.len().min(FOLD_SAMPLE)];
        let mut expected = oracle::expect(db, &model.clauses, model.default_label, sample);
        if self.tamper == Tamper::Label {
            oracle::flip(&mut expected, &db.classes());
        }
        let bad_class = predicted.iter().find(|l| !model.classes.contains(l));
        let mismatch = expected.iter().zip(&predicted).find(|(e, p)| e.label != **p);
        round.fold_ok.push(match (bad_class, mismatch) {
            (Some(l), _) => Err(format!("fit: fold {i} predicted class {} outside the model", l.0)),
            (_, Some((e, p))) => Err(format!(
                "fit: fold {i} row {} predicted {} but the oracle expects {}",
                e.row.0, p.0, e.label.0
            )),
            _ => Ok(()),
        });
        if round.next == round.folds.len() {
            let round = self.round.take().expect("a round is open");
            self.close(round, db, spans, out);
        }
    }

    fn close(&mut self, round: Round, db: &Database, spans: &Spans, out: &mut Outcome) {
        if spans.is_on() {
            let train: Vec<Row> = round.folds[1..].iter().flatten().copied().collect();
            let mut params = learner_params();
            params.stats_cache_budget_bytes = 0;
            let (_, t) = spans.timed("core.learner.fit_nocache", || {
                CrossMine::new(params)
                    .fit(db, &train)
                    .expect("cross-validation folds are valid rows")
            });
            self.stats.nocache_fit_s.push(t.as_secs_f64());
        }
        let round_accuracy = mean(&round.accuracies);
        self.stats.round_accuracy.push(round_accuracy);
        let majority = majority_share(db);
        let beats_majority = round_accuracy > majority;
        for ok in round.fold_ok {
            out.op(ok.is_ok() && beats_majority, || match ok {
                Err(e) => e,
                Ok(()) => format!(
                    "fit: CV accuracy {round_accuracy:.4} does not beat the majority share {majority:.4}"
                ),
            });
        }
        self.rounds += 1;
    }

    pub fn finish(mut self) -> FitStats {
        self.stats.counters =
            COUNTERS.iter().map(|name| self.obs.counter(name).map_or(0, |c| c.get())).collect();
        self.stats
    }
}
