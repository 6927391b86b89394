//! Inputs and set-up: each workload's database, the model fitted on it,
//! the compiled plan, the disk image, and the seeded deltas.
//!
//! The databases come from fixed generator settings, so every run scores
//! the same data and model; `--seed` draws everything the runs vary:
//! cross-validation splits, batch order, delta contents, request order
//! and the rows the oracle checks.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use crate::api::{
    generate_financial, generate_synthetic, AttrId, AttrType, ClassLabel, CompiledPlan, CrossMine,
    CrossMineModel, CrossMineParams, Database, DeltaBatch, DeltaOverlay, DiskDatabase,
    FinancialConfig, GenParams, RelId, Row, Value, CELLS_PER_PAGE,
};
use crate::stats::Rng;
use crate::trace::Spans;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Fit,
    Score,
    Serve,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "fit" => Some(Workload::Fit),
            "score" => Some(Workload::Score),
            "serve" => Some(Workload::Serve),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Fit => "fit",
            Workload::Score => "score",
            Workload::Serve => "serve",
        }
    }

    /// The workload's database: the simulated PKDD'99 financial database,
    /// a Table-1 R20.T1000.F2 database, or a small R5.T200.F3 one.
    pub fn database(self) -> Database {
        match self {
            Workload::Fit => generate_financial(&FinancialConfig::default()),
            Workload::Score => generate_synthetic(&GenParams {
                num_relations: 20,
                expected_tuples: 1000,
                expected_foreign_keys: 2,
                seed: 42,
                ..GenParams::default()
            }),
            Workload::Serve => generate_synthetic(&GenParams {
                num_relations: 5,
                expected_tuples: 200,
                min_tuples: 60,
                expected_foreign_keys: 3,
                seed: 42,
                ..GenParams::default()
            }),
        }
    }
}

/// Which part of a run is deliberately corrupted, to prove the checks fire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tamper {
    None,
    /// The oracle's expected label of one checked row is wrong.
    Label,
    /// The program serves a model whose top clause predicts the wrong class.
    Clause,
}

/// The learner configuration every fit uses: the paper's defaults on one
/// search thread, count store on.
pub fn learner_params() -> CrossMineParams {
    let mut params = CrossMineParams::default();
    params.num_threads = Some(1);
    params
}

/// The model the program is handed: `model` itself, or under
/// [`Tamper::Clause`] a copy whose top clause predicts another class.
pub fn served_model(model: &CrossMineModel, tamper: Tamper) -> CrossMineModel {
    let mut served = model.clone();
    if tamper == Tamper::Clause {
        let other = |l: ClassLabel| {
            model.classes.iter().copied().find(|&c| c != l).unwrap_or(ClassLabel(l.0 + 1))
        };
        match served.clauses.first_mut() {
            Some(c) => c.label = other(c.label),
            None => served.default_label = other(served.default_label),
        }
    }
    served
}

pub fn target_rows(db: &Database) -> Vec<Row> {
    (0..db.num_targets() as u32).map(Row).collect()
}

/// Draws seeded mutations: fresh target rows (copies of existing ones
/// under new primary keys) and cell patches of base rows.
pub struct DeltaMaker {
    rng: Rng,
    next_pk: u64,
}

impl DeltaMaker {
    pub fn new(db: &Database, rng: Rng) -> Self {
        let target = db.target().expect("benchmark databases have a target");
        let pk = primary_key(db, target).expect("target relation has a primary key");
        let rel = db.relation(target);
        let max_pk = rel.column(pk).iter().filter_map(|v| v.as_key()).max().unwrap_or(0);
        DeltaMaker { rng, next_pk: max_pk + 1 }
    }

    /// `inserts` fresh target rows plus one non-key cell patch in each of
    /// `patch_rels`. Which relations a delta patches sets how much work
    /// overlay reads do, so callers fix it and the seed draws only rows,
    /// attributes and values.
    pub fn batch(&mut self, db: &Database, inserts: usize, patch_rels: &[RelId]) -> DeltaBatch {
        let target = db.target().expect("benchmark databases have a target");
        let pk = primary_key(db, target).expect("target relation has a primary key");
        let mut batch = DeltaBatch::new();
        for _ in 0..inserts {
            let src = Row(self.rng.below(db.num_targets()) as u32);
            let mut tuple = db.relation(target).tuple(src);
            tuple[pk.0] = Value::Key(self.next_pk);
            self.next_pk += 1;
            batch.insert_labeled(target, tuple, db.label(src));
        }
        for &rel in patch_rels {
            let attrs = patchable_attrs(db, rel);
            let store = db.relation(rel);
            loop {
                let attr = attrs[self.rng.below(attrs.len())];
                let row = Row(self.rng.below(store.len()) as u32);
                let value = store.value(Row(self.rng.below(store.len()) as u32), attr);
                if value != Value::Null {
                    batch.update(rel, row, attr, value);
                    break;
                }
            }
        }
        batch
    }
}

/// Non-key attributes of `rel`: the cells a delta may patch.
fn patchable_attrs(db: &Database, rel: RelId) -> Vec<AttrId> {
    db.schema
        .relation(rel)
        .iter_attrs()
        .filter(|(_, a)| matches!(a.ty, AttrType::Categorical | AttrType::Numerical))
        .map(|(id, _)| id)
        .collect()
}

/// Relations with at least one tuple and one non-null patchable cell.
pub fn patchable_relations(db: &Database) -> Vec<RelId> {
    db.schema
        .iter_relations()
        .map(|(id, _)| id)
        .filter(|&rel| {
            let store = db.relation(rel);
            patchable_attrs(db, rel)
                .iter()
                .any(|&a| store.column(a).iter().any(|v| *v != Value::Null))
        })
        .collect()
}

fn primary_key(db: &Database, rel: RelId) -> Option<AttrId> {
    db.schema
        .relation(rel)
        .iter_attrs()
        .find(|(_, a)| a.ty == AttrType::PrimaryKey)
        .map(|(id, _)| id)
}

/// Pages the disk image of `db` takes: every column starts its own page.
fn spilled_pages(db: &Database) -> usize {
    db.schema
        .iter_relations()
        .map(|(id, r)| r.arity() * db.relation(id).len().div_ceil(CELLS_PER_PAGE))
        .sum()
}

/// Times of one set-up's program steps, in seconds. Generating the
/// database only makes inputs and is not counted.
#[derive(Debug, Clone, Default)]
pub struct SetupTimes {
    /// Index build, full fit, plan compile, spill and overlay build.
    pub total: f64,
    pub index: f64,
    pub compile: f64,
    pub spill: f64,
    pub delta_build: f64,
}

/// Everything the phases run against.
pub struct Setup {
    pub db: Arc<Database>,
    /// The model as learned: the oracle's reference.
    pub model: CrossMineModel,
    /// The model the program serves (see [`served_model`]).
    pub served: CrossMineModel,
    pub plan: CompiledPlan,
    pub disk: DiskDatabase,
    pub pool_pages: usize,
    pub total_pages: usize,
    /// The seeded delta the score phase's overlay evaluator reads through.
    pub delta: DeltaBatch,
    pub overlay: DeltaOverlay,
    pub times: SetupTimes,
}

/// Builds a workload's inputs from scratch, timing each program step.
pub fn setup(
    workload: Workload,
    seed: u64,
    tamper: Tamper,
    spill_path: &Path,
    spans: &Spans,
) -> Setup {
    let _span = spans.enter("setup");
    let (db, _) = spans.timed("input.generate", || workload.database());
    let ((), index) = spans.timed("relational.index.build_all", || db.build_all_indexes());
    let rows = target_rows(&db);
    let (model, fit) = spans.timed("core.learner.fit_full", || {
        CrossMine::new(learner_params()).fit(&db, &rows).expect("fit on the workload database")
    });
    let served = served_model(&model, tamper);
    let (plan, compile) = spans.timed("serve.plan.compile", || {
        CompiledPlan::compile(&served, &db.schema).expect("a learned model compiles")
    });
    let total_pages = spilled_pages(&db);
    let pool_pages = (total_pages / 4).max(4);
    let (disk, spill) = spans.timed("storage.spill", || {
        DiskDatabase::spill(&db, spill_path, pool_pages).expect("spill to the run directory")
    });
    let patch_rels = patchable_relations(&db);
    let delta =
        DeltaMaker::new(&db, Rng::new(seed, 1)).batch(&db, db.num_targets() / 20, &patch_rels);
    let (overlay, delta_build) = spans.timed("relational.delta.build", || {
        DeltaOverlay::build(&db, &delta).expect("seeded deltas are valid")
    });
    let times = SetupTimes {
        total: (index + fit + compile + spill + delta_build).as_secs_f64(),
        index: index.as_secs_f64(),
        compile: compile.as_secs_f64(),
        spill: spill.as_secs_f64(),
        delta_build: delta_build.as_secs_f64(),
    };
    Setup {
        db: Arc::new(db),
        model,
        served,
        plan,
        disk,
        pool_pages,
        total_pages,
        delta,
        overlay,
        times,
    }
}

/// The run's own directory for the disk image, removed when dropped.
pub struct RunDir(pub PathBuf);

impl RunDir {
    pub fn create() -> std::io::Result<RunDir> {
        let dir = PathBuf::from(".perfbench").join(format!("run-{}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(RunDir(dir))
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
