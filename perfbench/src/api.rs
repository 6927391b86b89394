//! Every entry point of the program the benchmark calls, gathered in one
//! place. The workloads, the oracle and the wire client import the
//! program only through this module, so a change to the public API shows
//! up here and nowhere else.
//!
//! Entry points the ROADMAP plans to replace (see `README.md`):
//! the four batch evaluators `evaluate_batch`, `evaluate_batch_traced`,
//! `evaluate_batch_overlay` and `evaluate_batch_overlay_traced` (the
//! benchmark calls all but the last), `predict_disk`, and the learner's
//! `ObsHandle` counters.
//!
//! Deliberately absent: `ServerConfig::max_wait` and the deprecated
//! `submit*` / `predict_within` calls. The server runs on
//! `ServerConfig` defaults plus a wire front end on `NetConfig` defaults.

pub use crossmine_core::eval::{accuracy, stratified_folds};
pub use crossmine_core::literal::{AggOp, ComplexLiteral, ConstraintKind};
pub use crossmine_core::{Clause, CrossMine, CrossMineModel, CrossMineParams};
pub use crossmine_datasets::{generate_financial, FinancialConfig};
pub use crossmine_net::frame::{decode_response, encode_request};
pub use crossmine_obs::ObsHandle;
pub use crossmine_relational::physical::BindingTable;
pub use crossmine_relational::{
    AttrId, AttrType, ClassLabel, Database, DeltaBatch, DeltaOverlay, RelId, Row, Value,
};
pub use crossmine_serve::{
    evaluate_batch, evaluate_batch_overlay, evaluate_batch_traced, predict_disk, CompiledPlan,
    ModelRegistry, NetConfig, OverlayScratch, PredictionServer, ServeScratch, ServerConfig,
};
pub use crossmine_storage::{BufferStats, DiskDatabase, CELLS_PER_PAGE};
pub use crossmine_synth::{generate as generate_synthetic, GenParams};
