//! The serve phase: one client thread on one keep-alive binary-framing
//! connection to an in-process `PredictionServer`, closed loop, one row
//! per request. Each round starts a fresh server and runs the same seeded
//! script: warm-up reads, the `read` phase (no overlay), then the `mixed`
//! phase, where the client calls `apply_delta` (fresh target rows plus a
//! cell patch) before every block of reads, and later reads include the
//! new rows.

use std::sync::Arc;

use crate::api::{
    evaluate_batch, evaluate_batch_overlay, ClassLabel, Database, DeltaBatch, DeltaOverlay,
    ModelRegistry, NetConfig, ObsHandle, OverlayScratch, PredictionServer, Row, ServeScratch,
    ServerConfig,
};
use crate::client::{Client, Reply};
use crate::input::{patchable_relations, DeltaMaker, Setup, Tamper};
use crate::oracle;
use crate::report::Outcome;
use crate::stats::Rng;
use crate::trace::Spans;

const WARMUP: usize = 100;
pub const DELTAS: usize = 25;
/// Target rows each delta appends.
const DELTA_INSERTS: usize = 2;
/// Calls per one-row probe in the traced run.
const PROBES: usize = 300;

/// The seeded request script every round replays. The read phase and the
/// mixed phase each read every base row once, so all seeds read the same
/// rows and differ only in order (one-row cost depends strongly on which
/// clause fires first). Delta `k` appends target rows and patches one
/// cell of relation `k` (cycling), so every seed patches the same
/// relations.
struct Script {
    warmup: Vec<Row>,
    reads: Vec<Row>,
    deltas: Vec<DeltaBatch>,
    /// Reads after delta `k`, for `k` in `0..DELTAS`: a share of the base
    /// rows plus the rows delta `k` appended.
    mixed: Vec<Vec<Row>>,
}

impl Script {
    fn new(db: &Database, seed: u64) -> Script {
        let mut rng = Rng::new(seed, 4);
        let n = db.num_targets();
        let warmup = (0..WARMUP).map(|_| Row(rng.below(n) as u32)).collect();
        let mut reads: Vec<Row> = (0..n as u32).map(Row).collect();
        rng.shuffle(&mut reads);
        let mut order: Vec<Row> = (0..n as u32).map(Row).collect();
        rng.shuffle(&mut order);
        let mut maker = DeltaMaker::new(db, Rng::new(seed, 5));
        let patch_rels = patchable_relations(db);
        let mut deltas = Vec::with_capacity(DELTAS);
        let mut mixed = Vec::with_capacity(DELTAS);
        for k in 0..DELTAS {
            let rel = patch_rels[k % patch_rels.len()];
            deltas.push(maker.batch(db, DELTA_INSERTS, &[rel]));
            let mut block: Vec<Row> = order[k * n / DELTAS..(k + 1) * n / DELTAS].to_vec();
            block.extend((0..DELTA_INSERTS).map(|i| Row((n + k * DELTA_INSERTS + i) as u32)));
            rng.shuffle(&mut block);
            mixed.push(block);
        }
        Script { warmup, reads, deltas, mixed }
    }
}

/// The label every read must get: `CrossMineModel::predict` on the
/// materialized database (base plus the deltas applied so far), and the
/// oracle's label for the first read after each state change.
struct Expectation {
    base: Vec<ClassLabel>,
    oracle_base: Vec<(Row, ClassLabel)>,
    /// Per mixed block: the expected label of each read.
    mixed: Vec<Vec<ClassLabel>>,
    oracle_mixed: Vec<ClassLabel>,
    classes: Vec<ClassLabel>,
}

impl Expectation {
    fn new(setup: &Setup, script: &Script, tamper: Tamper) -> Expectation {
        let model = &setup.model;
        let db = &setup.db;
        let all: Vec<Row> = (0..db.num_targets() as u32).map(Row).collect();
        let base = model.predict(db, &all).expect("reference predict");
        let mut sample: Vec<Row> = script.reads.iter().copied().take(32).collect();
        sample.sort();
        sample.dedup();
        let mut oracle_base = oracle::expect(db, &model.clauses, model.default_label, &sample);
        let mut merged = (**db).clone();
        let mut mixed = Vec::with_capacity(DELTAS);
        let mut oracle_mixed = Vec::with_capacity(DELTAS);
        for (delta, reads) in script.deltas.iter().zip(&script.mixed) {
            merged.apply_delta(delta).expect("seeded deltas apply");
            // Every distinct row once: `CrossMineModel::predict` gives the
            // default label to all but the last copy of a repeated row.
            let all: Vec<Row> = (0..merged.num_targets() as u32).map(Row).collect();
            let labels = model.predict(&merged, &all).expect("reference predict");
            mixed.push(reads.iter().map(|r| labels[r.0 as usize]).collect());
            let first = oracle::expect(&merged, &model.clauses, model.default_label, &reads[..1]);
            oracle_mixed.push(first[0].label);
        }
        if tamper == Tamper::Label {
            oracle::flip(&mut oracle_base, &model.classes);
            let flipped = model.classes.iter().copied().find(|&c| c != oracle_mixed[0]);
            oracle_mixed[0] = flipped.unwrap_or(ClassLabel(oracle_mixed[0].0 + 1));
        }
        Expectation {
            base,
            oracle_base: oracle_base.into_iter().map(|e| (e.row, e.label)).collect(),
            mixed,
            oracle_mixed,
            classes: model.classes.clone(),
        }
    }

    fn check(&self, what: &str, reply: &Reply, want: ClassLabel) -> Result<(), String> {
        if !reply.matched || reply.status != 200 || reply.labels.len() != 1 {
            return Err(format!(
                "{what}: reply status {} with {} labels (id matched: {})",
                reply.status,
                reply.labels.len(),
                reply.matched
            ));
        }
        let got = ClassLabel(reply.labels[0]);
        if !self.classes.contains(&got) {
            return Err(format!("{what}: class {} outside the model", got.0));
        }
        if got != want {
            return Err(format!("{what}: got {} but expected {}", got.0, want.0));
        }
        Ok(())
    }
}

#[derive(Debug, Default)]
pub struct ServeStats {
    pub read_us: Vec<f64>,
    pub mixed_us: Vec<f64>,
    pub delta_ms: Vec<f64>,
    pub last_delta_ops: usize,
    pub inproc_us: Vec<f64>,
    pub eval_row_us: Vec<f64>,
    pub overlay_row_us: Vec<f64>,
    pub last_build_ms: Vec<f64>,
    pub mean_batch: Vec<f64>,
    pub bytes_per_request: Vec<f64>,
    pub queue_wait_p50_us: f64,
}

/// The server and connection a round runs against.
struct Live {
    server: PredictionServer,
    client: Client,
    /// Requests sent over the wire.
    sent: u64,
}

/// The serve phase. A step is one whole round on a fresh server: its
/// warm-up refills the caches the other phases' steps displaced, so the
/// measured reads start warm.
pub struct Phase {
    script: Script,
    expect: Expectation,
    rounds: usize,
    obs: ObsHandle,
    pub stats: ServeStats,
}

impl Phase {
    pub fn new(setup: &Setup, seed: u64, tamper: Tamper, spans: &Spans) -> Phase {
        let script = Script::new(&setup.db, seed);
        let expect = Expectation::new(setup, &script, tamper);
        let obs = if spans.is_on() { ObsHandle::enabled() } else { ObsHandle::noop() };
        Phase { script, expect, rounds: 0, obs, stats: ServeStats::default() }
    }

    pub fn rounds(&self) -> usize {
        self.rounds
    }

    pub fn step(&mut self, setup: &Setup, spans: &Spans, out: &mut Outcome) {
        let _round = spans.enter("serve.round");
        let (script, expect, stats) = (&self.script, &self.expect, &mut self.stats);
        let config = ServerConfig::builder()
            .net(NetConfig::default())
            .obs(self.obs.clone())
            .build()
            .expect("default server config with net is valid");
        let registry = Arc::new(ModelRegistry::new(setup.plan.clone()));
        let server = PredictionServer::start(Arc::clone(&setup.db), registry, config)
            .expect("server starts");
        let addr = server.net_addr().expect("net was configured");
        let client = Client::connect(addr).expect("client connects to the front end");
        let mut live = Live { server, client, sent: 0 };

        for &row in &script.warmup {
            let want = expect.base[row.0 as usize];
            request(&mut live, expect, spans, out, row, "warm-up read", want, None);
        }
        for &row in &script.reads {
            let want = expect.base[row.0 as usize];
            let oracle = expect.oracle_base.iter().find(|(r, _)| *r == row).map(|&(_, l)| l);
            stats.read_us.push(request(&mut live, expect, spans, out, row, "read", want, oracle));
        }
        let mut inproc = 0;
        if spans.is_on() {
            for &row in script.reads.iter().take(PROBES) {
                let (p, t) = spans.timed("serve.server.predict", || live.server.predict(row));
                inproc += 1;
                let want = expect.base[row.0 as usize];
                let ok = p.as_ref().is_ok_and(|p| p.label == want);
                out.op(ok, || format!("in-process read: row {} got {p:?}", row.0));
                stats.inproc_us.push(t.as_secs_f64() * 1e6);
            }
        }
        for (k, delta) in script.deltas.iter().enumerate() {
            let (applied, t) =
                spans.timed("serve.server.apply_delta", || live.server.apply_delta(delta));
            stats.delta_ms.push(t.as_secs_f64() * 1e3);
            let live_ops = delta.len() * (k + 1);
            match applied {
                Ok(s) => {
                    stats.last_delta_ops = s.ops;
                    out.op(s.ops == live_ops, || {
                        format!(
                            "apply_delta: {} ops live after delta {k}, expected {live_ops}",
                            s.ops
                        )
                    });
                }
                Err(e) => out.op(false, || format!("apply_delta: delta {k} rejected: {e}")),
            }
            for (i, &row) in script.mixed[k].iter().enumerate() {
                let want = expect.mixed[k][i];
                let oracle = (i == 0).then_some(expect.oracle_mixed[k]);
                let us = request(&mut live, expect, spans, out, row, "mixed read", want, oracle);
                stats.mixed_us.push(us);
            }
        }

        let Live { server, client, sent } = live;
        let net = server.net_metrics().expect("net was configured").snapshot();
        drop(client);
        let snap = server.shutdown();
        // Every request got exactly one reply, and the server saw exactly
        // the requests the client sent.
        let answered =
            snap.requests == sent + inproc && snap.errors == 0 && net.binary_requests == sent;
        out.op(answered, || {
            format!(
                "server: counted {} requests ({} errors, {} on the wire) for {} sent",
                snap.requests,
                snap.errors,
                net.binary_requests,
                sent + inproc
            )
        });
        stats.mean_batch.push(snap.mean_batch);
        let bytes = (net.bytes_read + net.bytes_written) as f64;
        stats.bytes_per_request.push(bytes / sent.max(1) as f64);
        self.rounds += 1;
    }

    /// Closes the phase; the traced run adds the one-row evaluator probes.
    pub fn finish(mut self, setup: &Setup, spans: &Spans, out: &mut Outcome) -> ServeStats {
        if let Some(h) = self.obs.histogram("serve.queue_wait_us") {
            self.stats.queue_wait_p50_us = h.quantile(0.5) as f64;
        }
        if spans.is_on() {
            probe_evaluators(setup, &self.script, &self.expect, spans, &mut self.stats, out);
        }
        self.stats
    }
}

/// One wire request: sends `row`, checks the reply against `want` (and
/// the oracle's label, where one was computed), and returns the latency
/// in microseconds.
#[allow(clippy::too_many_arguments)]
fn request(
    live: &mut Live,
    expect: &Expectation,
    spans: &Spans,
    out: &mut Outcome,
    row: Row,
    what: &str,
    want: ClassLabel,
    oracle: Option<ClassLabel>,
) -> f64 {
    let (reply, t) = spans.timed("net.request", || live.client.request(row));
    live.sent += 1;
    let verdict = reply.map_err(|e| format!("{what}: {e}")).and_then(|r| {
        expect.check(what, &r, want)?;
        match oracle {
            Some(o) if o != want => {
                Err(format!("{what}: oracle expects {} for row {}", o.0, row.0))
            }
            _ => Ok(()),
        }
    });
    out.op(verdict.is_ok(), || verdict.unwrap_err());
    t.as_secs_f64() * 1e6
}

/// Traced run only: the one-row evaluator calls under the server, and a
/// rebuild of the overlay the last delta installed.
fn probe_evaluators(
    setup: &Setup,
    script: &Script,
    expect: &Expectation,
    spans: &Spans,
    stats: &mut ServeStats,
    out: &mut Outcome,
) {
    let mut scratch = ServeScratch::new();
    for &row in script.reads.iter().take(PROBES) {
        let (l, t) = spans.timed("serve.eval.row", || {
            evaluate_batch(&setup.plan, &setup.db, &[row], &mut scratch)
        });
        out.op(l == [expect.base[row.0 as usize]], || {
            format!("probe: one-row eval of row {} gave {l:?}", row.0)
        });
        stats.eval_row_us.push(t.as_secs_f64() * 1e6);
    }
    let mut all = DeltaBatch::new();
    for d in &script.deltas {
        all.extend(d);
    }
    let (overlay, t) = spans.timed("relational.delta.build_last", || {
        DeltaOverlay::build(&setup.db, &all).expect("seeded deltas are valid")
    });
    stats.last_build_ms.push(t.as_secs_f64() * 1e3);
    let last = script.mixed.len() - 1;
    let mut scratch = OverlayScratch::new();
    for i in 0..PROBES {
        let j = i % script.mixed[last].len();
        let row = script.mixed[last][j];
        let (l, t) = spans.timed("serve.overlay.row", || {
            evaluate_batch_overlay(&setup.plan, &setup.db, &overlay, &[row], &mut scratch)
        });
        out.op(l == [expect.mixed[last][j]], || {
            format!("probe: one-row overlay eval of row {} gave {l:?}", row.0)
        });
        stats.overlay_row_us.push(t.as_secs_f64() * 1e6);
    }
}
