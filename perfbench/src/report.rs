//! Operation accounting and the result line.

/// Operations attempted and failed, with the first few failure reasons.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    notes: Vec<String>,
}

impl Outcome {
    /// Counts one operation whose outputs passed (`ok`) or did not.
    pub fn op(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            // Keep the first two reasons of each kind (the text before
            // the first ':'), so every failing phase shows.
            let why = why();
            let kind = why.split(':').next().unwrap_or_default();
            if self.notes.iter().filter(|n| n.split(':').next() == Some(kind)).count() < 2 {
                self.notes.push(why);
            }
        }
    }

    pub fn notes(&self) -> &[String] {
        &self.notes
    }
}

/// Metrics in the order they were added.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }

    pub fn all_finite(&self) -> bool {
        self.0.iter().all(|(_, v, _)| v.is_finite())
    }

    pub fn table(&self) -> String {
        self.0.iter().map(|(n, v, u)| format!("{n:<34} {v:>16.4} {u}\n")).collect()
    }
}

/// The one-line JSON result.
pub fn result_line(correct: bool, outcome: &Outcome, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .0
        .iter()
        .map(|&(n, v, u)| {
            // A non-finite value already made the run incorrect; keep the
            // line valid JSON.
            let v = if v.is_finite() { v } else { 0.0 };
            format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted,
        outcome.failed,
        body.join(", ")
    )
}
