//! The independent correctness oracle: evaluates each learned clause for
//! one target row with physical joins (`BindingTable`), a code path that
//! shares nothing with tuple-ID propagation or the serving evaluators.
//!
//! From the clauses, their rank order and the default label it derives the
//! label CrossMine must predict (§5.3: the first satisfied clause wins,
//! else the default), and the set of clauses the provenance path must
//! report as fired.

use crate::api::{
    AggOp, BindingTable, ClassLabel, Clause, ComplexLiteral, ConstraintKind, Database, RelId, Row,
    Value,
};

/// What the oracle expects for one row.
#[derive(Debug, Clone, PartialEq)]
pub struct Expected {
    pub row: Row,
    pub label: ClassLabel,
    /// Rank indices of every clause the row satisfies, ascending.
    pub fired: Vec<usize>,
}

/// Evaluates `clauses` for each of `rows` on `db`.
pub fn expect(
    db: &Database,
    clauses: &[Clause],
    default_label: ClassLabel,
    rows: &[Row],
) -> Vec<Expected> {
    rows.iter()
        .map(|&row| {
            let fired: Vec<usize> = clauses
                .iter()
                .enumerate()
                .filter(|(_, c)| satisfies(db, &c.literals, row))
                .map(|(i, _)| i)
                .collect();
            let label = fired.first().map_or(default_label, |&i| clauses[i].label);
            Expected { row, label, fired }
        })
        .collect()
}

/// Makes the first expected label wrong: the self-test's planted fault.
pub fn flip(expected: &mut [Expected], classes: &[ClassLabel]) {
    if let Some(e) = expected.first_mut() {
        e.label =
            classes.iter().copied().find(|&c| c != e.label).unwrap_or(ClassLabel(e.label.0 + 1));
    }
}

/// Whether target `row` satisfies the literal sequence: each literal's
/// prop-path is replayed with physical joins from the most recent binding
/// table of its source relation, as in the paper's Fig. 3.
fn satisfies(db: &Database, literals: &[ComplexLiteral], row: Row) -> bool {
    let target = db.target().expect("benchmark databases have a target");
    let mut tables: Vec<Option<BindingTable>> = vec![None; db.schema.num_relations()];
    tables[target.0] = Some(BindingTable::from_targets(target, [row]));
    for lit in literals {
        let mut table = match lit.path.first() {
            Some(first) => {
                let src =
                    tables[first.from.0].as_ref().expect("prop-path starts at an active relation");
                let mut t = src.join(db, last_slot(src, first.from), first);
                for edge in &lit.path[1..] {
                    let slot = last_slot(&t, edge.from);
                    t = t.join(db, slot, edge);
                }
                t
            }
            None => {
                tables[lit.constraint.rel.0].clone().expect("local literal on an active relation")
            }
        };
        let rel = lit.constraint.rel;
        let slot = last_slot(&table, rel);
        let store = db.relation(rel);
        match &lit.constraint.kind {
            ConstraintKind::CatEq { attr, value } => {
                table = table.filter(slot, |r| store.value(r, *attr) == Value::Cat(*value));
            }
            ConstraintKind::Num { attr, op, threshold } => {
                table = table.filter(
                    slot,
                    |r| matches!(store.value(r, *attr), Value::Num(x) if op.test(x, *threshold)),
                );
            }
            ConstraintKind::Agg { agg, attr, op, threshold } => {
                // The aggregate runs over the distinct joinable tuples, in
                // ascending row order (the order sums are defined in).
                let mut joined: Vec<Row> = (0..table.len()).map(|i| table.row(i, slot)).collect();
                joined.sort();
                joined.dedup();
                let mut numeric = 0u32;
                let mut sum = 0.0;
                for r in &joined {
                    if let Some(a) = attr {
                        if let Value::Num(x) = store.value(*r, *a) {
                            numeric += 1;
                            sum += x;
                        }
                    }
                }
                let value = match agg {
                    AggOp::Count => (!joined.is_empty()).then_some(joined.len() as f64),
                    AggOp::Sum => (numeric > 0).then_some(sum),
                    AggOp::Avg => (numeric > 0).then_some(sum / numeric as f64),
                };
                if !value.is_some_and(|v| op.test(v, *threshold)) {
                    return false;
                }
            }
        }
        if table.is_empty() {
            return false;
        }
        tables[rel.0] = Some(table);
    }
    true
}

/// The slot of the most recent binding of `rel` in `table`.
fn last_slot(table: &BindingTable, rel: RelId) -> usize {
    *table.slots_of(rel).last().expect("relation is bound")
}
