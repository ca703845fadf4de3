//! Query pools, all drawn from `ph_workload::generate` in the paper's scaled
//! shape: the seven aggregates, 1–5 predicates, a 25% OR mix, and about 10%
//! GROUP BY on `day`/`site`.

use std::collections::HashSet;

use ph_sql::{CmpOp, Predicate, Query};
use ph_types::{Dataset, Value};
use ph_workload::{generate, WorkloadConfig};

use crate::data::Rng;

/// Templates in the dashboard pool.
pub const DASHBOARD_TEMPLATES: usize = 256;
/// Generator seed of the query shapes. Like the rows, the shapes are the same
/// in every run, so accuracy is graded on the same queries every time.
const QUERY_SEED: u64 = 0x774c_4421;
/// Ad-hoc answers graded per run: the first entries of the ad-hoc stream.
pub const ADHOC_SAMPLE: usize = 600;

fn config(n: usize, seed: u64) -> WorkloadConfig {
    WorkloadConfig {
        group_by_probability: 0.10,
        ..WorkloadConfig::scaled(n, seed)
    }
}

/// The dashboard pool: a fixed set of distinct templates.
pub fn dashboard(data: &Dataset) -> Vec<String> {
    let mut seen = HashSet::new();
    generate(data, &config(DASHBOARD_TEMPLATES + 32, QUERY_SEED))
        .into_iter()
        .map(|q| q.to_string())
        .filter(|s| seen.insert(s.clone()))
        .take(DASHBOARD_TEMPLATES)
        .collect()
}

/// The ad-hoc stream: query `k` for k = 0, 1, … never repeats a text.
/// Shapes come from the generator; the first pass issues each once, in
/// generated order (its first [`ADHOC_SAMPLE`] are the graded sample). Every
/// later pass re-issues the shapes that have a numeric literal, in an order
/// the run seed draws, with those literals nudged (see [`nudge_literals`]):
/// each text and plan-cache fingerprint is new, while the shape and the rows
/// it selects stay those of a generated query. Texts are made on demand, so
/// the stream never runs dry however fast the server answers.
pub struct Adhoc {
    shapes: Vec<Query>,
    /// Indices of shapes with a numeric literal, in seeded order.
    nudgeable: Vec<usize>,
}

impl Adhoc {
    pub fn new(data: &Dataset, seed: u64) -> Adhoc {
        let mut seen = HashSet::new();
        let shapes: Vec<Query> = generate(data, &config(2048, QUERY_SEED ^ 0xad40c))
            .into_iter()
            .filter(|q| seen.insert(q.to_string()))
            .collect();
        let mut nudgeable: Vec<usize> = (0..shapes.len())
            .filter(|&i| {
                shapes[i]
                    .predicate
                    .clone()
                    .is_some_and(|mut p| nudge_literals(&mut p, 1))
            })
            .collect();
        Rng::new(seed).shuffle(&mut nudgeable);
        Adhoc { shapes, nudgeable }
    }

    /// The `k`-th query of the stream.
    pub fn text(&self, k: usize) -> String {
        let Some(rest) = k.checked_sub(self.shapes.len()) else {
            return self.shapes[k].to_string();
        };
        let mut q = self.shapes[self.nudgeable[rest % self.nudgeable.len()]].clone();
        let round = (rest / self.nudgeable.len() + 1) as i64;
        if let Some(p) = q.predicate.as_mut() {
            nudge_literals(p, round);
        }
        q.to_string()
    }
}

/// Moves every numeric literal of `p` by `round` millionths, in the direction
/// that keeps its rows selected: up for `>` and `<=`, down for `>=` and `<`.
/// Columns are encoded at most three decimals deep and generated literals
/// have two, so below 1000 millionths (a million-odd queries per run) no
/// encoded value crosses the literal. False if `p` has no numeric literal.
fn nudge_literals(p: &mut Predicate, round: i64) -> bool {
    match p {
        Predicate::Cond(c) => {
            let x = match c.value {
                Value::Int(v) => v as f64,
                Value::Float(v) => v,
                _ => return false,
            };
            let dir = match c.op {
                CmpOp::Gt | CmpOp::Le => 1.0,
                CmpOp::Ge | CmpOp::Lt => -1.0,
                _ => return false,
            };
            c.value = Value::Float(((x * 1e6).round() + dir * round as f64) / 1e6);
            true
        }
        Predicate::And(ps) | Predicate::Or(ps) => {
            let mut any = false;
            for q in ps.iter_mut() {
                any |= nudge_literals(q, round);
            }
            any
        }
    }
}
