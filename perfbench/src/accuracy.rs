//! Served answers graded against `ph_exact::evaluate`.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use ph_core::{AqpAnswer, Estimate};
use ph_exact::ExactAnswer;
use ph_types::Dataset;

use crate::stats::{median, Metrics};

/// Relative errors and bound misses, one entry per graded query. A grouped
/// query counts once: its error is the median over the groups present in
/// both the estimate and the exact result, and it adds the share of those
/// groups whose bounds miss. Without this, the few grouped queries of a pool
/// (each with up to a dozen groups) would outnumber the scalar ones.
/// Undefined (NULL) results are not graded.
pub struct Accuracy {
    pub rel_errors: Vec<f64>,
    pub bound_misses: f64,
}

impl Accuracy {
    pub fn put(&self, m: &mut Metrics) {
        eprintln!(
            "accuracy: {} graded queries, {:.1} bound misses",
            self.rel_errors.len(),
            self.bound_misses
        );
        m.put("median_rel_error", "ratio", median(&self.rel_errors));
        m.put(
            "bound_miss_rate",
            "ratio",
            self.bound_misses / self.rel_errors.len() as f64,
        );
    }

    /// Grades one query from its `(estimate, truth)` pairs.
    fn add(&mut self, pairs: &[(&Estimate, f64)]) {
        if pairs.is_empty() {
            return;
        }
        let errors: Vec<f64> = pairs
            .iter()
            .map(|(est, truth)| {
                if *truth == 0.0 {
                    if est.value == 0.0 {
                        0.0
                    } else {
                        1.0
                    }
                } else {
                    (est.value - truth).abs() / truth.abs()
                }
            })
            .collect();
        let misses = pairs.iter().filter(|(e, t)| *t < e.lo || *t > e.hi).count();
        self.rel_errors.push(median(&errors));
        self.bound_misses += misses as f64 / pairs.len() as f64;
    }
}

/// Grades `(SQL, served answer)` pairs against exact answers over `rows`,
/// on two threads (exact evaluation scans every row).
pub fn grade(answers: &[(String, &AqpAnswer)], rows: &Dataset) -> Accuracy {
    let acc = Mutex::new(Accuracy {
        rel_errors: Vec::new(),
        bound_misses: 0.0,
    });
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..2 {
            s.spawn(|| loop {
                let j = cursor.fetch_add(1, Ordering::Relaxed);
                let Some((sql, served)) = answers.get(j) else {
                    break;
                };
                let query = ph_sql::parse_query(sql).expect("generated SQL parses");
                let Ok(exact) = ph_exact::evaluate(&query, rows) else {
                    continue;
                };
                let mut acc = acc.lock().expect("accuracy lock");
                let pairs: Vec<(&Estimate, f64)> = match (served, exact) {
                    (AqpAnswer::Scalar(Some(e)), ExactAnswer::Scalar(Some(t))) => vec![(e, t)],
                    (AqpAnswer::Groups(g), ExactAnswer::Groups(truth)) => truth
                        .into_iter()
                        .filter_map(|(label, t)| Some((g.get(&label)?, t?)))
                        .collect(),
                    _ => Vec::new(),
                };
                acc.add(&pairs);
            });
        }
    });
    let mut acc = acc.into_inner().expect("accuracy lock");
    // Thread interleaving decides the push order; the metrics do not care,
    // but a sorted list keeps the run log reproducible.
    acc.rel_errors.sort_by(|a, b| a.total_cmp(b));
    acc
}
