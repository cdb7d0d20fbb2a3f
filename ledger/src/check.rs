//! Answer checking: every run verifies what the program returned.
//!
//! `attempted` counts every operation the run issued; `failed` counts the
//! ones that errored, were refused, or returned an answer that failed a
//! check. Any failed *check* makes the run incorrect.

use crate::sut::{self, Outcome, Request, K};

/// Violations kept verbatim (the rest are only counted).
const KEEP: usize = 8;

#[derive(Debug, Default, Clone)]
pub struct Checker {
    pub attempted: u64,
    pub failed: u64,
    /// Failed answer checks (a subset of `failed`).
    pub wrong: u64,
    /// Verbatim stored series sent as queries, and how many came back
    /// leading their own answer at distance 0.
    pub self_tried: u64,
    pub self_found: u64,
    pub violations: Vec<String>,
}

/// The least share of verbatim stored series that must find themselves.
///
/// Not 1: the index breaks group-assignment ties at random, keyed by the
/// id when a record is placed and by the values when a query is routed,
/// so a few percent of stored series are legitimately filed where their
/// own query does not look (about 3 % at the benchmark's configuration).
/// A routing or scan defect loses far more than that.
pub const SELF_HIT_FLOOR: f64 = 0.85;

impl Checker {
    pub fn merge(&mut self, other: Checker) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.wrong += other.wrong;
        self.self_tried += other.self_tried;
        self.self_found += other.self_found;
        let room = KEEP.saturating_sub(self.violations.len());
        self.violations
            .extend(other.violations.into_iter().take(room));
    }

    /// `ops` operations that errored or were refused together.
    pub fn refused(&mut self, what: &str, why: &str, ops: u64) {
        self.failed += ops;
        if self.violations.len() < KEEP {
            self.violations.push(format!("{what}: {why}"));
        }
    }

    /// Records a failed answer check.
    pub fn wrong(&mut self, what: String) {
        self.failed += 1;
        self.wrong += 1;
        if self.violations.len() < KEEP {
            self.violations.push(what);
        }
    }

    /// At most `K` results, ascending by distance, no NaN.
    pub fn shape(&mut self, tag: &str, out: &Outcome) -> bool {
        let r = &out.results;
        let ok =
            r.len() <= K && r.windows(2).all(|w| w[0].1 <= w[1].1) && r.iter().all(|x| x.1 >= 0.0);
        if !ok {
            self.wrong(format!("{tag}: answer not <= {K} ascending distances"));
        }
        ok
    }

    /// Every reported distance equals the squared ED recomputed from the
    /// stored series (`lookup` maps an id to its values).
    pub fn distances<'a>(
        &mut self,
        tag: &str,
        req: &Request,
        out: &Outcome,
        lookup: impl Fn(u64) -> Option<&'a [f32]>,
    ) -> bool {
        for &(id, d) in &out.results {
            let ok = lookup(id).is_some_and(|vals| sut::distance(&req.query, vals) == d);
            if !ok {
                self.wrong(format!(
                    "{tag}: id {id} reported at {d}, not its recomputed sq_ed"
                ));
                return false;
            }
        }
        true
    }

    /// Tallies whether a query that is stored series `id` verbatim found
    /// itself at distance 0; [`close`](Self::close) judges the share.
    pub fn self_hit(&mut self, out: &Outcome, id: u64) -> bool {
        let found = out.results.iter().any(|&(rid, d)| rid == id && d == 0.0);
        self.self_tried += 1;
        self.self_found += found as u64;
        found
    }

    /// Judges the tallies that only make sense over a whole run.
    pub fn close(&mut self) {
        if self.self_found < (self.self_tried as f64 * SELF_HIT_FLOOR) as u64 {
            self.wrong(format!(
                "only {} of {} stored series found themselves at distance 0",
                self.self_found, self.self_tried
            ));
        }
    }

    /// Bit-identical to the direct `Climber::search` reference.
    pub fn identical(&mut self, tag: &str, out: &Outcome, reference: &Outcome) -> bool {
        let ok = out.results.len() == reference.results.len()
            && out
                .results
                .iter()
                .zip(&reference.results)
                .all(|(a, b)| a.0 == b.0 && a.1.to_bits() == b.1.to_bits());
        if !ok {
            self.wrong(format!("{tag}: answer differs from direct search"));
        }
        ok
    }
}
