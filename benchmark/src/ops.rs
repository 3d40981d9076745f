//! Failure accounting. An op is one route call in any pass; it fails on
//! an `Err`, a panic, a result that differs from the verified reference,
//! or virtual counters that differ between passes.

use std::panic::{catch_unwind, AssertUnwindSafe};

/// Counters of the virtual account that must be identical in every pass
/// of one workload, `ClockMode::Virtual` and `ClockMode::Wall` alike.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exact {
    pub virtual_s: f64,
    pub ops: u64,
    pub msgs: u64,
    pub bytes: u64,
}

#[derive(Debug, Default)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
    /// One line per failed op, for the report.
    pub failures: Vec<String>,
}

impl Ops {
    /// Runs one op. `reference` is the verified warm-up's outcome (none
    /// yet for the warm-up itself). Returns the outcome unless the call
    /// itself failed; an outcome that differs from the reference is
    /// counted as failed but still returned.
    pub fn attempt<R: PartialEq>(
        &mut self,
        pass: &str,
        reference: Option<(&R, &Exact)>,
        op: impl FnOnce() -> Result<(R, Exact), String>,
    ) -> Option<(R, Exact)> {
        self.attempted += 1;
        let outcome = match catch_unwind(AssertUnwindSafe(op)) {
            Ok(Ok(outcome)) => outcome,
            Ok(Err(e)) => {
                self.fail(format!("{pass}: the route call returned an error: {e}"));
                return None;
            }
            Err(payload) => {
                let msg = payload
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| payload.downcast_ref::<&str>().copied())
                    .unwrap_or("non-string panic payload");
                self.fail(format!("{pass}: the route call panicked: {msg}"));
                return None;
            }
        };
        if let Some((result, exact)) = reference {
            if outcome.0 != *result {
                self.fail(format!(
                    "{pass}: result differs from the verified warm-up result"
                ));
            } else if outcome.1 != *exact {
                self.fail(format!(
                    "{pass}: virtual counters differ between passes: {:?} vs warm-up {:?}",
                    outcome.1, exact
                ));
            }
        }
        Some(outcome)
    }

    /// Counts the op that produced an already-attempted outcome as
    /// failed after the fact (a non-empty `verify::verify`).
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.failures.push(why);
    }
}
